"""The fuzzer's fleet dimension: generation legality, records, campaigns."""

import json

from repro.fuzz import (
    CampaignConfig,
    fleet_fingerprint,
    generate_fleet_scenario,
    load_corpus,
    run_campaign,
    run_fleet_fuzz_record,
)
from repro.faults.fleet import MachineCrash, MachineRecover, NetworkPartition
from repro.fleet import FleetSpec
from repro.sim.units import MSEC

SEEDS = range(12)


class TestGeneration:
    def test_every_seed_draws_a_legal_fleet(self):
        # FleetSpec validates at construction; surviving __post_init__
        # and a JSON round-trip *is* the legality check.
        for seed in SEEDS:
            spec = generate_fleet_scenario(seed)
            back = FleetSpec.from_json(spec.to_json())
            assert back.to_json() == spec.to_json()

    def test_generation_is_deterministic(self):
        for seed in range(6):
            assert generate_fleet_scenario(seed).to_json() == \
                generate_fleet_scenario(seed).to_json()

    def test_seeds_draw_different_fleets(self):
        prints = {fleet_fingerprint(generate_fleet_scenario(s)) for s in SEEDS}
        assert len(prints) > 1

    def test_pinning_horizon_and_scheme(self):
        spec = generate_fleet_scenario(3, horizon_us=123 * MSEC, scheme="smp")
        assert spec.horizon_us == 123 * MSEC
        assert spec.scheme == "smp"

    def test_never_crashes_the_whole_fleet_at_once(self):
        # At least one machine must stay up between any crash and its
        # recovery, or every evacuation would be a forced total shed.
        for seed in range(30):
            spec = generate_fleet_scenario(seed)
            down = set()
            for event in spec.faults:
                if isinstance(event, MachineCrash):
                    down.add(event.machine)
                    assert len(down) < len(spec.machines)
                elif isinstance(event, MachineRecover):
                    down.discard(event.machine)

    def test_partitions_stay_inside_the_horizon(self):
        for seed in range(30):
            spec = generate_fleet_scenario(seed)
            for event in spec.faults:
                if isinstance(event, NetworkPartition):
                    assert event.at_us + event.duration_us <= spec.horizon_us


class TestRecords:
    def test_record_schema_matches_the_campaign_corpus(self):
        record = run_fleet_fuzz_record(0)
        assert set(record) == {
            "seed", "fingerprint", "verdict", "violations", "checkpoints",
            "events", "digest", "fleet",
        }
        assert record["fleet"] is True
        assert record["verdict"] in ("ok", "violation")
        json.dumps(record)  # must be JSON-serialisable as-is

    def test_record_is_a_pure_function_of_the_seed(self):
        assert run_fleet_fuzz_record(5) == run_fleet_fuzz_record(5)

    def test_simsan_override_restores_environment(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
        run_fleet_fuzz_record(0, simsan=True)
        assert "REPRO_SIMSAN" not in os.environ
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        run_fleet_fuzz_record(0, simsan=False)
        assert os.environ["REPRO_SIMSAN"] == "1"


class TestFleetCampaign:
    def test_fleet_campaign_runs_and_resumes(self, tmp_path):
        cfg = CampaignConfig(
            seeds=list(range(8)),
            corpus_path=str(tmp_path / "fleet.jsonl"),
            horizon_us=200 * MSEC,
            simsan=True,
            shard_size=4,
            profile="fleet",
        )
        report = run_campaign(cfg)
        assert report.ran == 8
        records = load_corpus(cfg.corpus_path)
        assert all(r.get("fleet") is True for r in records)
        again = run_campaign(cfg)
        assert again.ran == 0 and again.resumed == 8

    def test_fleet_campaign_parallel_matches_serial_bytes(self, tmp_path):
        seeds = list(range(6))
        serial = CampaignConfig(
            seeds=seeds, corpus_path=str(tmp_path / "s.jsonl"),
            horizon_us=200 * MSEC, profile="fleet",
        )
        run_campaign(serial)
        parallel = CampaignConfig(
            seeds=seeds, corpus_path=str(tmp_path / "p.jsonl"),
            horizon_us=200 * MSEC, profile="fleet",
            workers=2, differential=True,
        )
        report = run_campaign(parallel)
        assert report.ok
        with open(serial.corpus_path, "rb") as a, \
                open(parallel.corpus_path, "rb") as b:
            assert a.read() == b.read()

    def test_seed_sweep_finds_no_violations(self):
        # The acceptance slice of the CI 50-seed soak: every verdict ok
        # under SIMSAN, deterministically.
        for seed in SEEDS:
            record = run_fleet_fuzz_record(
                seed, horizon_us=200 * MSEC, simsan=True
            )
            assert record["verdict"] == "ok", (seed, record["violations"])
