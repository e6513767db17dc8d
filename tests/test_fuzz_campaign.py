"""Fuzz campaigns: the corpus, resume, crash resilience, repro output."""

import json
import os

import pytest

from repro.fuzz.campaign import (
    PROFILE_CELLS,
    CampaignConfig,
    CampaignError,
    load_corpus,
    repair_corpus,
    run_campaign,
)
from repro.fuzz.runner import ENV_PLANT
from repro.parallel import SweepCache
from repro.sim.units import MSEC

HORIZON = 500 * MSEC


def config(tmp_path, seeds, **overrides):
    fields = dict(
        seeds=seeds,
        corpus_path=str(tmp_path / "corpus.jsonl"),
        horizon_us=HORIZON,
        shard_size=4,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


class TestCorpus:
    def test_missing_corpus_reads_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope.jsonl")) == []

    def test_torn_tail_is_tolerated_and_repaired(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        with open(path, "w") as fh:
            fh.write('{"seed": 1, "verdict": "ok"}\n')
            fh.write('{"seed": 2, "verd')  # killed mid-append
        assert [r["seed"] for r in load_corpus(path)] == [1]
        repair_corpus(path)
        with open(path) as fh:
            assert fh.read() == '{"seed": 1, "verdict": "ok"}\n'

    def test_interior_corruption_is_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        with open(path, "w") as fh:
            fh.write("not json\n")
            fh.write('{"seed": 1, "verdict": "ok"}\n')
        warnings = []
        records = load_corpus(path, warn=warnings.append)
        assert [r["seed"] for r in records] == [1]
        assert len(warnings) == 1
        assert "line 1" in warnings[0]
        assert "re-run on resume" in warnings[0]

    def test_records_missing_seed_or_verdict_are_skipped(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        with open(path, "w") as fh:
            fh.write('{"other": 1}\n')
            fh.write('{"seed": 2, "verdict": "ok"}\n')
        warnings = []
        records = load_corpus(path, warn=warnings.append)
        assert [r["seed"] for r in records] == [2]
        assert len(warnings) == 1
        assert "seed/verdict" in warnings[0]

    def test_corrupt_interior_line_reruns_its_seed_on_resume(self, tmp_path):
        # A campaign whose corpus rots in the middle must resume —
        # skipping the rotten line, re-running the seed it used to
        # hold — rather than abort.
        seeds = list(range(6))
        cfg = config(tmp_path, seeds)
        run_campaign(cfg)
        with open(cfg.corpus_path) as fh:
            lines = fh.readlines()
        pristine = list(lines)
        lines[2] = "@@@ bit rot @@@\n"  # hand-corrupt an interior record
        with open(cfg.corpus_path, "w") as fh:
            fh.writelines(lines)

        report = run_campaign(cfg)
        assert report.ok
        assert report.ran == 1  # exactly the seed the rotten line held
        assert report.resumed == 5
        records = load_corpus(cfg.corpus_path)
        assert sorted(r["seed"] for r in records) == seeds
        # The re-run record is byte-identical to the pre-rot one; only
        # its position moved (appended after the survivors).
        with open(cfg.corpus_path) as fh:
            healed = fh.readlines()
        assert healed[-1] == pristine[2]


class TestCampaign:
    def test_clean_campaign_records_every_seed(self, tmp_path):
        report = run_campaign(config(tmp_path, list(range(6))))
        assert report.ok
        assert report.ran == 6
        assert report.verdicts == {"ok": 6}
        records = load_corpus(str(tmp_path / "corpus.jsonl"))
        assert [r["seed"] for r in records] == list(range(6))

    def test_duplicate_seeds_are_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="unique"):
            run_campaign(config(tmp_path, [1, 1]))

    def test_unknown_profile_is_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="profile"):
            run_campaign(config(tmp_path, [1], profile="meteor"))

    def test_each_profile_has_its_own_cache_key(self, tmp_path):
        # The payload is the same for every profile, so the profile must
        # reach the sweep-cache key through the cell function.
        cache = SweepCache(str(tmp_path))
        payload = (3, HORIZON, True)
        keys = {cache.key_for(fn, payload) for fn in PROFILE_CELLS.values()}
        assert len(keys) == len(PROFILE_CELLS) == 3

    def test_chaos_profile_records_differ_from_scenario_records(self, tmp_path):
        scenario = config(tmp_path, [0, 1], corpus_path=str(tmp_path / "s.jsonl"))
        chaos = config(tmp_path, [0, 1], corpus_path=str(tmp_path / "c.jsonl"),
                       profile="chaos")
        assert run_campaign(scenario).ok and run_campaign(chaos).ok
        prints = [
            {r["fingerprint"] for r in load_corpus(cfg.corpus_path)}
            for cfg in (scenario, chaos)
        ]
        assert prints[0].isdisjoint(prints[1])

    def test_resume_skips_recorded_seeds(self, tmp_path):
        cfg = config(tmp_path, list(range(6)))
        run_campaign(cfg)
        again = run_campaign(cfg)
        assert again.ran == 0
        assert again.resumed == 6
        assert again.verdicts == {"ok": 6}

    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        seeds = list(range(10))
        whole = config(tmp_path, seeds, corpus_path=str(tmp_path / "a.jsonl"))
        run_campaign(whole)

        # Same campaign, killed after one shard with a torn tail, then
        # resumed: the final corpus must be byte-identical.
        part = config(tmp_path, seeds, corpus_path=str(tmp_path / "b.jsonl"))
        first = run_campaign(
            config(tmp_path, seeds, corpus_path=part.corpus_path, max_shards=1)
        )
        assert first.stopped_early and first.ran == 4
        with open(part.corpus_path, "ab") as fh:
            fh.write(b'{"seed": 4, "torn')
        run_campaign(part)
        with open(whole.corpus_path, "rb") as a, open(part.corpus_path, "rb") as b:
            assert a.read() == b.read()

    def test_budget_stops_cleanly_between_shards(self, tmp_path):
        report = run_campaign(config(tmp_path, list(range(8)), budget_s=0.0))
        assert report.stopped_early
        assert report.ran == 0
        assert report.ok  # a budget stop is not a failure

    def test_planted_bug_is_found_and_shrunk(self, tmp_path, monkeypatch):
        # The acceptance path: a deliberately broken conservation
        # invariant must be caught within a bounded campaign and leave
        # a minimal, still-failing repro file behind.
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        report = run_campaign(
            config(tmp_path, [0, 1], shrink_budget=16)
        )
        assert not report.ok
        assert report.verdicts == {"violation": 2}
        assert len(report.repro_files) == 2
        for path in report.repro_files:
            with open(path) as fh:
                record = json.load(fh)
            scenario = record["scenario"]
            # Shrunk to the planted essence: no events needed at all.
            assert scenario["workloads"] == []
            assert scenario["bursts"] == []
            assert scenario["faults"] == []
            assert record["violation"]["name"] == "page-conservation"

    def test_resume_heals_missing_repro_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        cfg = config(tmp_path, [0], shrink_budget=16)
        report = run_campaign(cfg)
        os.remove(report.repro_files[0])
        again = run_campaign(cfg)
        assert again.ran == 0
        assert again.repro_files == report.repro_files
        assert os.path.exists(again.repro_files[0])

    def test_parallel_campaign_matches_serial_bytes(self, tmp_path):
        seeds = list(range(8))
        serial = config(tmp_path, seeds, corpus_path=str(tmp_path / "s.jsonl"))
        run_campaign(serial)
        parallel = config(
            tmp_path, seeds, corpus_path=str(tmp_path / "p.jsonl"),
            workers=2, differential=True,
        )
        report = run_campaign(parallel)
        assert report.ok
        with open(serial.corpus_path, "rb") as a, \
                open(parallel.corpus_path, "rb") as b:
            assert a.read() == b.read()
