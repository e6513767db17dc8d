"""The chaos profile: generation, soaks, repro files, and shrinking.

The chaos soak is the fuzzer's ``chaos`` profile: a fixed 4-CPU / 16 MB
/ 2-disk PIso machine with no workload mix, one to three antagonist
bursts, up to four faults, and a victim that must checkpoint in every
250 ms window.  The deliberate kernel bugs come from the runner's
``REPRO_FUZZ_PLANT`` plants (or a monkeypatched plant), never from a
test-only hook in the runner.
"""

import json

import pytest

import repro.fuzz.runner as runner
from repro.__main__ import main
from repro.faults.plan import CpuAdd, CpuRemove, DiskFailure
from repro.fuzz import (
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    generate_chaos_scenario,
    load_repro,
    replay,
    run_scenario,
    shrink_scenario,
    write_repro,
)
from repro.fuzz.campaign import CampaignConfig, load_corpus, run_campaign
from repro.fuzz.generate import (
    CHAOS_MAX_BURSTS,
    CHAOS_MAX_FAULTS,
    CHAOS_MEMORY_MB,
    CHAOS_NCPUS,
    CHAOS_NDISKS,
    CHAOS_PROGRESS_WINDOW_US,
)
from repro.fuzz.shrink import repro_record
from repro.sim.units import MSEC

#: The chaos machine never drops below half its processors.
MIN_CPUS_ONLINE = CHAOS_NCPUS // 2


@pytest.fixture
def page_leak(monkeypatch):
    """Plant the runner's page-leak bug for the duration of a test."""
    monkeypatch.setenv(runner.ENV_PLANT, "page-leak")


class TestChaosPlan:
    def test_validates_bursts(self):
        # Shrinking rebuilds chaos scenarios through replace_events and
        # replace_machine; a bad burst or horizon there is a
        # ScenarioError like everywhere else.
        scenario = generate_chaos_scenario(seed=0)
        for burst, message in (
            (AntagonistBurst(0, "nuke"), "unknown antagonist"),
            (AntagonistBurst(0, "fork_bomb", scale=-1), "scale"),
            (AntagonistBurst(-5, "fork_bomb"), "before boot"),
        ):
            with pytest.raises(ScenarioError, match=message):
                scenario.replace_events([], [burst], [])
        with pytest.raises(ScenarioError, match="horizon"):
            scenario.replace_machine(horizon_us=0)

    def test_rejects_non_finite_numbers(self):
        # Repro files arrive through from_dict; NaN slips past ordinary
        # range checks (every comparison is False), so bursts, the
        # horizon and the progress window check finiteness explicitly.
        nan = float("nan")
        record = generate_chaos_scenario(seed=0).to_dict()
        burst = record["bursts"][0]
        for bad in (dict(burst, at_us=nan), dict(burst, scale=nan)):
            with pytest.raises(ScenarioError, match="finite"):
                ScenarioSpec.from_dict(dict(record, bursts=[bad]))
        with pytest.raises(ScenarioError, match="horizon_us"):
            ScenarioSpec.from_dict(dict(record, horizon_us=float("inf")))
        for window in (0, nan, "soon"):
            with pytest.raises(ScenarioError, match="progress_window_us"):
                ScenarioSpec.from_dict(dict(record, progress_window_us=window))

    def test_json_round_trip(self):
        scenario = generate_chaos_scenario(seed=7)
        clone = ScenarioSpec.from_json(scenario.to_json())
        assert clone.to_dict() == scenario.to_dict()
        assert clone.progress_window_us == CHAOS_PROGRESS_WINDOW_US
        assert clone.fingerprint() == scenario.fingerprint()
        assert len(clone) == len(scenario)

    def test_from_json_rejects_garbage(self):
        record = generate_chaos_scenario(seed=7).to_dict()
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")
        with pytest.raises(ScenarioError, match="missing fields"):
            ScenarioSpec.from_json('{"seed": 0}')
        with pytest.raises(ScenarioError, match="bad burst fields"):
            ScenarioSpec.from_dict(dict(record, bursts=[{"when": 3}]))
        with pytest.raises(ScenarioError, match="bad fault plan"):
            ScenarioSpec.from_dict(
                dict(record, faults=[{"kind": "meteor_strike", "at_us": 1}])
            )

    def test_generation_is_deterministic_and_legal(self):
        for seed in range(30):
            scenario = generate_chaos_scenario(seed)
            again = generate_chaos_scenario(seed)
            assert scenario.to_dict() == again.to_dict()
            assert (scenario.ncpus, scenario.memory_mb, scenario.ndisks,
                    scenario.scheme) == (
                CHAOS_NCPUS, CHAOS_MEMORY_MB, CHAOS_NDISKS, "piso")
            assert scenario.progress_window_us == CHAOS_PROGRESS_WINDOW_US
            assert not scenario.workloads, "the chaos profile runs no mix"
            assert 1 <= len(scenario.bursts) <= CHAOS_MAX_BURSTS, \
                "every plan carries at least one antagonist"
            assert len(scenario.faults) <= CHAOS_MAX_FAULTS
            online = CHAOS_NCPUS
            for event in scenario.faults:
                if isinstance(event, DiskFailure):
                    assert event.disk != 0, "disk 0 is the failover target"
                elif isinstance(event, CpuRemove):
                    online -= 1
                elif isinstance(event, CpuAdd):
                    assert online < CHAOS_NCPUS, "CpuAdd with nothing offline"
                    online += 1
                assert online >= MIN_CPUS_ONLINE


class TestSoak:
    def test_clean_run_has_progress_and_no_violations(self):
        result = run_scenario(generate_chaos_scenario(1, horizon_us=1500 * MSEC))
        assert result.ok
        assert result.checkpoints > 0
        assert result.journal[0].startswith("scenario |")
        assert result.journal[-1].startswith("end |")
        assert any("launch |" in line for line in result.journal)

    def test_short_soak_over_seeds_is_clean(self, tmp_path):
        report = run_campaign(CampaignConfig(
            seeds=[0, 1, 2], corpus_path=str(tmp_path / "corpus.jsonl"),
            horizon_us=1500 * MSEC, profile="chaos",
        ))
        assert report.ok and report.verdicts == {"ok": 3}
        records = load_corpus(str(tmp_path / "corpus.jsonl"))
        assert [r["fingerprint"] for r in records] == [
            generate_chaos_scenario(s, horizon_us=1500 * MSEC).fingerprint()
            for s in (0, 1, 2)
        ]


class TestReproAndShrink:
    def make_failing(self):
        scenario = generate_chaos_scenario(2, horizon_us=1200 * MSEC)
        result = run_scenario(scenario)
        assert not result.ok
        assert result.violations[0].name == "page-conservation"
        return scenario, result

    def test_repro_record_requires_a_violation(self):
        scenario = generate_chaos_scenario(1, horizon_us=1200 * MSEC)
        with pytest.raises(ValueError, match="no violation"):
            repro_record(run_scenario(scenario))

    def test_repro_file_replays_to_the_same_violation(self, tmp_path, page_leak):
        scenario, result = self.make_failing()
        path = str(tmp_path / "repro.json")
        write_repro(path, result)
        loaded, recorded = load_repro(path)
        assert loaded.to_dict() == scenario.to_dict()
        replayed = replay(path)
        assert not replayed.ok
        assert replayed.violations[0] == recorded
        assert replayed.journal == result.journal

    def test_load_rejects_foreign_files(self, tmp_path):
        # Repro files of the retired standalone chaos harness are not
        # fuzz repro files; loading one says so instead of guessing.
        path = tmp_path / "chaos-repro.json"
        path.write_text(json.dumps({
            "format": "repro.chaos/1",
            "plan": {"seed": 0, "horizon_us": 1000, "bursts": [], "faults": []},
        }))
        with pytest.raises(ScenarioError, match="not a fuzz repro"):
            load_repro(str(path))

    def test_shrink_reaches_a_minimal_plan(self, page_leak):
        scenario, result = self.make_failing()
        assert len(scenario) > 0
        shrunk = shrink_scenario(scenario, result.violations[0].name)
        # The plant fires regardless of the schedule, so the minimal
        # reproduction is (well under) three events.
        assert len(shrunk.scenario) <= 3
        assert shrunk.runs >= 1
        final = run_scenario(shrunk.scenario)
        assert any(v.name == "page-conservation" for v in final.violations)

    def test_shrink_refuses_a_passing_plan(self):
        scenario = generate_chaos_scenario(1, horizon_us=1200 * MSEC)
        with pytest.raises(ValueError, match="cannot shrink"):
            shrink_scenario(scenario, "page-conservation")

    def test_already_minimal_plan_survives_shrinking(self, monkeypatch):
        # A plan whose only event is essential: the burst-leak plant
        # leaks pages only when a burst fires, so ddmin probes the
        # empty set, sees the violation vanish, and keeps the burst.
        monkeypatch.setenv(runner.ENV_PLANT, "burst-leak")
        base = generate_chaos_scenario(2, horizon_us=1200 * MSEC)
        scenario = base.replace_events(
            [], [AntagonistBurst(at_us=100 * MSEC, kind="fork_bomb")], []
        )
        result = run_scenario(scenario)
        assert not result.ok
        shrunk = shrink_scenario(scenario, result.violations[0].name)
        assert len(shrunk.scenario) == 1
        assert shrunk.scenario.bursts[0].kind == "fork_bomb"

    def test_failure_that_stops_reproducing_keeps_the_full_plan(
        self, monkeypatch, page_leak
    ):
        # A heisenbug: the plant leaks on the first run (the shrinker's
        # own initial check) and never again.  Every probe then passes,
        # so the shrink terminates with the full scenario rather than
        # looping or returning a passing subset.
        scenario, _ = self.make_failing()
        state = {"armed": True}
        leak = runner._leak_pages

        def fickle(kernel):
            if state["armed"]:
                state["armed"] = False
                leak(kernel)

        monkeypatch.setattr(runner, "_leak_pages", fickle)
        shrunk = shrink_scenario(scenario, "page-conservation", max_runs=16)
        assert not state["armed"], "the plant never fired"
        assert shrunk.scenario.to_dict() == scenario.to_dict()
        assert len(shrunk.scenario) == len(scenario)
        assert shrunk.runs <= 16


class TestCli:
    def test_clean_seeds_exit_zero(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus.jsonl")
        assert main(["chaos", "--seeds", "1", "--horizon-ms", "1200",
                     "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "1 cell(s) run" in out and "ok=1" in out
        [record] = load_corpus(corpus)
        assert record["fingerprint"] == generate_chaos_scenario(
            1, horizon_us=1200 * MSEC).fingerprint()

    def test_violation_exits_one_and_replays(self, tmp_path, capsys, page_leak):
        corpus = str(tmp_path / "corpus.jsonl")
        assert main(["chaos", "--seeds", "2", "--horizon-ms", "1200",
                     "--corpus", corpus, "--shrink-budget", "8"]) == 1
        repro = tmp_path / "fuzz-repro-2.json"
        assert repro.exists()
        assert "violation=1" in capsys.readouterr().out
        assert main(["fuzz", "--repro", str(repro)]) == 1
        assert "page-conservation" in capsys.readouterr().out
