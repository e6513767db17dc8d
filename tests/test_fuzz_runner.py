"""The scenario runner and its oracle stack, including the planted bug."""

import pytest

from repro.faults.plan import FaultPlan
from repro.fuzz.runner import (
    ENV_PLANT,
    SCHEME_PROGRESS_DIVISOR,
    progress_window,
    run_record,
    run_scenario,
)
from repro.fuzz.scenario import SCHEMES, AntagonistBurst, ScenarioSpec, WorkloadSpec
from repro.sim.units import MSEC


def scenario_with(**overrides):
    fields = dict(
        seed=5, ncpus=2, memory_mb=16, ndisks=1, scheme="piso",
        horizon_us=400 * MSEC,
        workloads=[WorkloadSpec(kind="cpu_hog", spu="load0")],
        bursts=[],
        faults=FaultPlan(),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestCleanRuns:
    def test_clean_scenario_is_ok_and_makes_progress(self):
        result = run_scenario(scenario_with())
        assert result.ok
        assert result.verdict == "ok"
        assert result.checkpoints > 0
        assert result.events > 0
        assert result.journal[0].startswith("scenario | seed=5")

    def test_journal_is_deterministic(self):
        a = run_scenario(scenario_with())
        b = run_scenario(scenario_with())
        assert a.journal == b.journal
        assert a.digest() == b.digest()

    def test_run_record_is_a_pure_function(self):
        a = run_record(scenario_with())
        b = run_record(scenario_with())
        assert a == b
        assert a["verdict"] == "ok"
        assert a["violations"] == []
        assert a["digest"]

    def test_every_scheme_has_a_progress_policy(self):
        assert set(SCHEME_PROGRESS_DIVISOR) == set(SCHEMES)

    def test_all_schemes_run_clean_without_antagonists(self):
        for scheme in SCHEMES:
            result = run_scenario(scenario_with(scheme=scheme))
            assert result.ok, (scheme, result.violations)


class TestProgressWindow:
    def test_scheme_divisor_sets_the_default_window(self):
        assert progress_window(scenario_with(scheme="piso")) == 100 * MSEC
        assert progress_window(scenario_with(scheme="quo")) == 200 * MSEC
        assert progress_window(scenario_with(scheme="smp")) is None

    def test_override_replaces_the_scheme_window(self):
        for scheme in SCHEMES:
            scenario = scenario_with(scheme=scheme, progress_window_us=7 * MSEC)
            assert progress_window(scenario) == 7 * MSEC

    def test_override_reaches_the_oracle(self):
        # The victim checkpoints about every 5 ms, so a 1 ms window must
        # flag empty windows even on SMP, which has no bound of its own.
        assert run_scenario(scenario_with(scheme="smp")).ok
        tight = run_scenario(scenario_with(scheme="smp", progress_window_us=MSEC))
        assert {v.name for v in tight.violations} == {"victim-progress"}


class TestPlantedBug:
    def test_page_leak_is_caught_by_the_watchdog(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        result = run_scenario(scenario_with())
        assert not result.ok
        assert {v.name for v in result.violations} == {"page-conservation"}

    def test_burst_leak_needs_a_burst_to_fire(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "burst-leak")
        quiet = run_scenario(scenario_with())
        assert quiet.ok  # no bursts, no leak
        noisy = run_scenario(scenario_with(
            bursts=[AntagonistBurst(at_us=50 * MSEC, kind="lock_hogger")]
        ))
        assert not noisy.ok
        assert any(v.name == "page-conservation" for v in noisy.violations)

    def test_simsan_catches_the_leak_at_event_granularity(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        result = run_scenario(scenario_with(), simsan=True)
        assert not result.ok
        assert any(v.name == "simsan" for v in result.violations)

    def test_simsan_stays_quiet_on_clean_runs(self):
        result = run_scenario(scenario_with(), simsan=True)
        assert result.ok

    def test_unset_plant_means_no_violation(self, monkeypatch):
        monkeypatch.delenv(ENV_PLANT, raising=False)
        assert run_scenario(scenario_with()).ok


class TestWorkloadTranslation:
    @pytest.mark.parametrize("kind", [
        "pmake", "copy", "ocean", "simulator", "interactive", "cpu_hog",
    ])
    def test_each_workload_kind_runs(self, kind):
        result = run_scenario(scenario_with(
            workloads=[WorkloadSpec(kind=kind, spu="load0")],
            horizon_us=300 * MSEC,
        ))
        assert result.ok
        assert any("workload fuzz/load0" in line for line in result.journal)

    def test_duplicate_workloads_get_distinct_tags(self):
        twin = WorkloadSpec(kind="cpu_hog", spu="load0", start_us=0)
        result = run_scenario(scenario_with(workloads=[twin, twin]))
        assert result.ok
        tags = [l for l in result.journal if "start | workload" in l]
        assert len(tags) == 2
        assert len(set(tags)) == 2  # .0 and .1 suffixes
