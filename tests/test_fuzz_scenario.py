"""Scenario specs and generation: validation, determinism, round-trips."""

import math

import pytest

from repro.faults.plan import DiskFailure, DiskTransient, FaultPlan
from repro.fuzz.generate import generate_scenario
from repro.fuzz.scenario import (
    MEMORY_MB_RANGE,
    NCPUS_RANGE,
    NDISKS_RANGE,
    SCHEMES,
    WORKLOAD_KINDS,
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim.units import MSEC, SEC


def small_scenario(**overrides):
    fields = dict(
        seed=1, ncpus=2, memory_mb=16, ndisks=2, scheme="piso",
        horizon_us=500 * MSEC,
        workloads=[WorkloadSpec(kind="cpu_hog", spu="load0")],
        bursts=[AntagonistBurst(at_us=0, kind="lock_hogger")],
        faults=FaultPlan([DiskFailure(at_us=100 * MSEC, disk=1)]),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_accepts_a_legal_scenario(self):
        scenario = small_scenario()
        assert len(scenario) == 3

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ScenarioError, match="unknown scheme"):
            small_scenario(scheme="round_robin")

    def test_rejects_unknown_workload_kind(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            small_scenario(workloads=[WorkloadSpec(kind="quake", spu="load0")])

    def test_rejects_reserved_spu_names(self):
        with pytest.raises(ScenarioError, match="reserved"):
            small_scenario(workloads=[WorkloadSpec(kind="cpu_hog", spu="victim")])

    def test_rejects_mount_beyond_machine(self):
        with pytest.raises(ScenarioError, match="mount 5"):
            small_scenario(
                workloads=[WorkloadSpec(kind="copy", spu="load0", mount=5)]
            )

    def test_rejects_fault_on_missing_disk(self):
        with pytest.raises(ScenarioError, match="disk 3"):
            small_scenario(
                faults=FaultPlan([DiskFailure(at_us=0, disk=3)])
            )

    def test_rejects_death_of_the_failover_disk(self):
        with pytest.raises(ScenarioError, match="disk 0"):
            small_scenario(faults=FaultPlan([DiskFailure(at_us=0, disk=0)]))

    def test_rejects_nan_and_non_integer_dimensions(self):
        with pytest.raises(ScenarioError, match="ncpus"):
            small_scenario(ncpus=float("nan"))
        with pytest.raises(ScenarioError, match="horizon_us"):
            small_scenario(horizon_us=math.inf)
        with pytest.raises(ScenarioError, match="memory_mb"):
            small_scenario(memory_mb=True)

    def test_rejects_out_of_range_dimensions(self):
        with pytest.raises(ScenarioError, match="ncpus"):
            small_scenario(ncpus=NCPUS_RANGE[1] + 1)
        with pytest.raises(ScenarioError, match="memory_mb"):
            small_scenario(memory_mb=MEMORY_MB_RANGE[0] - 1)
        with pytest.raises(ScenarioError, match="ndisks"):
            small_scenario(ndisks=NDISKS_RANGE[1] + 1)

    @pytest.mark.parametrize("burst, message", [
        (AntagonistBurst(0, "nuke"), "unknown antagonist"),
        (AntagonistBurst(0, "fork_bomb", scale=-1), "scale"),
        (AntagonistBurst(0, "fork_bomb", scale=0), "scale"),
        (AntagonistBurst(-5, "fork_bomb"), "before boot"),
    ], ids=["unknown-kind", "negative-scale", "zero-scale", "before-boot"])
    def test_rejects_bad_bursts(self, burst, message):
        with pytest.raises(ScenarioError, match=message):
            small_scenario(bursts=[burst])

    @pytest.mark.parametrize("burst", [
        AntagonistBurst(float("nan"), "fork_bomb"),
        AntagonistBurst(0, "fork_bomb", scale=float("nan")),
        AntagonistBurst(0, "fork_bomb", scale=float("inf")),
    ], ids=["nan-at_us", "nan-scale", "inf-scale"])
    def test_rejects_non_finite_bursts(self, burst):
        # NaN slips past ordinary range checks (every comparison is
        # False), so bursts check finiteness explicitly.
        with pytest.raises(ScenarioError, match="finite"):
            small_scenario(bursts=[burst])

    def test_rejects_bad_progress_window(self):
        for window in (0, -1, float("nan"), 1.5):
            with pytest.raises(ScenarioError, match="progress_window_us"):
                small_scenario(progress_window_us=window)

    @pytest.mark.parametrize("field", [
        "seed", "ncpus", "memory_mb", "ndisks", "horizon_us",
        "progress_window_us",
    ])
    def test_integral_float_dimensions_are_stored_as_ints(self, field):
        value = {"progress_window_us": 250 * MSEC}.get(
            field, getattr(small_scenario(), field)
        )
        as_int = small_scenario(**{field: value})
        as_float = small_scenario(**{field: float(value)})
        assert type(getattr(as_float, field)) is int
        assert as_float.fingerprint() == as_int.fingerprint()

    @pytest.mark.parametrize("field, value", [
        ("start_us", 5 * MSEC), ("intensity", 2), ("mount", 1),
    ])
    def test_integral_float_workload_fields_are_stored_as_ints(
        self, field, value
    ):
        def scenario(v):
            return small_scenario(workloads=[
                WorkloadSpec(kind="cpu_hog", spu="load0", **{field: v})
            ])

        as_float = scenario(float(value))
        assert type(getattr(as_float.workloads[0], field)) is int
        assert as_float.fingerprint() == scenario(value).fingerprint()

    def test_rejects_excessive_intensity(self):
        with pytest.raises(ScenarioError, match="intensity"):
            small_scenario(
                workloads=[WorkloadSpec(kind="copy", spu="load0", intensity=9)]
            )


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        scenario = small_scenario()
        rebuilt = ScenarioSpec.from_json(scenario.to_json())
        assert rebuilt.to_dict() == scenario.to_dict()
        assert rebuilt.fingerprint() == scenario.fingerprint()

    def test_from_dict_rejects_foreign_formats(self):
        record = small_scenario().to_dict()
        record["format"] = "something-else"
        with pytest.raises(ScenarioError, match="not a fuzz scenario"):
            ScenarioSpec.from_dict(record)

    def test_from_dict_names_missing_fields(self):
        record = small_scenario().to_dict()
        del record["scheme"], record["workloads"]
        with pytest.raises(ScenarioError, match="scheme"):
            ScenarioSpec.from_dict(record)

    def test_from_dict_revalidates_events(self):
        record = small_scenario().to_dict()
        record["faults"] = [
            {"kind": "disk_transient", "at_us": 0, "disk": 0,
             "duration_us": float("nan")}
        ]
        with pytest.raises(ScenarioError, match="finite"):
            ScenarioSpec.from_dict(record)

    def test_progress_window_is_emitted_only_when_set(self):
        # Scenarios without the override keep the fingerprints they had
        # before the field existed (the golden fuzz records pin them).
        plain = small_scenario()
        assert "progress_window_us" not in plain.to_dict()
        windowed = small_scenario(progress_window_us=250 * MSEC)
        assert windowed.to_dict()["progress_window_us"] == 250 * MSEC
        assert windowed.fingerprint() != plain.fingerprint()
        rebuilt = ScenarioSpec.from_json(windowed.to_json())
        assert rebuilt.progress_window_us == 250 * MSEC

    def test_integral_float_horizon_is_the_same_scenario(self):
        # A hand-edited repro file may carry 2000000.0 where the
        # generator wrote 2000000: same fingerprint, same journal.
        from repro.fuzz.runner import run_scenario

        record = generate_scenario(3, horizon_us=2 * SEC).to_dict()
        as_int = ScenarioSpec.from_dict(record)
        as_float = ScenarioSpec.from_dict(dict(record, horizon_us=2e6))
        assert as_float.fingerprint() == as_int.fingerprint()
        assert as_float.to_json() == as_int.to_json()
        header = run_scenario(as_float).journal[0]
        assert header == run_scenario(as_int).journal[0]
        assert "horizon=2000000us" in header

    def test_fingerprint_tracks_content(self):
        a = small_scenario()
        b = small_scenario(seed=2)
        assert a.fingerprint() != b.fingerprint()


class TestDerivedForms:
    def test_replace_events_keeps_the_machine(self):
        scenario = small_scenario()
        stripped = scenario.replace_events([], [], [])
        assert len(stripped) == 0
        assert (stripped.ncpus, stripped.memory_mb, stripped.ndisks) == (
            scenario.ncpus, scenario.memory_mb, scenario.ndisks
        )

    def test_replace_keeps_the_progress_window(self):
        scenario = small_scenario(progress_window_us=250 * MSEC)
        assert scenario.replace_events([], [], []).progress_window_us \
            == 250 * MSEC
        assert scenario.replace_machine(ncpus=1).progress_window_us \
            == 250 * MSEC

    def test_replace_machine_revalidates(self):
        scenario = small_scenario()
        with pytest.raises(ScenarioError, match="disk"):
            # Dropping to one disk strands the DiskFailure on disk 1.
            scenario.replace_machine(ndisks=1)

    def test_simulation_spec_lists_reserved_and_workload_spus(self):
        spec = small_scenario().simulation_spec()
        assert spec.ncpus == 2
        names = [s if isinstance(s, str) else s.name for s in spec.spus]
        assert names == ["victim", "attacker", "load0"]


class TestGeneration:
    def test_generation_is_deterministic(self):
        a = generate_scenario(7)
        b = generate_scenario(7)
        assert a.to_dict() == b.to_dict()
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_seeds_diverge(self):
        fingerprints = {generate_scenario(s).fingerprint() for s in range(20)}
        assert len(fingerprints) == 20

    def test_generated_scenarios_are_legal(self):
        # Construction re-validates, so survival == legality; spot-check
        # the interesting structural properties on top.
        for seed in range(60):
            scenario = generate_scenario(seed)
            assert NCPUS_RANGE[0] <= scenario.ncpus <= NCPUS_RANGE[1]
            assert scenario.scheme in SCHEMES
            assert all(w.kind in WORKLOAD_KINDS for w in scenario.workloads)
            assert all(w.mount < scenario.ndisks for w in scenario.workloads)
            for event in scenario.faults:
                disk = getattr(event, "disk", None)
                if disk is not None:
                    assert disk < scenario.ndisks
                if isinstance(event, DiskTransient):
                    assert event.duration_us > 0

    def test_pinning_horizon_and_scheme(self):
        scenario = generate_scenario(3, horizon_us=1 * SEC, scheme="smp")
        assert scenario.horizon_us == 1 * SEC
        assert scenario.scheme == "smp"
        # Pinning must not disturb the rest of the draw.
        free = generate_scenario(3)
        assert scenario.ncpus == free.ncpus
        assert scenario.memory_mb == free.memory_mb
