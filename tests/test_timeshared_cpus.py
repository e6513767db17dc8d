"""End-to-end tests of time-partitioned (fractional-share) CPUs.

The paper's hybrid scheme space-partitions whole CPUs and
time-partitions the remainder.  These tests run real kernels whose
contract forces fractional shares, exercising the rotation, the
dispatch-retry liveness path, and fairness through the full stack.
"""

import pytest

from repro.core import MILLI_CPU, WeightedContract, piso_scheme, quota_scheme
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig
from repro.sim.units import msecs, secs


def build(nspus, ncpus, scheme=None, contract=None):
    kernel = Kernel(
        MachineConfig(
            ncpus=ncpus, memory_mb=16,
            disks=[DiskSpec(geometry=fast_disk())],
            scheme=scheme if scheme is not None else quota_scheme(),
            contract=contract if contract is not None else __import__(
                "repro.core", fromlist=["EqualShareContract"]
            ).EqualShareContract(),
        )
    )
    spus = [kernel.create_spu(f"u{i}") for i in range(nspus)]
    kernel.boot()
    return kernel, spus


def spinner(ms):
    yield Compute(msecs(ms))


class TestSingleCpuSplit:
    def test_two_spus_share_one_cpu_under_quota(self):
        kernel, (a, b) = build(nspus=2, ncpus=1)
        pa = kernel.spawn(spinner(200), a)
        pb = kernel.spawn(spinner(200), b)
        kernel.run()
        # Each gets half the CPU: both finish around 400 ms, and CPU
        # accounts are equal.
        assert pa.response_us > msecs(350)
        assert pb.response_us > msecs(350)
        assert kernel.cpu_account.total(a.spu_id) == msecs(200)
        assert kernel.cpu_account.total(b.spu_id) == msecs(200)

    def test_lone_process_on_rotating_cpu_completes(self):
        # The liveness case the fuzzer found: only daemon ticks rotate
        # the home SPU; the dispatch retry must keep the run alive.
        kernel, (a, _b) = build(nspus=2, ncpus=1)
        proc = kernel.spawn(spinner(50), a)
        kernel.run()
        assert proc.finished >= 0
        # Quota: the SPU owns half the CPU, so 50 ms of work takes
        # about 100 ms of wall time (rotation granularity applies).
        assert msecs(80) <= proc.response_us <= msecs(160)

    def test_piso_lends_rotation_slack(self):
        kernel, (a, _b) = build(nspus=2, ncpus=1, scheme=piso_scheme())
        proc = kernel.spawn(spinner(50), a)
        kernel.run()
        # With lending, the other SPU's idle half is borrowed: the job
        # runs at nearly full speed.
        assert proc.response_us <= msecs(75)


class TestUnevenFractions:
    def test_weighted_split_of_one_cpu(self):
        kernel, (a, b) = build(
            nspus=2, ncpus=1,
            contract=WeightedContract({"u0": 3, "u1": 1}),
        )
        assert a.cpu().entitled == 750
        assert b.cpu().entitled == 250
        kernel.spawn(spinner(3000), a)
        kernel.spawn(spinner(3000), b)
        kernel.run(until=secs(1))
        used_a = kernel.cpu_account.total(a.spu_id)
        used_b = kernel.cpu_account.total(b.spu_id)
        assert used_a == pytest.approx(3 * used_b, rel=0.1)

    def test_three_spus_on_two_cpus(self):
        kernel, spus = build(nspus=3, ncpus=2)
        for spu in spus:
            assert spu.cpu().entitled in (666, 667)
        # Two processes per SPU: an SPU whose fraction is split across
        # both CPUs can only harvest overlapping slots with enough
        # intra-SPU parallelism (one process can't be in two places).
        for spu in spus:
            for _ in range(2):
                kernel.spawn(spinner(3000), spu)
        kernel.run(until=secs(1))
        usages = [kernel.cpu_account.total(s.spu_id) for s in spus]
        mean = sum(usages) / 3
        for used in usages:
            assert used == pytest.approx(mean, rel=0.1)

    def test_split_share_needs_parallelism(self):
        # The single-process case documents the fragmentation: the SPU
        # whose 2/3 share is split 1/3+1/3 across both CPUs harvests
        # only the non-overlapping part with one process.
        kernel, spus = build(nspus=3, ncpus=2)
        for spu in spus:
            kernel.spawn(spinner(3000), spu)
        kernel.run(until=secs(1))
        split_spu = spus[1]  # packing splits the middle SPU's share
        used = kernel.cpu_account.total(split_spu.spu_id)
        assert used >= 0.3 * 1e6  # still gets a substantial share...
        assert used <= 0.6 * 1e6  # ...but not the full 0.667 CPUs

    def test_mixed_dedicated_and_shared(self):
        # 3 SPUs on 4 CPUs: one dedicated CPU each + 1/3 of the fourth.
        kernel, spus = build(nspus=3, ncpus=4)
        partition = kernel.cpusched.partition
        for spu in spus:
            assert len(partition.cpus_of(spu.spu_id)) >= 1
        assert any(partition.is_time_shared(c) for c in range(4))
        for spu in spus:
            for _ in range(2):
                kernel.spawn(spinner(2000), spu)
        kernel.run(until=secs(1))
        usages = [kernel.cpu_account.total(s.spu_id) for s in spus]
        expected = (4 * MILLI_CPU // 3) / MILLI_CPU * 1e6  # µs per 1s
        for used in usages:
            assert used == pytest.approx(expected, rel=0.1)


# --- _skip_ticks(k) against k ticks ------------------------------------------


def _rotation_state(kernel):
    sched = kernel.cpusched
    partition = sched.partition
    return {
        "home": dict(partition._home),
        "credit": {
            cpu: dict(rotation._credit)
            for cpu, rotation in partition.time_shared.items()
        },
        "loans": (sched.loans_granted, sched.loans_revoked),
        "cpus": [
            (c.running, c.on_loan, c.no_loan_until, c.online)
            for c in sched.processors
        ],
        "waiting": sched.waiting(),
    }


#: (nspus, ncpus, scheme, weights by SPU name or None for equal shares).
SKIP_MACHINES = [
    pytest.param(2, 1, quota_scheme, None, id="quo-2spu-1cpu"),
    pytest.param(3, 2, piso_scheme, None, id="piso-3spu-2cpu"),
    pytest.param(3, 4, quota_scheme, None, id="quo-3spu-4cpu"),
    pytest.param(3, 2, piso_scheme, {"u0": 1, "u1": 2, "u2": 4},
                 id="piso-weighted-1-2-4"),
    pytest.param(2, 3, quota_scheme, {"u0": 5, "u1": 2},
                 id="quo-weighted-5-2"),
]


@pytest.mark.parametrize("k", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("nspus, ncpus, scheme, weights", SKIP_MACHINES)
def test_skip_ticks_matches_k_quiescent_ticks(nspus, ncpus, scheme, weights, k):
    """The idle fast-forward's contract: on a quiescent machine,
    ``_skip_ticks(k)`` leaves exactly the state ``k`` calls of
    ``_tick()`` leave — rotation credits, CPU homes and scheduler
    counters."""
    contract = WeightedContract(weights) if weights is not None else None
    skipped, _ = build(nspus, ncpus, scheme=scheme(), contract=contract)
    ticked, _ = build(nspus, ncpus, scheme=scheme(), contract=contract)
    assert skipped.cpusched.partition.time_shared
    boot = _rotation_state(ticked)
    assert _rotation_state(skipped) == boot
    assert skipped._quiescent() and ticked._quiescent()

    skipped._skip_ticks(k)
    for _ in range(k):
        ticked._tick()

    assert ticked._quiescent()
    assert _rotation_state(skipped) == _rotation_state(ticked)
    assert _rotation_state(ticked) != boot
