"""Unit tests for the network substrate."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import SPURegistry
from repro.net import (
    FairShareLinkScheduler,
    FifoLinkScheduler,
    MTU_BYTES,
    NetByteLedger,
    NetOp,
    NetworkLink,
    Packet,
    ThresholdFairLinkScheduler,
    make_link_scheduler,
)
from repro.sim import Engine


def packet(spu_id, nbytes=1000):
    p = Packet(spu_id, NetOp.SEND, nbytes)
    p.enqueue_time = 0
    return p


class FakeLedger:
    def __init__(self, ratios):
        self.ratios = ratios

    def usage_ratio(self, spu_id, now):
        return self.ratios.get(spu_id, 0.0)


@pytest.fixture
def link_setup():
    engine = Engine(seed=4)
    registry = SPURegistry()
    a = registry.create("a")
    b = registry.create("b")
    for spu in (a, b):
        spu.disk_bw().set_entitled(1)
    ledger = NetByteLedger(registry)
    link = NetworkLink(engine, FairShareLinkScheduler(), ledger,
                       bandwidth_mbps=100.0, per_packet_overhead_us=0)
    return engine, link, a, b


class TestPacket:
    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            Packet(1, NetOp.SEND, 0)

    def test_wait_before_transmit_raises(self):
        with pytest.raises(ValueError):
            _ = Packet(1, NetOp.SEND, 10).wait_us


def heads_of(*packets):
    """The per-SPU head map a link hands its scheduler."""
    heads = {}
    for p in sorted(packets, key=lambda p: p.packet_id):
        heads.setdefault(p.spu_id, p)
    return heads


class TestSchedulers:
    def test_fifo_is_arrival_order(self):
        first = packet(2)
        second = packet(1)
        sched = FifoLinkScheduler()
        assert sched.select(heads_of(second, first), 0, FakeLedger({})) == 2

    def test_fair_picks_neediest(self):
        sched = FairShareLinkScheduler()
        heads = heads_of(packet(1), packet(2))
        assert sched.select(heads, 0, FakeLedger({1: 100.0, 2: 1.0})) == 2

    def test_fair_ties_go_to_lowest_spu_id(self):
        sched = FairShareLinkScheduler()
        heads = heads_of(packet(3), packet(2))
        assert sched.select(heads, 0, FakeLedger({2: 1.0, 3: 1.0})) == 2

    def test_fair_fifo_within_spu(self, link_setup):
        # The scheduler picks an SPU; the link sends that SPU's oldest.
        engine, link, a, b = link_setup
        for spu, nbytes in ((a, 100), (b, 200), (a, 300), (b, 400), (a, 500)):
            link.send(spu.spu_id, nbytes)
        assert link.queue_depth() == 4  # the first packet is on the wire
        engine.run()
        assert link.queue_depth() == 0
        for spu in (a, b):
            sent = [p.nbytes for p in link.stats.completed if p.spu_id == spu.spu_id]
            assert sent == sorted(sent)

    def test_threshold_defers_hog(self):
        sched = ThresholdFairLinkScheduler(threshold=10.0)
        heads = heads_of(packet(1), packet(2))
        ledger = FakeLedger({1: 100.0, 2: 0.0})
        assert sched.select(heads, 0, ledger) == 2

    def test_threshold_fifo_when_balanced(self):
        sched = ThresholdFairLinkScheduler(threshold=1000.0)
        heads = heads_of(packet(1), packet(2))
        ledger = FakeLedger({1: 5.0, 2: 5.0})
        assert sched.select(heads, 0, ledger) == 1

    def test_threshold_single_spu_passes(self):
        sched = ThresholdFairLinkScheduler(threshold=0.0)
        assert sched.select(heads_of(packet(1)), 0, FakeLedger({1: 1e9})) == 1

    def test_threshold_zero_with_equal_ratios_falls_back_to_fifo(self):
        # The mean of three copies of this ratio rounds one ulp below
        # it, so no SPU passes a zero threshold.
        ratio = 939.1491627785106
        assert sum([ratio] * 3) / 3 < ratio
        sched = ThresholdFairLinkScheduler(threshold=0.0)
        heads = heads_of(packet(3), packet(1), packet(2))
        ledger = FakeLedger({1: ratio, 2: ratio, 3: ratio})
        assert sched.select(heads, 0, ledger) == 3

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdFairLinkScheduler(-1.0)

    def test_factory(self):
        assert isinstance(make_link_scheduler("fifo"), FifoLinkScheduler)
        assert isinstance(make_link_scheduler("fair"), FairShareLinkScheduler)
        assert make_link_scheduler("threshold", 5.0).threshold == 5.0
        with pytest.raises(ValueError):
            make_link_scheduler("wrr")


class TestLink:
    def test_serialization_delay(self, link_setup):
        _engine, link, _a, _b = link_setup
        # 1500 bytes at 100 Mb/s = 120 us.
        assert link.transmit_us(1500) == 120

    def test_send_fragments_to_mtu(self, link_setup):
        engine, link, a, _b = link_setup
        n = link.send(a.spu_id, 4000)
        assert n == 3  # 1500 + 1500 + 1000
        engine.run()
        assert link.stats.count() == 3
        assert link.stats.total_bytes() == 4000

    def test_completion_fires_after_last_fragment(self, link_setup):
        engine, link, a, _b = link_setup
        done = []
        link.send(a.spu_id, 3000, on_complete=lambda: done.append(engine.now))
        engine.run()
        assert done == [link.stats.completed[-1].finish_time]

    def test_bytes_charged_to_ledger(self, link_setup):
        engine, link, a, _b = link_setup
        link.send(a.spu_id, 3000)
        engine.run()
        assert link.ledger.usage_ratio(a.spu_id, engine.now) == 3000.0

    def test_fair_link_interleaves_senders(self, link_setup):
        engine, link, a, b = link_setup
        link.send(a.spu_id, MTU_BYTES * 20)
        link.send(b.spu_id, MTU_BYTES * 20)
        engine.run()
        order = [p.spu_id for p in sorted(link.stats.completed,
                                          key=lambda p: p.start_time)]
        # After the first packet, the two SPUs alternate.
        switches = sum(1 for x, y in zip(order, order[1:]) if x != y)
        assert switches > 10

    def test_zero_byte_send_rejected(self, link_setup):
        _engine, link, a, _b = link_setup
        with pytest.raises(ValueError):
            link.send(a.spu_id, 0)

    def test_bad_rate_rejected(self, link_setup):
        engine, link, _a, _b = link_setup
        with pytest.raises(ValueError):
            NetworkLink(engine, FifoLinkScheduler(), link.ledger, bandwidth_mbps=0)


class TestKernelIntegration:
    def test_send_network_syscall(self):
        from repro.core import piso_scheme
        from repro.disk.model import fast_disk
        from repro.kernel import (
            DiskSpec, Kernel, MachineConfig, NicSpec, SendNetwork,
        )

        kernel = Kernel(
            MachineConfig(
                ncpus=1, memory_mb=8, disks=[DiskSpec(geometry=fast_disk())],
                nics=[NicSpec(bandwidth_mbps=100.0, policy="fair")],
                scheme=piso_scheme(),
            )
        )
        spu = kernel.create_spu("u")
        kernel.boot()

        def job():
            yield SendNetwork(15_000)

        proc = kernel.spawn(job(), spu)
        kernel.run()
        # 15 kB at 100 Mb/s = 1.2 ms + per-packet overhead.
        assert proc.response_us >= 1200
        assert kernel.links[0].stats.total_bytes() == 15_000

    def test_unknown_nic_raises(self):
        from repro.core import piso_scheme
        from repro.disk.model import fast_disk
        from repro.kernel import (
            DiskSpec, Kernel, KernelError, MachineConfig, SendNetwork,
        )

        kernel = Kernel(
            MachineConfig(ncpus=1, memory_mb=8,
                          disks=[DiskSpec(geometry=fast_disk())],
                          scheme=piso_scheme())
        )
        spu = kernel.create_spu("u")
        kernel.boot()

        def job():
            yield SendNetwork(100, nic=3)

        with pytest.raises(KernelError):
            kernel.spawn(job(), spu)


class TestExperiment:
    def test_fair_link_rescues_rpc(self):
        from repro.experiments import run_network_isolation

        fifo = run_network_isolation("fifo")
        fair = run_network_isolation("fair")
        assert fair.rpc_response_s < 0.5 * fifo.rpc_response_s
        assert fair.rpc_wait_ms < 0.25 * fifo.rpc_wait_ms
        # The bulk transfer barely notices.
        assert fair.bulk_response_s < 1.1 * fifo.bulk_response_s

    def test_goodput_unaffected_by_fairness(self):
        from repro.experiments import run_network_isolation

        fifo = run_network_isolation("fifo")
        fair = run_network_isolation("fair")
        assert abs(fair.goodput_mbps - fifo.goodput_mbps) < 5.0


# --- differential checks against the list-based reference ---------------
#
# The reference keeps every queued packet in one list and lets the
# policy scan all of it, as the link did before it kept a FIFO per SPU.
# It is slow and obviously right; the per-SPU link must transmit the
# same packets in the same order at the same times.


def reference_select(policy, queue, now, ledger):
    """The packet ``policy`` sends next, by a scan of the whole queue."""
    oldest = min(queue, key=lambda p: p.packet_id)
    if policy.name == "fifo":
        return oldest
    active = sorted({p.spu_id for p in queue})
    ratios = {s: ledger.usage_ratio(s, now) for s in active}
    if policy.name == "fair":
        neediest = min(ratios, key=lambda s: (ratios[s], s))
        return min((p for p in queue if p.spu_id == neediest),
                   key=lambda p: p.packet_id)
    if len(active) <= 1:
        return oldest
    mean = sum(ratios.values()) / len(active)
    passing = {s for s in active if ratios[s] <= mean + policy.threshold}
    candidates = [p for p in queue if p.spu_id in passing] or list(queue)
    return min(candidates, key=lambda p: p.packet_id)


class ReferenceLink(NetworkLink):
    """The link with one packet list, scanned by ``reference_select``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue = []

    def _enqueue(self, packet):
        packet.enqueue_time = self.engine.now
        self.queue.append(packet)
        if not self.busy:
            self._start_next()

    def _start_next(self):
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        packet = reference_select(self.scheduler, self.queue,
                                  self.engine.now, self.ledger)
        self.queue.remove(packet)
        packet.start_time = self.engine.now
        self.engine.call_after(self.transmit_us(packet.nbytes),
                               self._complete, packet)

    def queue_depth(self):
        return len(self.queue)


class TableLedger:
    """Usage ratios read from a table, moving on with every charge.

    Few distinct values make ties common; 939.149... is a ratio whose
    mean over three SPUs rounds below it (no SPU passes a zero
    threshold)."""

    def __init__(self, table):
        self.table = table
        self.charges = 0

    def usage_ratio(self, spu_id, now):
        return self.table[(self.charges * 5 + spu_id) % len(self.table)]

    def charge(self, spu_id, nbytes, now):
        self.charges += 1


RATIOS = st.lists(
    st.sampled_from([0.0, 1.0, 2.5, 1000.0, 939.1491627785106]),
    min_size=1, max_size=12,
)
POLICIES = st.one_of(
    st.builds(FifoLinkScheduler),
    st.builds(FairShareLinkScheduler),
    st.builds(ThresholdFairLinkScheduler,
              st.sampled_from([0.0, 0.5, 2.0, 16384.0])),
)


@given(policy=POLICIES, spus=st.lists(st.integers(1, 4), min_size=1, max_size=12),
       ratios=RATIOS, order=st.randoms(use_true_random=False))
# No SPU passes: the mean of the three equal ratios rounds below them.
@example(policy=ThresholdFairLinkScheduler(0.0), spus=[3, 1, 2],
         ratios=[939.1491627785106], order=random.Random(0))
def test_select_matches_reference_scan(policy, spus, ratios, order):
    """Selecting from per-SPU heads picks the packet the full scan picks."""
    queue = [packet(s) for s in spus]  # made, so numbered, in arrival order
    ledger = TableLedger(ratios)
    expected = reference_select(policy, queue, 0, ledger)
    order.shuffle(queue)  # the scan must not depend on list order
    heads = heads_of(*queue)
    assert heads[policy.select(heads, 0, ledger)] is expected


SENDS = st.lists(
    st.tuples(st.integers(0, 400),  # gap before the send, us
              st.integers(1, 4),  # SPU
              st.integers(1, 3 * MTU_BYTES)),  # message bytes
    min_size=1, max_size=25,
)


def transmissions(link_cls, policy, ratios, sends):
    engine = Engine(seed=0)
    link = link_cls(engine, policy, TableLedger(ratios),
                    bandwidth_mbps=100.0, per_packet_overhead_us=5)
    depths = []
    now = 0
    for index, (gap, spu, nbytes) in enumerate(sends):
        now += gap
        engine.call_at(now, link.send, spu, nbytes, None, index)
        engine.call_at(now, lambda: depths.append(link.queue_depth()))
    engine.run()
    return depths, [(p.pid, p.spu_id, p.nbytes, p.start_time, p.finish_time)
                    for p in link.stats.completed]


@settings(max_examples=150, deadline=None)
@given(policy=POLICIES, ratios=RATIOS, sends=SENDS)
def test_link_matches_reference_link(policy, ratios, sends):
    """Same sends, same ratios: same packets, order, times and depths."""
    got = transmissions(NetworkLink, policy, ratios, sends)
    assert got == transmissions(ReferenceLink, policy, ratios, sends)
