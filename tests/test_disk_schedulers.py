"""Unit tests for disk scheduling policies."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.disk import (
    BlindFairScheduler,
    CScanScheduler,
    DiskOp,
    DiskRequest,
    FairCScanScheduler,
    FifoScheduler,
    NullLedger,
    SstfScheduler,
    cscan_pick,
    make_scheduler,
    sstf_pick,
)
from repro.disk.schedulers import BACKGROUND_STARVATION_LIMIT


def req(spu_id: int, sector: int, n: int = 8, enq: int = 0) -> DiskRequest:
    request = DiskRequest(spu_id=spu_id, op=DiskOp.READ, sector=sector, nsectors=n)
    request.enqueue_time = enq
    return request


class FakeLedger:
    """A ledger with fixed ratios and a designated background SPU."""

    def __init__(self, ratios, background=()):
        self.ratios = ratios
        self.background = set(background)

    def usage_ratio(self, spu_id, now):
        return self.ratios.get(spu_id, 0.0)

    def is_background(self, spu_id):
        return spu_id in self.background


class TestCScanPick:
    def test_picks_nearest_at_or_after_head(self):
        queue = [req(1, 100), req(1, 50), req(1, 70)]
        assert cscan_pick(queue, head_sector=60).sector == 70

    def test_wraps_to_lowest_when_nothing_ahead(self):
        queue = [req(1, 10), req(1, 30)]
        assert cscan_pick(queue, head_sector=100).sector == 10

    def test_exact_head_position_counts_as_ahead(self):
        queue = [req(1, 60), req(1, 80)]
        assert cscan_pick(queue, head_sector=60).sector == 60

    def test_tie_broken_by_arrival(self):
        first = req(1, 50)
        second = req(2, 50)
        assert cscan_pick([second, first], head_sector=0) is first

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError):
            cscan_pick([], 0)


class TestSstfPick:
    def test_picks_closest_either_side(self):
        queue = [req(1, 100), req(1, 40)]
        assert sstf_pick(queue, head_sector=50).sector == 40

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError):
            sstf_pick([], 0)


class TestSimpleSchedulers:
    def test_cscan_ignores_fairness(self):
        sched = CScanScheduler()
        queue = [req(1, 10), req(2, 90)]
        picked = sched.select(queue, 80, 0, FakeLedger({1: 0.0, 2: 100.0}))
        assert picked.spu_id == 2  # position wins despite SPU 2 hogging

    def test_fifo_is_arrival_order(self):
        first = req(2, 999)
        second = req(1, 0)
        sched = FifoScheduler()
        assert sched.select([second, first], 0, 0, NullLedger()) is first

    def test_sstf_scheduler(self):
        sched = SstfScheduler()
        queue = [req(1, 100), req(1, 11)]
        assert sched.select(queue, 10, 0, NullLedger()).sector == 11


class TestBlindFair:
    def test_picks_neediest_spu(self):
        sched = BlindFairScheduler()
        queue = [req(1, 0, enq=0), req(2, 999, enq=0)]
        ledger = FakeLedger({1: 10.0, 2: 1.0})
        assert sched.select(queue, 0, 0, ledger).spu_id == 2

    def test_fifo_within_spu(self):
        sched = BlindFairScheduler()
        first = req(2, 500)
        second = req(2, 5)
        ledger = FakeLedger({2: 0.0})
        assert sched.select([second, first], 0, 0, ledger) is first

    def test_background_spu_deferred(self):
        sched = BlindFairScheduler()
        queue = [req(1, 0, enq=0), req(9, 10, enq=0)]
        ledger = FakeLedger({1: 100.0, 9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 1

    def test_background_runs_when_alone(self):
        sched = BlindFairScheduler()
        queue = [req(9, 10, enq=0)]
        ledger = FakeLedger({9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 9

    def test_starved_background_joins_foreground(self):
        sched = BlindFairScheduler()
        old = req(9, 10, enq=0)
        fresh = req(1, 0, enq=BACKGROUND_STARVATION_LIMIT)
        ledger = FakeLedger({1: 100.0, 9: 0.0}, background={9})
        picked = sched.select([old, fresh], 0, BACKGROUND_STARVATION_LIMIT, ledger)
        assert picked.spu_id == 9


class TestFairCScan:
    def test_all_pass_when_balanced(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 5.0, 2: 5.0})
        assert sched.select(queue, 40, 0, ledger).sector == 50  # position order

    def test_hog_is_denied(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        # SPU 2's ratio exceeds the mean (52.5) by more than 10.
        ledger = FakeLedger({1: 5.0, 2: 100.0})
        assert sched.select(queue, 40, 0, ledger).spu_id == 1

    def test_single_spu_never_fails(self):
        sched = FairCScanScheduler(bw_difference_threshold=0.0)
        queue = [req(2, 50)]
        ledger = FakeLedger({2: 1e9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 2

    def test_zero_threshold_acts_round_robin(self):
        sched = FairCScanScheduler(bw_difference_threshold=0.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 1.0, 2: 1.1})
        # SPU 2 is even slightly above the mean -> denied.
        assert sched.select(queue, 40, 0, ledger).spu_id == 1

    def test_huge_threshold_degenerates_to_cscan(self):
        sched = FairCScanScheduler(bw_difference_threshold=1e12)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 0.0, 2: 1e9})
        assert sched.select(queue, 40, 0, ledger).sector == 50

    def test_eligible_exposes_passing_requests(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 5.0, 2: 100.0})
        assert {r.spu_id for r in sched.eligible(queue, 0, ledger)} == {1}

    def test_background_deferred_even_if_fair(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10, enq=0), req(9, 20, enq=0)]
        ledger = FakeLedger({1: 50.0, 9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            FairCScanScheduler(bw_difference_threshold=-1.0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("pos", CScanScheduler),
            ("iso", BlindFairScheduler),
            ("piso", FairCScanScheduler),
            ("fifo", FifoScheduler),
            ("sstf", SstfScheduler),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_scheduler("PIso"), FairCScanScheduler)

    def test_threshold_is_threaded(self):
        sched = make_scheduler("piso", bw_difference_threshold=7.0)
        assert sched.bw_difference_threshold == 7.0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_scheduler("elevator")


# --- brute-force reference --------------------------------------------------


def reference_select(policy, queue, head_sector, now, ledger):
    """Sort the whole queue by the policy's key and take the first.

    The background split (fairness policies) and PIso's threshold rule
    are applied literally, over the whole queue, before the sort."""
    candidates = list(queue)
    if policy.name in ("iso", "piso"):
        foreground = [
            r for r in candidates
            if not ledger.is_background(r.spu_id)
            or now - r.enqueue_time >= BACKGROUND_STARVATION_LIMIT
        ]
        candidates = foreground or candidates
    ratios = {s: ledger.usage_ratio(s, now)
              for s in sorted({r.spu_id for r in candidates})}
    if policy.name == "piso" and len(ratios) > 1:
        limit = sum(ratios.values()) / len(ratios) + policy.bw_difference_threshold
        candidates = [r for r in candidates if ratios[r.spu_id] <= limit] or candidates
    keys = {
        "fifo": lambda r: r.request_id,
        "sstf": lambda r: (abs(r.sector - head_sector), r.request_id),
        "pos": lambda r: (r.sector < head_sector, r.sector, r.request_id),
        "piso": lambda r: (r.sector < head_sector, r.sector, r.request_id),
        "iso": lambda r: (ratios[r.spu_id], r.spu_id, r.request_id),
    }
    return sorted(candidates, key=keys[policy.name])[0]


NOW = 2 * BACKGROUND_STARVATION_LIMIT
REQUESTS = st.lists(
    st.tuples(
        st.integers(0, 3),  # SPU
        st.integers(0, 200),  # start sector
        # enqueue time: fresh, just short of the starvation limit, at it
        st.sampled_from([NOW, NOW - BACKGROUND_STARVATION_LIMIT + 1,
                         NOW - BACKGROUND_STARVATION_LIMIT, 0]),
    ),
    min_size=1, max_size=12,
)
DISK_POLICIES = st.one_of(
    st.sampled_from(["pos", "fifo", "sstf", "iso"]).map(make_scheduler),
    st.builds(FairCScanScheduler, st.sampled_from([0.0, 0.5, 1.0, 256.0])),
)


@settings(max_examples=300, deadline=None)
@given(
    policy=DISK_POLICIES,
    requests=REQUESTS,
    head=st.integers(0, 210),
    ratios=st.dictionaries(
        st.integers(0, 3),
        st.sampled_from([0.0, 1.0, 2.0, 100.0, 939.1491627785106]),
    ),
    background=st.sets(st.integers(0, 3), max_size=2),
    order=st.randoms(use_true_random=False),
)
# A ratio exactly at mean + threshold passes.
@example(policy=FairCScanScheduler(1.0), requests=[(0, 50, NOW), (1, 100, NOW)],
         head=0, ratios={0: 2.0, 1: 0.0}, background=set(),
         order=random.Random(0))
def test_select_matches_brute_force_sort(
    policy, requests, head, ratios, background, order
):
    queue = [req(spu, sector, enq=enq) for spu, sector, enq in requests]
    order.shuffle(queue)
    ledger = FakeLedger(ratios, background)
    expected = reference_select(policy, queue, head, NOW, ledger)
    assert policy.select(queue, head, NOW, ledger) is expected
