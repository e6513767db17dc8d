"""Unit tests for the memory manager."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SPURegistry, piso_scheme, quota_scheme, smp_scheme
from repro.mem import MemoryManager


def build(scheme, total_pages=100, kernel_pages=10, nspus=2):
    registry = SPURegistry()
    spus = [registry.create(f"u{i}") for i in range(nspus)]
    manager = MemoryManager(
        registry, total_pages, scheme, kernel_pages=kernel_pages,
        rng=random.Random(1),
    )
    pool = manager.user_pool()
    share = pool // nspus
    for spu in spus:
        spu.memory().set_entitled(share)
        if not scheme.mem_limits:
            spu.memory().set_allowed(total_pages)
    return registry, manager, spus


class TestBoot:
    def test_kernel_pages_charged_at_boot(self):
        registry, manager, _ = build(piso_scheme())
        assert registry.kernel_spu.memory().used == 10
        assert manager.free_pages == 90

    def test_user_pool_excludes_kernel_and_shared(self):
        registry, manager, _ = build(piso_scheme())
        assert manager.user_pool() == 90
        manager.try_allocate(registry.shared_spu.spu_id)
        assert manager.user_pool() == 89

    def test_kernel_pages_must_fit(self):
        registry = SPURegistry()
        with pytest.raises(ValueError):
            MemoryManager(registry, 10, piso_scheme(), kernel_pages=10)

    def test_reserve_pages(self):
        _reg, manager, _ = build(piso_scheme())
        assert manager.reserve_pages == 8  # 8% of 100


class TestAllocation:
    def test_allocate_charges_spu(self):
        _reg, manager, (a, _b) = build(piso_scheme())
        assert manager.try_allocate(a.spu_id)
        assert a.memory().used == 1
        assert manager.free_pages == 89

    def test_free_uncharges(self):
        _reg, manager, (a, _b) = build(piso_scheme())
        manager.try_allocate(a.spu_id)
        manager.free(a.spu_id)
        assert a.memory().used == 0
        assert manager.free_pages == 90

    def test_denied_at_spu_cap_with_isolation(self):
        _reg, manager, (a, _b) = build(piso_scheme())
        for _ in range(45):
            assert manager.try_allocate(a.spu_id)
        assert not manager.try_allocate(a.spu_id)
        assert manager.free_pages == 45  # machine still has room

    def test_smp_ignores_spu_cap(self):
        _reg, manager, (a, _b) = build(smp_scheme())
        for _ in range(90):
            assert manager.try_allocate(a.spu_id)
        assert not manager.try_allocate(a.spu_id)  # machine is full

    def test_kernel_spu_never_capped_by_entitlement(self):
        registry, manager, _ = build(piso_scheme())
        for _ in range(50):
            assert manager.try_allocate(registry.kernel_spu.spu_id)

    def test_denials_counted_and_reset(self):
        _reg, manager, (a, _b) = build(piso_scheme())
        for _ in range(45):
            manager.try_allocate(a.spu_id)
        manager.try_allocate(a.spu_id)
        manager.try_allocate(a.spu_id)
        assert manager.take_denials() == {a.spu_id: 2}
        assert manager.take_denials() == {}


class TestTransfer:
    def test_transfer_moves_charge(self):
        registry, manager, (a, _b) = build(piso_scheme())
        manager.try_allocate(a.spu_id)
        assert manager.transfer(a.spu_id, registry.shared_spu.spu_id)
        assert a.memory().used == 0
        assert registry.shared_spu.memory().used == 1

    def test_transfer_without_source_fails(self):
        registry, manager, (a, _b) = build(piso_scheme())
        assert not manager.transfer(a.spu_id, registry.shared_spu.spu_id)

    def test_transfer_never_fails_on_destination_cap(self):
        registry, manager, (a, b) = build(piso_scheme())
        for _ in range(45):
            manager.try_allocate(a.spu_id)
            manager.try_allocate(b.spu_id)
        # b is at its cap, but marking a page shared-with-b must work.
        assert manager.transfer(a.spu_id, b.spu_id)


class TestVictimSelection:
    def test_capped_requester_steals_from_itself(self):
        _reg, manager, (a, _b) = build(piso_scheme())
        for _ in range(45):
            manager.try_allocate(a.spu_id)
        assert manager.victim_spu(a.spu_id) is a

    def test_borrower_is_revoked_first(self):
        _reg, manager, (a, b) = build(piso_scheme())
        # b borrows beyond its entitlement.
        b.memory().set_allowed(80)
        for _ in range(80):
            manager.try_allocate(b.spu_id)
        for _ in range(10):
            manager.try_allocate(a.spu_id)
        # Machine full; a is under cap and entitled -> b must pay.
        assert not manager.try_allocate(a.spu_id)
        assert manager.victim_spu(a.spu_id) is b

    def test_smp_victim_weighted_by_usage(self):
        _reg, manager, (a, b) = build(smp_scheme())
        for _ in range(80):
            manager.try_allocate(a.spu_id)
        for _ in range(10):
            manager.try_allocate(b.spu_id)
        picks = {manager.victim_spu(b.spu_id).spu_id for _ in range(50)}
        assert a.spu_id in picks  # the big holder gets hit

    def test_no_victims_when_nobody_holds(self):
        _reg, manager, (a, _b) = build(smp_scheme())
        assert manager.victim_spu(a.spu_id) is None


# --- bulk path against the per-page reference --------------------------------

#: Each step draws every argument; an op uses the ones it takes.  The
#: SPU index picks among two user SPUs, the kernel SPU and the shared
#: SPU (the last two are never capped).
BULK_OPS = st.tuples(
    st.sampled_from(("alloc", "alloc", "free", "allowed")),
    st.integers(0, 3),
    st.integers(0, 40),
)


def twin_spus(registry, spus):
    return list(spus) + [registry.kernel_spu, registry.shared_spu]


@given(limits=st.booleans(), ops=st.lists(BULK_OPS, min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_bulk_calls_match_single_page_calls(limits, ops):
    """``try_allocate_n``/``free_n`` against ``n`` single calls on a twin.

    The twins start identical (PIso or SMP, 100 pages, 10 kernel pages,
    user entitlement 5 so a PIso cap can shrink towards it).  After
    every step both machines must hold the same free pool and per-SPU
    usage, and grant the same number of pages.  The bulk call records
    no denial; the per-page loop records the one its first failure
    costs.
    """
    scheme = piso_scheme() if limits else smp_scheme()
    twins = []
    for _ in range(2):
        registry, manager, spus = build(scheme)
        for spu in spus:
            spu.memory().set_entitled(5)
            spu.memory().set_allowed(40 if limits else manager.total_pages)
        twins.append((manager, twin_spus(registry, spus)))
    (bulk, bulk_spus), (single, single_spus) = twins

    for op, index, n in ops:
        a, b = bulk_spus[index], single_spus[index]
        if op == "alloc":
            granted = bulk.try_allocate_n(a.spu_id, n)
            expected = 0
            while expected < n and single.try_allocate(b.spu_id):
                expected += 1
            assert granted == expected
        elif op == "free":
            n = min(n, a.memory().used)
            bulk.free_n(a.spu_id, n)
            for _ in range(n):
                single.free(b.spu_id)
        elif limits and a.is_user:
            # Shrink (or grow) the cap, never below entitled or used.
            value = max(a.memory().entitled, a.memory().used, n)
            a.memory().set_allowed(value)
            b.memory().set_allowed(value)
        assert bulk.free_pages == single.free_pages
        assert [s.memory().used for s in bulk_spus] == \
            [s.memory().used for s in single_spus]
        assert bulk.denials == {} and bulk.total_denials == {}
