"""Unit tests for the buffer cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SHARED_SPU_ID
from repro.fs import BufferCache, UnlimitedPageProvider


@pytest.fixture
def cache():
    return BufferCache(UnlimitedPageProvider(capacity_pages=4))


class TestProvider:
    def test_allocates_until_capacity(self):
        provider = UnlimitedPageProvider(2)
        assert provider.try_allocate(1)
        assert provider.try_allocate(2)
        assert not provider.try_allocate(1)

    def test_free_returns_capacity(self):
        provider = UnlimitedPageProvider(1)
        provider.try_allocate(1)
        provider.free(1)
        assert provider.try_allocate(2)

    def test_free_without_pages_raises(self):
        with pytest.raises(ValueError):
            UnlimitedPageProvider(1).free(1)

    def test_transfer_moves_charge(self):
        provider = UnlimitedPageProvider(2)
        provider.try_allocate(1)
        assert provider.transfer(1, 2)
        assert provider.by_spu[1] == 0
        assert provider.by_spu[2] == 1

    def test_transfer_without_source_fails(self):
        assert not UnlimitedPageProvider(2).transfer(1, 2)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            UnlimitedPageProvider(0)


class TestInsertLookup:
    def test_miss_then_hit(self, cache):
        assert cache.lookup((1, 0), spu_id=5) is None
        cache.insert((1, 0), spu_id=5, dirty=False, now=0)
        block = cache.lookup((1, 0), spu_id=5)
        assert block is not None
        assert block.spu_charged == 5

    def test_hit_ratio(self, cache):
        cache.lookup((1, 0), 5)
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.lookup((1, 0), 5)
        assert cache.hit_ratio == 0.5

    def test_double_insert_rejected(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        with pytest.raises(ValueError):
            cache.insert((1, 0), 5, dirty=False, now=0)

    def test_second_spu_access_marks_shared(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        block = cache.lookup((1, 0), spu_id=6)
        assert block.spu_charged == SHARED_SPU_ID
        assert cache.provider.by_spu[SHARED_SPU_ID] == 1
        assert cache.provider.by_spu[5] == 0

    def test_shared_block_stays_shared(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.lookup((1, 0), 6)
        cache.lookup((1, 0), 5)
        assert cache.blocks[(1, 0)].spu_charged == SHARED_SPU_ID


class TestEviction:
    def test_lru_clean_evicted_when_full(self, cache):
        for block_no in range(4):
            cache.insert((1, block_no), 5, dirty=False, now=0)
        cache.lookup((1, 0), 5)  # freshen block 0; block 1 is now LRU
        assert cache.insert((1, 9), 5, dirty=False, now=1) is not None
        assert not cache.contains((1, 1))
        assert cache.contains((1, 0))

    def test_dirty_blocks_not_evicted(self, cache):
        for block_no in range(4):
            cache.insert((1, block_no), 5, dirty=True, now=0)
        assert cache.insert((1, 9), 5, dirty=False, now=1) is None

    def test_same_spu_evicted_first(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)  # SPU 5's old block
        for block_no in range(1, 4):
            cache.insert((1, block_no), 6, dirty=False, now=0)
        cache.insert((1, 9), 5, dirty=False, now=1)
        assert not cache.contains((1, 0))  # 5's block went, not 6's

    def test_pinned_blocks_survive(self, cache):
        for block_no in range(4):
            block = cache.insert((1, block_no), 5, dirty=False, now=0)
            block.pinned = True
        assert cache.insert((1, 9), 5, dirty=False, now=1) is None

    def test_public_evict_clean(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        assert cache.evict_clean(5)
        assert cache.size() == 0

    def test_evict_clean_wrong_spu_fails(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        assert not cache.evict_clean(6)

    def test_remove_frees_page(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.remove((1, 0))
        assert cache.provider.used == 0

    def test_cleaned_block_keeps_its_old_lru_position(self, cache):
        # Writeback cleans a block without touching it: it is evicted
        # before the blocks touched after it, not treated as fresh.
        cache.insert((1, 0), 5, dirty=True, now=0)
        for block_no in range(1, 4):
            cache.insert((1, block_no), 5, dirty=False, now=1)
        cache.mark_clean((1, 0))
        assert cache.insert((1, 9), 5, dirty=False, now=2) is not None
        assert not cache.contains((1, 0))
        assert cache.contains((1, 1))

    def test_recharged_block_is_most_recent_shared(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.insert((1, 1), 6, dirty=False, now=0)
        cache.lookup((1, 1), spu_id=5)  # shared first
        cache.lookup((1, 0), spu_id=6)  # shared second: the MRU shared block
        assert cache.evict_clean(SHARED_SPU_ID)
        assert cache.contains((1, 0))
        assert not cache.contains((1, 1))
        assert cache.provider.by_spu[SHARED_SPU_ID] == 1


class TestDirtyTracking:
    def test_mark_dirty_and_clean(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.mark_dirty((1, 0), now=10)
        assert cache.dirty_count() == 1
        assert cache.blocks[(1, 0)].dirty_since == 10
        cache.mark_clean((1, 0))
        assert cache.dirty_count() == 0

    def test_mark_dirty_bumps_epoch(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        epoch0 = cache.blocks[(1, 0)].epoch
        cache.mark_dirty((1, 0), 1)
        cache.mark_dirty((1, 0), 2)
        assert cache.blocks[(1, 0)].epoch == epoch0 + 2

    def test_redirty_keeps_original_dirty_since(self, cache):
        cache.insert((1, 0), 5, dirty=True, now=3)
        cache.mark_dirty((1, 0), now=10)
        assert cache.blocks[(1, 0)].dirty_since == 3

    def test_dirty_blocks_oldest_first(self, cache):
        cache.insert((1, 1), 5, dirty=True, now=5)
        cache.insert((1, 0), 5, dirty=True, now=2)
        assert [b.block for b in cache.dirty_blocks()] == [0, 1]

    def test_dirty_blocks_filter_by_spu(self, cache):
        cache.insert((1, 0), 5, dirty=True, now=0)
        cache.insert((1, 1), 6, dirty=True, now=0)
        assert [b.spu_charged for b in cache.dirty_blocks(6)] == [6]

    def test_pinned_dirty_excluded(self, cache):
        block = cache.insert((1, 0), 5, dirty=True, now=0)
        block.pinned = True
        assert cache.dirty_blocks() == []


class ReferenceCache:
    """The obviously-correct O(n) LRU: explicit access stamps and a
    ``min`` over every candidate on each eviction."""

    class Block:
        def __init__(self, spu_charged, dirty, last_access):
            self.spu_charged = spu_charged
            self.dirty = dirty
            self.pinned = False
            self.last_access = last_access

    def __init__(self, provider):
        self.provider = provider
        self.blocks = {}
        self.clock = 0

    def tick(self):
        self.clock += 1
        return self.clock

    def lookup(self, key, spu_id):
        block = self.blocks.get(key)
        if block is None:
            return None
        block.last_access = self.tick()
        if block.spu_charged not in (spu_id, SHARED_SPU_ID):
            if self.provider.transfer(block.spu_charged, SHARED_SPU_ID):
                block.spu_charged = SHARED_SPU_ID
        return block

    def insert(self, key, spu_id, dirty):
        if not self.provider.try_allocate(spu_id):
            if not (self.evict_clean(spu_id) and self.provider.try_allocate(spu_id)):
                if not (self.evict_clean(None) and self.provider.try_allocate(spu_id)):
                    return None
        self.blocks[key] = block = self.Block(spu_id, dirty, self.tick())
        return block

    def evict_clean(self, spu_id):
        candidates = [
            (b.last_access, key)
            for key, b in self.blocks.items()
            if not b.dirty and not b.pinned
            and (spu_id is None or b.spu_charged == spu_id)
        ]
        if not candidates:
            return False
        self.remove(min(candidates)[1])
        return True

    def remove(self, key):
        self.provider.free(self.blocks.pop(key).spu_charged)


SPUS = (2, 3, 4)
# Inserts and lookups are drawn three times as often as each other kind,
# so sequences build up enough clean blocks for the LRU order to matter.
KINDS = ("insert",) * 3 + ("lookup",) * 3 + (
    "mark_dirty", "mark_clean", "pin", "evict", "remove")
#: Every operation draws every argument; each kind uses the ones it takes.
OPS = st.tuples(
    st.sampled_from(KINDS),
    st.tuples(st.integers(0, 1), st.integers(0, 2)),  # key
    st.sampled_from(SPUS),  # accessing SPU
    st.booleans(),  # dirty on insert, pinned for pin
    st.sampled_from((None, SHARED_SPU_ID) + SPUS),  # eviction target
)


@given(capacity=st.integers(1, 6), ops=st.lists(OPS, min_size=20, max_size=100))
@settings(max_examples=200, deadline=None)
def test_matches_reference_lru(capacity, ops):
    """The dict-ordered LRU picks exactly the victims of the O(n) scan."""
    fast = BufferCache(UnlimitedPageProvider(capacity))
    ref = ReferenceCache(UnlimitedPageProvider(capacity))
    for now, (kind, key, spu, flag, target) in enumerate(ops):
        if kind == "insert":
            if key in ref.blocks:
                continue
            got = fast.insert(key, spu, dirty=flag, now=now)
            assert (got is None) == (ref.insert(key, spu, flag) is None)
        elif kind == "lookup":
            assert (fast.lookup(key, spu) is None) == (ref.lookup(key, spu) is None)
        elif kind == "evict":
            assert fast.evict_clean(target) == ref.evict_clean(target)
        elif key in ref.blocks:
            if kind == "mark_dirty":
                fast.mark_dirty(key, now)
                ref.blocks[key].dirty = True
            elif kind == "mark_clean":
                fast.mark_clean(key)
                ref.blocks[key].dirty = False
            elif kind == "pin":
                fast.blocks[key].pinned = ref.blocks[key].pinned = flag
            else:
                fast.remove(key)
                ref.remove(key)
        assert_same(fast, ref)
    # Drain: the remaining clean, unpinned blocks leave in the same order.
    while ref.evict_clean(None):
        assert fast.evict_clean(None)
        assert_same(fast, ref)
    assert not fast.evict_clean(None)


def assert_same(fast, ref):
    assert set(fast.blocks) == set(ref.blocks)
    for key, block in ref.blocks.items():
        assert fast.blocks[key].spu_charged == block.spu_charged
    assert fast.provider.by_spu == ref.provider.by_spu
