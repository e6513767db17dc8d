"""The file buffer cache.

Cached blocks occupy physical pages, so every insertion goes through a
:class:`PageProvider` — in the full kernel that is the memory manager,
which enforces per-SPU page caps ("SPU memory usage also includes pages
used indirectly in the kernel on behalf of an SPU, such as the file
buffer cache", Section 3.2).  A block touched by a second SPU is
recharged to the ``shared`` SPU (Section 2.2 / 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.spu import SHARED_SPU_ID


class PageProvider(Protocol):
    """Where the cache gets its pages; implemented by the memory manager."""

    def try_allocate(self, spu_id: int) -> bool:
        """Try to charge one page to ``spu_id``; False if over cap/full."""
        ...

    def free(self, spu_id: int) -> None:
        """Return one page charged to ``spu_id``."""
        ...

    def transfer(self, from_spu: int, to_spu: int) -> bool:
        """Move one page's charge between SPUs (shared-page detection)."""
        ...


class UnlimitedPageProvider:
    """A provider with a fixed global capacity and no per-SPU caps.

    Lets the filesystem run standalone (disk-only experiments, unit
    tests) without the memory subsystem.
    """

    __slots__ = ("capacity_pages", "used", "by_spu")

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self.used = 0
        self.by_spu: Dict[int, int] = {}

    def try_allocate(self, spu_id: int) -> bool:
        if self.used >= self.capacity_pages:
            return False
        # Tie-break audit: +1/-1 on a counter commutes across
        # same-timestamp handlers, and the sanitizer's page-conservation
        # law re-checks the total after every event.
        self.used += 1  # simlint: disable=SL601
        self.by_spu[spu_id] = self.by_spu.get(spu_id, 0) + 1
        return True

    def free(self, spu_id: int) -> None:
        if self.by_spu.get(spu_id, 0) <= 0:
            raise ValueError(f"SPU {spu_id} holds no pages")
        # Tie-break audit: see try_allocate.
        self.used -= 1  # simlint: disable=SL601
        self.by_spu[spu_id] -= 1

    def transfer(self, from_spu: int, to_spu: int) -> bool:
        if self.by_spu.get(from_spu, 0) <= 0:
            return False
        self.by_spu[from_spu] -= 1
        self.by_spu[to_spu] = self.by_spu.get(to_spu, 0) + 1
        return True


BlockKey = Tuple[int, int]  # (file_id, logical block number)


@dataclass
class CacheBlock:
    """One page-sized cached file block."""

    file_id: int
    block: int
    spu_charged: int
    dirty: bool = False
    #: Dirtying time, for writeback ordering.
    dirty_since: int = -1
    #: Pinned while an I/O is in flight on the block.
    pinned: bool = False
    #: Bumped on every write so an in-flight flush can tell whether the
    #: block was re-dirtied while its write was on the wire.
    epoch: int = 0

    @property
    def key(self) -> BlockKey:
        return (self.file_id, self.block)


# One BufferCache per kernel; the per-block hot state is CacheBlock
# (a compact dataclass), not the cache object itself.
class BufferCache:  # simlint: disable=SL401
    """Page-granularity file cache with per-SPU charging and LRU eviction."""

    def __init__(self, provider: PageProvider):
        self.provider = provider
        #: Cached blocks in LRU order, least recently used first: insert
        #: appends and a lookup hit moves the block to the end.
        self.blocks: Dict[BlockKey, CacheBlock] = {}
        #: Counters for hit-ratio reporting.
        self.hits = 0
        self.misses = 0

    # --- lookup -----------------------------------------------------------

    def lookup(self, key: BlockKey, spu_id: int) -> Optional[CacheBlock]:
        """Find a block; updates LRU order and shared-page charging.

        On access by an SPU other than the one charged, the block is
        recharged to the ``shared`` SPU (first touch marks the page with
        the accessor's SPU; a second SPU's touch makes it shared).
        """
        block = self.blocks.get(key)
        if block is None:
            self.misses += 1
            return None
        self.hits += 1
        del self.blocks[key]
        self.blocks[key] = block
        if block.spu_charged not in (spu_id, SHARED_SPU_ID):
            if self.provider.transfer(block.spu_charged, SHARED_SPU_ID):
                block.spu_charged = SHARED_SPU_ID
        return block

    def contains(self, key: BlockKey) -> bool:
        return key in self.blocks

    # --- insertion & eviction ---------------------------------------------------

    def insert(self, key: BlockKey, spu_id: int, dirty: bool, now: int) -> Optional[CacheBlock]:
        """Insert a block charged to ``spu_id``.

        Tries, in order: plain allocation; evicting a clean block of the
        same SPU; evicting any clean block.  Returns ``None`` when no
        page could be obtained (all of the SPU's cache is dirty and the
        machine is out of pages) — the caller then streams the data or
        blocks on writeback.
        """
        if key in self.blocks:
            raise ValueError(f"block {key} already cached")
        if not self.provider.try_allocate(spu_id):
            if not (self._evict_clean(spu_id) and self.provider.try_allocate(spu_id)):
                if not (self._evict_clean(None) and self.provider.try_allocate(spu_id)):
                    return None
        block = CacheBlock(
            file_id=key[0],
            block=key[1],
            spu_charged=spu_id,
            dirty=dirty,
            dirty_since=now if dirty else -1,
        )
        self.blocks[key] = block
        return block

    def evict_clean(self, spu_id: Optional[int] = None) -> bool:
        """Evict one clean block (optionally one SPU's); public entry
        point for the kernel's page-stealing path."""
        return self._evict_clean(spu_id)

    def _evict_clean(self, spu_id: Optional[int]) -> bool:
        """Evict the LRU clean, unpinned block (optionally one SPU's).

        Walks from the LRU end, skipping dirty, pinned and other SPUs'
        blocks; ``mark_dirty``/``mark_clean`` leave a block's position
        alone, so a block cleaned by writeback keeps its old recency.
        """
        for key, block in self.blocks.items():
            if not block.dirty and not block.pinned and (
                spu_id is None or block.spu_charged == spu_id
            ):
                self.remove(key)  # returns at once: no iteration after the pop
                return True
        return False

    def remove(self, key: BlockKey) -> None:
        """Drop a block and return its page to the provider."""
        block = self.blocks.pop(key)
        self.provider.free(block.spu_charged)

    # --- dirty management ------------------------------------------------------

    def mark_dirty(self, key: BlockKey, now: int) -> None:
        block = self.blocks[key]
        block.epoch += 1
        if not block.dirty:
            block.dirty = True
            block.dirty_since = now

    def mark_clean(self, key: BlockKey) -> None:
        block = self.blocks[key]
        block.dirty = False
        block.dirty_since = -1

    def dirty_blocks(self, spu_id: Optional[int] = None) -> List[CacheBlock]:
        """Dirty, unpinned blocks (optionally only one SPU's), oldest first."""
        out = [
            b
            for b in self.blocks.values()
            if b.dirty and not b.pinned
            and (spu_id is None or b.spu_charged == spu_id)
        ]
        out.sort(key=lambda b: (b.dirty_since, b.file_id, b.block))
        return out

    def dirty_count(self) -> int:
        return sum(1 for b in self.blocks.values() if b.dirty)

    def size(self) -> int:
        return len(self.blocks)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
