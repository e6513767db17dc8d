"""The filesystem facade the process model calls into.

Reads go through the buffer cache with sequential read-ahead; writes
are delayed (dirtied in the cache, flushed by the writeback daemon).
All completion is callback-based: the kernel blocks a process on a
syscall and passes a continuation that makes it runnable again.

Memory pressure shows up here exactly as in the paper's runs: when a
writer's SPU has no page headroom left, the writer blocks while its
dirty blocks are flushed ("the buffer cache fills up causing writes to
the disk", Section 4.5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.disk.drive import DiskDrive
from repro.disk.request import DiskOp, DiskRequest
from repro.fs.buffercache import BlockKey, BufferCache
from repro.fs.layout import File, Volume
from repro.fs.readahead import ReadAheadTracker
from repro.fs.writeback import WritebackDaemon
from repro.sim.engine import Engine
from repro.sim.units import PAGE_SIZE, SEC, SECTORS_PER_PAGE

Callback = Callable[[], None]


class FileSystemError(RuntimeError):
    """Raised for out-of-range accesses and bad mounts."""


class FileSystem:
    """Buffer-cached filesystem over one or more disk drives."""

    __slots__ = (
        "engine",
        "cache",
        "read_cluster_sectors",
        "readahead",
        "_mounts",
        "_files",
        "_inflight",
        "writeback",
    )

    def __init__(
        self,
        engine: Engine,
        cache: BufferCache,
        readahead_blocks: int = 16,
        read_cluster_sectors: int = 128,
        writeback_period: int = 1 * SEC,
        writeback_cluster_sectors: int = 128,
    ):
        if read_cluster_sectors < SECTORS_PER_PAGE:
            raise FileSystemError("read cluster must hold at least one block")
        self.engine = engine
        self.cache = cache
        self.read_cluster_sectors = read_cluster_sectors
        self.readahead = ReadAheadTracker(readahead_blocks)
        self._mounts: List[Tuple[DiskDrive, Volume]] = []
        self._files: Dict[int, Tuple[File, DiskDrive]] = {}
        #: Blocks with a disk read in flight, and their waiters.
        self._inflight: Dict[BlockKey, List[Callback]] = {}
        self.writeback = WritebackDaemon(
            engine,
            cache,
            self._resolve,
            period=writeback_period,
            max_cluster_sectors=writeback_cluster_sectors,
        )

    # --- mounts and files ------------------------------------------------------

    def mount(self, drive: DiskDrive, volume: Volume) -> int:
        """Attach a drive+volume pair; returns the mount index."""
        self._mounts.append((drive, volume))
        return len(self._mounts) - 1

    def retarget_drive(self, dead: int, replacement: int) -> None:
        """Point a dead mount's volume and files at a surviving drive.

        Called by the kernel on permanent drive failure (the mirrored
        pair failover of :meth:`Kernel.fail_disk`): every file that
        lived on the dead drive is served by the replacement from now
        on.  Sector addresses are kept verbatim, so the replacement
        must be at least as large as the dead volume — a mirror is a
        same-geometry copy, not a resize.
        """
        try:
            dead_drive, volume = self._mounts[dead]
            new_drive, _ = self._mounts[replacement]
        except IndexError:
            raise FileSystemError(
                f"bad retarget {dead} -> {replacement}"
            ) from None
        if new_drive.geometry.total_sectors < volume.total_sectors:
            raise FileSystemError(
                f"mount {replacement} ({new_drive.geometry.total_sectors}"
                f" sectors) too small to mirror mount {dead}'s volume"
                f" of {volume.total_sectors} sectors"
            )
        self._mounts[dead] = (new_drive, volume)
        for file_id, (file, drive) in list(self._files.items()):
            if drive is dead_drive:
                self._files[file_id] = (file, new_drive)

    def start_daemons(self) -> None:
        """Start the periodic writeback daemon."""
        self.writeback.start()

    def create(
        self,
        mount: int,
        name: str,
        size_bytes: int,
        fragmented: bool = False,
        extent_sectors: int = 16,
        at_sector: Optional[int] = None,
    ) -> File:
        """Create and register a file on the given mount."""
        try:
            drive, volume = self._mounts[mount]
        except IndexError:
            raise FileSystemError(f"no mount {mount}") from None
        if fragmented:
            file = volume.allocate_fragmented(name, size_bytes, extent_sectors)
        else:
            file = volume.allocate_contiguous(name, size_bytes, at_sector=at_sector)
        self._files[file.file_id] = (file, drive)
        return file

    def _resolve(self, file_id: int) -> Tuple[File, DiskDrive]:
        try:
            return self._files[file_id]
        except KeyError:
            raise FileSystemError(f"unknown file id {file_id}") from None

    def drive_of(self, file: File) -> DiskDrive:
        return self._resolve(file.file_id)[1]

    # --- reads -----------------------------------------------------------------

    def read(
        self,
        pid: int,
        spu_id: int,
        file: File,
        offset: int,
        nbytes: int,
        on_done: Callback,
    ) -> None:
        """Read a byte range; ``on_done`` fires when all blocks are in."""
        self._check_range(file, offset, nbytes)
        drive = self.drive_of(file)
        first_block = offset // PAGE_SIZE
        last_block = (offset + nbytes - 1) // PAGE_SIZE
        state = {"remaining": 0, "issued": False}

        def arrived() -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0 and state["issued"]:
                on_done()

        missing: List[int] = []
        for block in range(first_block, last_block + 1):
            key = (file.file_id, block)
            if self.cache.lookup(key, spu_id) is not None:
                continue
            if key in self._inflight:
                state["remaining"] += 1
                self._inflight[key].append(arrived)
            else:
                missing.append(block)

        for cluster in self._cluster(file, missing, self.read_cluster_sectors):
            state["remaining"] += len(cluster)
            self._issue_read(drive, file, cluster, spu_id, pid, waiter=arrived)

        # Read-ahead: prefetch asynchronously, waking nobody.
        prefetch = self.readahead.observe(
            (pid, file.file_id), first_block, last_block - first_block + 1, file.nblocks
        )
        prefetch = [
            b
            for b in prefetch
            if (file.file_id, b) not in self._inflight
            and not self.cache.contains((file.file_id, b))
        ]
        for cluster in self._cluster(file, prefetch, self.read_cluster_sectors):
            self._issue_read(drive, file, cluster, spu_id, pid, waiter=None)

        state["issued"] = True
        if state["remaining"] == 0:
            self.engine.call_after(0, on_done)  # simlint: dynamic=continuation

    def _cluster(
        self, file: File, blocks: List[int], max_sectors: int
    ) -> List[List[int]]:
        """Split block numbers into physically contiguous clusters."""
        clusters: List[List[int]] = []
        current: List[int] = []
        last_sector = None
        for block in blocks:
            sector = file.block_sector(block)
            contiguous = last_sector is not None and sector == last_sector + SECTORS_PER_PAGE
            fits = (len(current) + 1) * SECTORS_PER_PAGE <= max_sectors
            if current and contiguous and fits:
                current.append(block)
            else:
                if current:
                    clusters.append(current)
                current = [block]
            last_sector = sector
        if current:
            clusters.append(current)
        return clusters

    def _issue_read(
        self,
        drive: DiskDrive,
        file: File,
        cluster: List[int],
        spu_id: int,
        pid: int,
        waiter: Optional[Callback],
    ) -> None:
        for block in cluster:
            self._inflight[(file.file_id, block)] = [waiter] if waiter else []

        def complete(req: DiskRequest) -> None:
            for block in cluster:
                key = (file.file_id, block)
                if not req.failed and not self.cache.contains(key):
                    # Insertion failure means the data is streamed
                    # through uncached; the read still completes.  A
                    # failed read caches nothing — waiters proceed with
                    # whatever error handling the caller models.
                    self.cache.insert(key, spu_id, dirty=False, now=self.engine.now)
                for wake in self._inflight.pop(key, []):
                    wake()  # simlint: dynamic=continuation

        drive.submit(
            DiskRequest(
                spu_id=spu_id,
                op=DiskOp.READ,
                sector=file.block_sector(cluster[0]),
                nsectors=len(cluster) * SECTORS_PER_PAGE,
                on_complete=complete,
                pid=pid,
            )
        )

    # --- writes --------------------------------------------------------------

    def write(
        self,
        pid: int,
        spu_id: int,
        file: File,
        offset: int,
        nbytes: int,
        on_done: Callback,
    ) -> None:
        """Delayed write: dirty the covered blocks, block on memory pressure."""
        self._check_range(file, offset, nbytes)
        first_block = offset // PAGE_SIZE
        last_block = (offset + nbytes - 1) // PAGE_SIZE
        blocks = list(range(first_block, last_block + 1))

        def write_from(i: int) -> None:
            while i < len(blocks):
                key = (file.file_id, blocks[i])
                if self.cache.lookup(key, spu_id) is not None:
                    self.cache.mark_dirty(key, self.engine.now)
                    i += 1
                    continue
                if key in self._inflight:
                    # A read (likely prefetch) is bringing the block in;
                    # wait for it, then overwrite.  These continuation
                    # lambdas capture the per-iteration index, so they
                    # cannot be hoisted out of the loop; each one is
                    # allocated at most once per blocked block.
                    index = i
                    self._inflight[key].append(lambda: write_from(index))  # simlint: disable=SL402
                    return
                if self.cache.insert(key, spu_id, dirty=True, now=self.engine.now):
                    i += 1
                    continue
                # Memory pressure: flush and retry, then fall back to
                # writing through uncached.
                index = i
                if self.cache.dirty_blocks(spu_id):
                    self.writeback.flush_spu(spu_id, on_done=lambda: write_from(index))  # simlint: disable=SL402
                    return
                if self.cache.dirty_blocks():
                    self.writeback.flush_all(on_done=lambda: write_from(index))  # simlint: disable=SL402
                    return
                self._write_through(file, blocks[i], spu_id, pid, lambda: write_from(index + 1))  # simlint: disable=SL402
                return
            self.engine.call_after(0, on_done)  # simlint: dynamic=continuation

        write_from(0)

    def _write_through(
        self, file: File, block: int, spu_id: int, pid: int, then: Callback
    ) -> None:
        self.drive_of(file).submit(
            DiskRequest(
                spu_id=spu_id,
                op=DiskOp.WRITE,
                sector=file.block_sector(block),
                nsectors=SECTORS_PER_PAGE,
                on_complete=lambda _req: then(),
                pid=pid,
            )
        )

    def write_metadata(self, pid: int, spu_id: int, file: File, on_done: Callback) -> None:
        """Synchronous one-sector metadata update (pmake's hot sector)."""
        self.drive_of(file).submit(
            DiskRequest(
                spu_id=spu_id,
                op=DiskOp.WRITE,
                sector=file.metadata_sector,
                nsectors=1,
                on_complete=lambda _req: on_done(),
                pid=pid,
            )
        )

    # --- helpers -----------------------------------------------------------

    @staticmethod
    def _check_range(file: File, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise FileSystemError(f"access must cover >= 1 byte, got {nbytes}")
        if offset < 0 or offset + nbytes > file.size_bytes:
            raise FileSystemError(
                f"range [{offset}, +{nbytes}) outside {file.name!r}"
                f" of {file.size_bytes} bytes"
            )
