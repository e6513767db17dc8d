"""Span recorder for the benchmark's traced pass.

The recorder wraps the public entry points of each simulator layer
(listed in ``TARGETS``) from outside the package: it replaces class
attributes and module-level function bindings with timing wrappers on
``install()`` and puts the originals back on ``restore()``.  Nothing
inside ``src/`` is edited or imported differently, and the wrappers
return exactly what the wrapped call returned, so a traced run produces
the same result bytes as an untraced one (the benchmark checks this).

Every wrapped call is one span: name, start, end (``perf_counter_ns``)
and the index of the enclosing span.  Spans are kept in memory as four
parallel ``array('q')`` columns and written out by ``write()`` at the
end (up to ``MAX_SPANS``).  A span's self time is its duration minus the time covered by its
child spans; the recorder also accumulates self time per name while it
runs, so the layer totals do not need a second pass over the spans.

A few entry points also feed counters read from their arguments and
return values (buffer-cache hits, failed inserts, denied page
allocations, engine events); evictions are ``BufferCache.remove`` calls
made from inside ``insert``/``evict_clean``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Set, Tuple

#: Spans kept in memory (32 bytes each).  Later calls still count
#: toward the per-name totals; only their individual spans are dropped.
MAX_SPANS = 2_000_000

#: Wrap every public plain function a class (or subclass) defines.
PUBLIC = None

#: (metric group, "module:Class" or "module:function", method names).
#: A class entry also covers every subclass that overrides the methods.
TARGETS: Tuple[Tuple[str, str, Optional[Tuple[str, ...]]], ...] = (
    ("fs.cache", "repro.fs.buffercache:BufferCache",
     ("lookup", "contains", "insert", "evict_clean", "remove",
      "mark_dirty", "mark_clean", "dirty_count", "size")),
    ("fs.writeback", "repro.fs.buffercache:BufferCache", ("dirty_blocks",)),
    ("fs.writeback", "repro.fs.writeback:WritebackDaemon",
     ("flush_all", "flush_spu")),
    ("fs.io", "repro.fs.filesystem:FileSystem",
     ("read", "write", "write_metadata", "create")),
    ("disk", "repro.disk.drive:DiskDrive", ("submit",)),
    ("disk", "repro.disk.schedulers:DiskScheduler", ("select",)),
    ("disk", "repro.disk.model:service_time", None),
    ("sim", "repro.sim.engine:Engine", ("run",)),
    ("cpu", "repro.cpu.scheduler:CpuScheduler", PUBLIC),
    ("cpu", "repro.cpu.partition:CpuPartition", ("tick",)),
    ("core", "repro.core.resources:ResourceLevels", PUBLIC),
    ("core", "repro.core.policy:SharingPolicy", PUBLIC),
    ("mem", "repro.mem.manager:MemoryManager", PUBLIC),
    ("mem", "repro.mem.pageout:PageoutDaemon", ("scan",)),
    ("mem", "repro.mem.sharing:MemorySharingDaemon", ("rebalance",)),
    ("net", "repro.net.link:NetworkLink", ("send",)),
    ("net", "repro.net.schedulers:LinkScheduler", ("select",)),
    ("sanitizer", "repro.sanitizer:SimSanitizer", ("check",)),
    ("kernel", "repro.api.spec:build", None),
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


class SpanRecorder:
    """Times calls into the simulator's layers; see the module docstring."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.names: List[str] = []
        self.groups: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        # Span columns: name id, start, end, parent index (-1 = root).
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        # Open spans: [span index, name id, ns covered by children].
        self._stack: List[list] = []
        self.counters: Dict[str, int] = {
            "fs.hits": 0, "fs.insert_failed": 0, "fs.evictions": 0,
            "mem.denied": 0, "sim.events": 0,
        }
        self._patches: List[Tuple[object, str, object]] = []
        self._evicting: Set[int] = set()

    # --- wrapping ---------------------------------------------------------

    def _id(self, name: str, group: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return sid

    def _wrap(self, fn: Callable, sid: int,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns

        limit = self.max_spans

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(names)
            if index < limit:
                names.append(sid)
                parents.append(parent[0] if parent is not None else -1)
                ends.append(0)
            else:
                index = -1
            frame = [index, sid, 0]
            stack.append(frame)
            start = clock()
            if index >= 0:
                starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if index >= 0:
                    ends[index] = end
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                calls[sid] += 1
                self_ns[sid] += duration - frame[2]
                total_ns[sid] += duration
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        span.__wrapped__ = fn
        return span

    def _after(self, name: str) -> Optional[Callable]:
        counters = self.counters
        evicting = self._evicting
        if name == "BufferCache.lookup":
            def after(args, kwargs, result, parent):
                if result is not None:
                    counters["fs.hits"] += 1
        elif name == "BufferCache.insert":
            def after(args, kwargs, result, parent):
                if result is None:
                    counters["fs.insert_failed"] += 1
        elif name == "BufferCache.remove":
            def after(args, kwargs, result, parent):
                if parent is not None and parent[1] in evicting:
                    counters["fs.evictions"] += 1
        elif name == "MemoryManager.try_allocate":
            def after(args, kwargs, result, parent):
                if not result:
                    counters["mem.denied"] += 1
        elif name == "MemoryManager.try_allocate_n":
            def after(args, kwargs, result, parent):
                wanted = kwargs["n"] if "n" in kwargs else args[2]
                counters["mem.denied"] += wanted - result
        elif name == "Engine.run":
            def after(args, kwargs, result, parent):
                counters["sim.events"] += result
        else:
            return None
        return after

    def install(self) -> None:
        """Wrap every target; import the modules first so the subclass
        walk and the function-binding scan see the whole package."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        for group, target, methods in TARGETS:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            obj = getattr(module, attr)
            if isinstance(obj, type):
                for cls in _subclasses(obj):
                    for name, fn in list(vars(cls).items()):
                        if not callable(fn) or isinstance(fn, type) \
                                or name.startswith("_") \
                                or not hasattr(fn, "__code__"):
                            continue
                        if methods is not PUBLIC and name not in methods:
                            continue
                        self._patch(cls, name, fn, f"{obj.__name__}.{name}", group)
            else:
                self._patch_function(obj, attr, group)
        self._evicting.update(
            self._ids[n] for n in ("BufferCache.insert", "BufferCache.evict_clean")
        )

    def _patch(self, owner: object, attr: str, fn: Callable,
               name: str, group: str) -> None:
        sid = self._id(name, group)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, sid, self._after(name)))

    def _patch_function(self, fn: Callable, attr: str, group: str) -> None:
        """Replace every module-level binding of ``fn`` (``from x import
        fn`` copies the reference into the importing module)."""
        sid = self._id(attr, group)
        wrapper = self._wrap(fn, sid, self._after(attr))
        for module in list(sys.modules.values()):
            if module is not None and getattr(module, attr, None) is fn:
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def by_group(self) -> Dict[str, Dict[str, float]]:
        """Calls and self seconds summed per metric group."""
        out: Dict[str, Dict[str, float]] = {}
        for sid, group in enumerate(self.groups):
            g = out.setdefault(group, {"calls": 0, "self_s": 0.0})
            g["calls"] += self.calls[sid]
            g["self_s"] += self.self_ns[sid] / 1e9
        return out

    def calls_of(self, name: str) -> int:
        sid = self._ids.get(name)
        return self.calls[sid] if sid is not None else 0

    def total_s(self, name: str) -> float:
        sid = self._ids.get(name)
        return self.total_ns[sid] / 1e9 if sid is not None else 0.0

    def dropped(self) -> int:
        return sum(self.calls) - len(self.span_name)

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the four raw int64
        columns (name id, start ns, end ns, parent index)."""
        header = {
            "format": "perfbench-spans/1",
            "spans": len(self.span_name),
            "spans_dropped": self.dropped(),
            "names": self.names,
            "groups": self.groups,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start,
                           self.span_end, self.span_parent):
                column.tofile(fh)
