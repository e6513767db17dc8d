"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC --tmp DIR [--setup-only]

``--t0`` is the launcher's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` runs
from process start to the first timed call: interpreter start, imports,
the experiment registry, the pinned reference and, for
``fuzz_campaign``, forking a worker pool.

Untraced (``--trace 0``): passes of the workload's fixed work repeat
while the next one, judged by the last, should end within ``--seconds``
(at least one pass, never cut short); ``wall_ref_s`` is the mean
seconds per pass and ``sim_events_per_ref_s`` the events over the
seconds of all passes, each pass's seconds (and the set-up's) scaled
to the reference host speed that ``hostspeed.py`` samples.  Traced
(``--trace 1``): one untraced pass, then one pass with the span
recorder installed; the layer metrics come from the traced pass,
``trace.overhead_pct`` compares the two, and every pass must match the
pinned fingerprints (or, for an unpinned seed, the first pass).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def load_reference(workload: str, key: str) -> Optional[Dict[str, str]]:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload].get(key)


class Checker:
    """Counts attempted and failed cells over every pass of a run."""

    def __init__(self, pinned: Optional[Dict[str, str]]):
        self.pinned = pinned
        self.first: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, label: str, p) -> None:
        expected = self.pinned if self.pinned is not None else self.first
        self.attempted += len(p.cells)
        for cell, value in sorted(p.cells.items()):
            wrong = expected is not None and expected.get(cell) != value
            if cell in p.bad or wrong:
                self.failed += 1
                self.problems.append(
                    f"{label}: cell {cell} = {value}"
                    + (f", expected {expected.get(cell)}" if wrong else "")
                )
        if expected is not None:
            for cell in sorted(set(expected) - set(p.cells)):
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"{label}: cell {cell} missing")
        if self.first is None:
            self.first = dict(p.cells)

    def note(self, problem: str) -> None:
        self.problems.append(problem)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its waited-for
    children (the pool workers); ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def untraced(workloads, args, checker: Checker) -> Dict[str, Any]:
    from hostspeed import HostSpeed

    passes: List[Any] = []
    factors: List[float] = []
    start = time.perf_counter()
    # Another pass only if it should end within --seconds, judging by
    # the last one; each starts from a collected heap, so the previous
    # pass's simulation is neither held in memory nor collected inside
    # the timed region.
    while not passes or (time.perf_counter() - start + passes[-1].wall_s
                         <= args.seconds):
        gc.collect()
        with HostSpeed() as speed:
            p = workloads.run_pass(args.workload, args.seed, args.tmp)
        checker.add(f"pass {len(passes)}", p)
        passes.append(p)
        factors.append(speed.factor())
    # Whole-run means, not medians over passes: a shared host's speed
    # can flip between a fast and a slow state every second or so; the
    # median of a few passes then jumps between the two states, while
    # the mean over the run averages them.
    walls = [p.wall_s for p in passes]
    ref_walls = [w / f for w, f in zip(walls, factors)]
    events = sum(p.events for p in passes)
    out: Dict[str, Any] = {
        "passes": len(passes),
        "wall_s_each": walls,
        "host_factor_each": factors,
        "metrics": {
            "wall_ref_s": sum(ref_walls) / len(passes),
            "sim_events_per_ref_s": events / sum(ref_walls),
        },
        "wall_s": sum(walls) / len(passes),
        "sim_events_per_s": events / sum(walls),
        "events": passes[0].events,
    }
    if passes[0].paper_err_pct is not None:
        out["paper_err_pct"] = passes[0].paper_err_pct
    return out


def layer_metrics(rec, traced_wall_s: float) -> Dict[str, float]:
    g = rec.by_group()
    c = rec.counters

    def self_s(group: str) -> float:
        return g.get(group, {}).get("self_s", 0.0)

    def calls(group: str) -> int:
        return int(g.get(group, {}).get("calls", 0))

    lookups = rec.calls_of("BufferCache.lookup")
    fs_self = self_s("fs.cache") + self_s("fs.io") + self_s("fs.writeback")
    events = c["sim.events"]
    return {
        "fs.lookups": lookups,
        "fs.hit_ratio": c["fs.hits"] / lookups if lookups else 0.0,
        "fs.inserts": rec.calls_of("BufferCache.insert"),
        "fs.evictions": c["fs.evictions"],
        "fs.insert_failed": c["fs.insert_failed"],
        "fs.cache_self_s": self_s("fs.cache"),
        "fs.io_self_s": self_s("fs.io"),
        "fs.writeback_self_s": self_s("fs.writeback"),
        "fs.io_calls": calls("fs.io"),
        "fs.share_pct": 100.0 * fs_self / traced_wall_s,
        "disk.submits": rec.calls_of("DiskDrive.submit"),
        "disk.selects": rec.calls_of("DiskScheduler.select"),
        "disk.self_s": self_s("disk"),
        "sim.events": events,
        "sim.runs": rec.calls_of("Engine.run"),
        "sim.self_s": self_s("sim"),
        "sim.us_per_event": 1e6 * self_s("sim") / events if events else 0.0,
        "cpu.calls": calls("cpu"),
        "cpu.self_s": self_s("cpu"),
        "core.set_allowed_calls": rec.calls_of("ResourceLevels.set_allowed"),
        "core.self_s": self_s("core"),
        "mem.calls": calls("mem"),
        "mem.denied": c["mem.denied"],
        "mem.self_s": self_s("mem"),
        "kernel.build_calls": rec.calls_of("build"),
        "kernel.build_s": rec.total_s("build"),
        "net.sends": rec.calls_of("NetworkLink.send"),
        "net.self_s": self_s("net"),
        "sanitizer.checks": rec.calls_of("SimSanitizer.check"),
        "sanitizer.self_s": self_s("sanitizer"),
    }


def layer_mix(workload: str, m: Dict[str, float], sweeps: List[Any],
              workers: int) -> List[str]:
    """Fail the run if a workload stops exercising, or stops bypassing,
    the layers it was chosen for."""
    bad = []
    if workload == "interactive":
        io = m["fs.lookups"] + m["fs.inserts"] + m["fs.io_calls"]
        if io or m["disk.submits"] or m["disk.selects"] or m["net.sends"]:
            bad.append("interactive called fs/disk/net")
    elif workload == "paper_repro":
        if not m["fs.evictions"] > 0:
            bad.append("paper_repro made no buffer-cache evictions")
        if not m["net.sends"] > 0:
            bad.append("paper_repro sent nothing on the network")
    elif workload == "fuzz_campaign":
        used = sorted({s.workers for s in sweeps})
        if workers > 1 and used != [workers]:
            bad.append(f"fuzz_campaign used {used} workers, not {workers}")
        if not m["sanitizer.checks"] > 0:
            bad.append("fuzz_campaign ran no sanitizer checks")
    return bad


def traced(workloads, args, checker: Checker) -> Dict[str, Any]:
    from tracing import SpanRecorder

    sweeps: List[Any] = []
    forks = 0
    if args.workload == "fuzz_campaign":
        with workloads.sweep_stats_probe() as seen:
            campaign = workloads.fuzz_campaign(args.seed, args.tmp)
        checker.add("campaign pass", campaign)
        sweeps, forks = seen["stats"], seen["forks"]
        run = workloads.fuzz_in_process
    else:
        def run(seed):
            return workloads.run_pass(args.workload, seed, args.tmp)
    gc.collect()
    plain = run(args.seed)
    checker.add("untraced pass", plain)
    gc.collect()
    rec = SpanRecorder()
    rec.install()
    try:
        traced_pass = run(args.seed)
    finally:
        rec.restore()
    checker.add("traced pass", traced_pass)
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))

    m = layer_metrics(rec, traced_pass.wall_s)
    m["parallel.dispatch_s"] = sum(s.dispatch_s for s in sweeps)
    m["parallel.compute_s"] = sum(s.compute_s for s in sweeps)
    m["parallel.merge_s"] = sum(s.merge_s for s in sweeps)
    m["parallel.retried_cells"] = sum(s.retried_cells for s in sweeps)
    m["parallel.forks"] = forks
    from repro.api import names
    for name in names():
        m[f"experiments.{name}_s"] = plain.experiment_s.get(name, 0.0)
    m["trace.overhead_pct"] = 100.0 * (traced_pass.wall_s / plain.wall_s - 1.0)
    for problem in layer_mix(args.workload, m, sweeps, workloads.fuzz_workers()):
        checker.note(problem)
    return {
        "metrics": m,
        "writeback_polls": rec.calls_of("WritebackDaemon.flush_all"),
        "layer_self_s": {k: v["self_s"] for k, v in rec.by_group().items()},
        "traced_wall_s": traced_pass.wall_s,
        "spans": len(rec.span_name),
        "spans_dropped": rec.dropped(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        import workloads

        workloads.setup(args.workload)
        pinned = load_reference(
            args.workload, workloads.pin_key(args.workload, args.seed))
        setup_raw_s = time.monotonic() - args.t0
    setup_s = setup_raw_s / speed.factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    checker = Checker(pinned)
    measure = traced if args.trace else untraced
    out = measure(workloads, args, checker)
    out.update(
        setup_s=setup_s,
        setup_raw_s=setup_raw_s,
        peak_rss_mb=peak_rss_mb(),
        pinned=pinned is not None,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
