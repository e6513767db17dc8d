"""The gates behind ``python -m repro.bench``.

One JSON artifact (``BENCH_parallel.json``, schema ``repro.bench/5``)
from three stages, each of which checks a determinism contract:

* **serial sweep** — every registered experiment run serially; its
  total wall clock (``serial_seconds``) is the base of the speedup
  gate, and a short sha256 digest of each experiment's canonical
  records is recorded.
* **sweep scaling** — the same sweep through
  :class:`repro.parallel.Executor` at increasing worker counts, with a
  byte-identity check (canonical JSON of every experiment's records)
  between the serial and parallel results, and the executor's own
  stage attribution (dispatch vs compute vs merge seconds) recorded
  per worker count.  Any result divergence is a determinism bug and
  fails the bench; so does a 4-worker speedup below ``--min-speedup``
  on a host with at least 4 CPUs.
* **fleet failover cells** — the smoke fleet (one whole-machine crash,
  SLO failover) per scheme, run in-process and through the sweep
  executor, with the same byte-identity requirement on the records.

Both parallel stages share one persistent
:class:`repro.parallel.WorkerPool`, so the bench pays the fork cost
once instead of once per stage; with ``--cache`` every sweep cell is
first looked up in the content-addressed sweep cache
(:class:`repro.parallel.SweepCache`), making a *warm* re-run skip all
experiment and fleet computation while producing byte-identical
digests.

Besides the gates the artifact records ``stages`` (per-stage wall
seconds), ``cache`` (hit/miss counts, ``hit_ratio``) and ``pool``
(processes forked, sweeps served).  Simulator speed is measured
elsewhere: ``perfbench/`` times the serial reproduction and the fuzz
campaign with interleaved A/B runs.  Schema ``/5`` dropped the
hot-path probes with their fixed events/s baselines, the per-figure
timings and the cache's closure-key counts.

Wall-clock numbers are hardware-dependent by nature; the JSON records
the host's CPU count alongside them so trajectories are only compared
like-for-like.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from typing import Any, Dict, List, Optional

from repro.api import ExperimentSpec, names, run_experiment
from repro.parallel import Executor, SweepCache, SweepPlan, WorkerPool, values

#: Worker counts the sweep-scaling stage measures.
SCALING_WORKERS = (2, 4)

#: Minimum acceptable 4-worker sweep speedup on a >=4-core host; CI
#: fails the bench below this (see ``python -m repro.bench --help``).
MIN_SPEEDUP = 1.2


def bench_experiments(
    sections: List[str], seed: int = 0, cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """The serial sweep: canonical records, digests and total seconds.

    With a ``cache``, each cell is answered from the store when its
    (name, seed, code) key is present — the warm-run fast path — and
    recorded on a miss; the result bytes are identical either way.
    """
    canonical: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    total = 0.0
    hits = 0
    executor = Executor(SweepPlan(max_workers=1), cache=cache)
    for name in sections:
        start = time.perf_counter()
        outcomes = executor.run(
            run_experiment, [ExperimentSpec(name=name, seed=seed)]
        )
        elapsed = time.perf_counter() - start
        result = values(outcomes)[0]
        hits += executor.stats.cache_hits
        total += elapsed
        canonical[name] = result.canonical_json()
        digests[name] = hashlib.sha256(
            canonical[name].encode("utf-8")
        ).hexdigest()[:16]
    return {"serial_seconds": round(total, 3),
            "canonical": canonical, "digests": digests, "cache_hits": hits}


def bench_sweep_scaling(
    sections: List[str],
    serial_canonical: Dict[str, str],
    seed: int = 0,
    workers: tuple = SCALING_WORKERS,
    pool: Optional[WorkerPool] = None,
    cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """The same sweep through the executor at each worker count.

    Results must match the serial run byte-for-byte; ``divergence``
    names any experiment whose canonical JSON differs.  Each worker
    count also records the executor's stage attribution — parent time
    dispatching work, summed worker compute time, parent time merging
    results — so dispatch/merge overhead has its own trajectory.
    ``pool`` shares worker processes across the ladder (and with the
    fleet stage); ``cache`` answers unchanged cells from the store
    (their bytes came from a pure run, so the identity check holds
    vacuously rather than falsely).
    """
    payloads = [ExperimentSpec(name=name, seed=seed) for name in sections]
    out: Dict[str, Any] = {"workers": {}, "divergence": []}
    for n in workers:
        executor = Executor(SweepPlan(max_workers=n), pool=pool, cache=cache)
        start = time.perf_counter()
        outcomes = executor.run(run_experiment, payloads)
        results = values(outcomes)
        elapsed = time.perf_counter() - start
        diverged = [
            r.name for r in results
            if r.canonical_json() != serial_canonical[r.name]
        ]
        stats = executor.stats
        out["workers"][str(n)] = {
            "seconds": round(elapsed, 3),
            "dispatch_s": round(stats.dispatch_s, 4),
            "compute_s": round(stats.compute_s, 4),
            "merge_s": round(stats.merge_s, 4),
            "batch_size": stats.batch_size,
            "retried_cells": stats.retried_cells,
            "pool_reuse": stats.pool_reuse,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        for name in diverged:
            if name not in out["divergence"]:
                out["divergence"].append(name)
    return out


def bench_fleet(
    seed: int = 0, workers: int = 2,
    pool: Optional[WorkerPool] = None, cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """Fleet failover cells through the sweep executor, serial vs parallel.

    Runs the smoke fleet (one whole-machine crash) per scheme twice —
    in-process and fanned across workers — and compares the records
    byte-for-byte.  ``divergence`` names any scheme whose parallel
    record differs from the serial one; any entry is a determinism bug.
    With a ``cache`` both legs share the same content addresses, so
    whichever leg runs first populates the store and the other is
    answered from it — the identity check then holds by construction
    (the cached bytes *are* a previous pure run's).  The honest
    serial-vs-worker comparison comes from uncached runs; CI keeps one.
    """
    from repro.fleet.__main__ import smoke_spec
    from repro.fleet.runner import run_fleet_record

    schemes = ("smp", "piso")
    payloads = [smoke_spec(scheme=s, seed=seed).to_dict() for s in schemes]
    serial_executor = Executor(SweepPlan(max_workers=1), cache=cache)
    start = time.perf_counter()
    serial = values(serial_executor.run(run_fleet_record, payloads))
    serial_s = time.perf_counter() - start
    serial_hits = serial_executor.stats.cache_hits
    executor = Executor(SweepPlan(max_workers=workers), pool=pool, cache=cache)
    start = time.perf_counter()
    outcomes = executor.run(run_fleet_record, payloads)
    parallel_s = time.perf_counter() - start
    parallel = values(outcomes)
    divergence = [
        scheme for scheme, a, b in zip(schemes, serial, parallel) if a != b
    ]
    return {
        "schemes": list(schemes),
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "digests": {r["scheme"]: r["digest"] for r in serial},
        "violations": sorted({v for r in serial for v in r["violations"]}),
        "divergence": divergence,
        "cache_hits": serial_hits + executor.stats.cache_hits,
        "pool_reuse": executor.stats.pool_reuse,
    }


def run_bench(
    quick: bool = False,
    seed: int = 0,
    workers: tuple = SCALING_WORKERS,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """The full bench; returns the ``BENCH_parallel.json`` payload.

    One :class:`WorkerPool` is shared by every sweep-shaped stage (the
    scaling ladder and the fleet cells) — the fork cost is paid once
    per bench, and ``pool.forks`` vs ``pool.runs_served`` in the
    payload shows the reuse.  ``cache=True`` opens the sweep cache and
    threads it through every stage.
    """
    sections = names(quick_only=quick)

    sweep_cache = SweepCache(cache_dir) if cache else None
    pool = WorkerPool(max_workers=max(tuple(workers) + (2,)))
    stages: Dict[str, float] = {}
    try:
        start = time.perf_counter()
        serial = bench_experiments(sections, seed=seed, cache=sweep_cache)
        stages["experiments"] = round(time.perf_counter() - start, 3)

        start = time.perf_counter()
        scaling = bench_sweep_scaling(
            sections, serial["canonical"], seed=seed, workers=workers,
            pool=pool, cache=sweep_cache,
        )
        stages["sweep"] = round(time.perf_counter() - start, 3)

        start = time.perf_counter()
        fleet = bench_fleet(seed=seed, pool=pool, cache=sweep_cache)
        stages["fleet"] = round(time.perf_counter() - start, 3)
        pool_payload = {"forks": pool.forks, "runs_served": pool.runs_served}
    finally:
        pool.shutdown()

    serial_s = serial["serial_seconds"]
    for stats in scaling["workers"].values():
        stats["speedup"] = round(serial_s / max(stats["seconds"], 1e-9), 2)

    if sweep_cache is not None:
        cache_stats = sweep_cache.stats_dict()
        probed = cache_stats["hits"] + cache_stats["misses"]
        cache_payload = {
            "enabled": True,
            "dir": sweep_cache.root,
            "hit_ratio": round(cache_stats["hits"] / probed, 4) if probed
            else 0.0,
        }
        cache_payload.update(cache_stats)
    else:
        cache_payload = {"enabled": False, "hits": 0, "misses": 0,
                         "errors": 0, "puts": 0, "hit_ratio": 0.0}

    return {
        "schema": "repro.bench/5",
        "quick": quick,
        "seed": seed,
        "experiments": {
            "sections": sections,
            "serial_seconds": serial_s,
            "digests": serial["digests"],
            "cache_hits": serial["cache_hits"],
        },
        "sweep": {
            "workers": scaling["workers"],
            "divergence": scaling["divergence"],
        },
        "fleet": fleet,
        "stages": stages,
        "cache": cache_payload,
        "pool": pool_payload,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }


def format_report(payload: Dict[str, Any]) -> str:
    lines = [
        f"serial sweep: {payload['experiments']['serial_seconds']}s over"
        f" {len(payload['experiments']['sections'])} experiments"
    ]
    for n, stats in payload["sweep"]["workers"].items():
        retried = stats.get("retried_cells", 0)
        lines.append(
            f"sweep at {n} workers: {stats['seconds']}s"
            f" ({stats['speedup']}x; host has {payload['host']['cpu_count']}"
            " CPUs" + (f"; {retried} cell(s) retried" if retried else "") + ")"
        )
        if "dispatch_s" in stats:
            lines.append(
                f"  stages: dispatch {stats['dispatch_s']}s,"
                f" compute {stats['compute_s']}s (worker-summed),"
                f" merge {stats['merge_s']}s"
                f" [batch={stats.get('batch_size', '?')}]"
            )
    divergence = payload["sweep"]["divergence"]
    lines.append(
        "serial-vs-parallel results: "
        + ("BYTE-IDENTICAL" if not divergence else f"DIVERGED: {divergence}")
    )
    fleet = payload.get("fleet")
    if fleet is not None:
        fleet_diverged = fleet["divergence"]
        lines.append(
            f"fleet failover cells ({'/'.join(fleet['schemes'])}):"
            f" serial {fleet['serial_seconds']}s,"
            f" parallel {fleet['parallel_seconds']}s; "
            + ("BYTE-IDENTICAL" if not fleet_diverged
               else f"DIVERGED: {fleet_diverged}")
            + (f"; violations: {fleet['violations']}"
               if fleet["violations"] else "")
        )
    pool = payload.get("pool")
    if pool is not None:
        lines.append(
            f"worker pool: {pool['forks']} process(es) forked for"
            f" {pool['runs_served']} sweep(s)"
        )
    cache = payload.get("cache")
    if cache is not None and cache.get("enabled"):
        lines.append(
            f"sweep cache: {cache['hits']} hit(s), {cache['misses']}"
            f" miss(es), {cache['puts']} stored"
            f" (hit ratio {cache['hit_ratio']:.0%})"
        )
    return "\n".join(lines)
