"""``python -m repro.bench`` — the sweep determinism and speedup gates.

Writes ``BENCH_parallel.json`` (serial sweep seconds and record
digests, sweep scaling with per-stage overhead, fleet failover cells)
and exits 1 if the serial and parallel sweeps or fleet cells ever
disagree on results, or — on a host with at least 4 CPUs — if the
4-worker sweep speedup falls below ``--min-speedup``.  On smaller
hosts the speedup gate prints a warning and is skipped: with fewer
cores than workers there is no parallelism to measure, only
oversubscription.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.bench import MIN_SPEEDUP, SCALING_WORKERS, format_report, run_bench


def main(argv: List[str] = sys.argv[1:]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Check the parallel sweep executor against serial"
        " runs (byte identity, speedup); write BENCH_parallel.json.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fast subset: quick experiments only",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base RNG seed for every measured run (default: 0)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker count for the sweep-scaling stage, matching the"
        " other subcommands (0 = auto: measure the standard"
        f" {'/'.join(str(w) for w in SCALING_WORKERS)}-worker ladder)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default="BENCH_parallel.json",
        help="where to write the results (default: BENCH_parallel.json)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail if the 4-worker sweep speedup is below this on a"
        f" >=4-core host (default: {MIN_SPEEDUP}; 0 disables the gate)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="answer unchanged sweep cells from the content-addressed"
        " sweep cache; a warm re-run then skips every experiment and"
        " fleet computation (default: --no-cache)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep-cache store root (default: $REPRO_CACHE_DIR or"
        " .repro-cache)",
    )
    args = parser.parse_args(argv)

    workers = SCALING_WORKERS if args.workers == 0 else (args.workers,)
    payload = run_bench(quick=args.quick, seed=args.seed, workers=workers,
                        cache=args.cache, cache_dir=args.cache_dir)
    with open(args.json, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    print(format_report(payload))
    print(f"written to {args.json}")
    diverged = (
        payload["sweep"]["divergence"]
        or payload.get("fleet", {}).get("divergence")
    )
    if diverged:
        return 1

    four = payload["sweep"]["workers"].get("4")
    if args.min_speedup > 0 and four is not None:
        cpus = payload["host"]["cpu_count"] or 1
        if payload["cache"]["hits"] > 0:
            print(
                "WARNING: speedup gate skipped — cells were answered from"
                " the sweep cache, so the scaling numbers measure the"
                " cache, not the workers"
            )
        elif cpus < 4:
            print(
                f"WARNING: speedup gate skipped — host has {cpus} CPU(s),"
                " fewer than the 4 workers measured"
            )
        elif four["speedup"] < args.min_speedup:
            print(
                f"FAIL: 4-worker sweep speedup {four['speedup']}x is below"
                f" the {args.min_speedup}x floor"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
