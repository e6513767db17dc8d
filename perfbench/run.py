"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_repro|interactive|fuzz_campaign|all
        --seed N --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout; the simulator is imported from
``src/``.  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json`` (plus ``failed_ratio`` and, on ``paper_repro``,
``paper_err_pct``), ``--trace 1`` every per-layer metric.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (for ``--workload all``, one such object per
workload).  ``--record FILE`` appends the run, with its seed and the
metrics outside ``BENCHMARK.json``, for ``perfbench/compare.py``.

This launcher imports nothing from the simulator.  Each measurement
runs in a fresh ``measure.py`` process, so that process's peak RSS is
the workload's and its set-up time starts at process start; for
``setup_s`` the launcher also starts ``SETUP_PROBES`` set-up-only
processes and reports the median.  Exit status is 0 only when a result
was printed; a missing ``src/repro`` or a measurement that fails or
outlives ``DEADLINE_S`` exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_repro", "interactive", "fuzz_campaign")
SETUP_PROBES = 8
#: Wall-clock budget for one workload's measurement, launcher included.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``measure.py`` and return the JSON object on its last line."""
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp,
               PYTHONPATH=os.path.join(ROOT, "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a measurement")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), *args,
             "--t0", repr(t0), "--tmp", tmp],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=timeout,
            universal_newlines=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"measurement exceeded {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measure.py exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, args, spec: Dict[str, Any]) -> Dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(args.seed)]
    run = child(common + ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
    metrics: Dict[str, float] = dict(run["metrics"])
    if not args.trace:
        setups = [run]
        for _ in range(SETUP_PROBES):
            setups.append(child(common + ["--setup-only"], deadline))
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        metrics["peak_rss_mb"] = run["peak_rss_mb"]
        run["setup_s_each"] = [r["setup_s"] for r in setups]
        run["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    result = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    return {"result": result, "run": run}


def report(workload: str, trace: int, measured: Dict[str, Any]) -> None:
    result, run = measured["result"], measured["run"]
    print(f"== {workload} ({'traced' if trace else 'untraced'};"
          f" reference {'pinned' if run['pinned'] else 'not pinned: repeats compared'})")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        ratio = result["failed"] / result["attempted"]
        print(f"{workload} failed_ratio = {ratio:.6g} ratio"
              f" ({result['failed']}/{result['attempted']} cells)")
        if "paper_err_pct" in run:
            print(f"{workload} paper_err_pct = {run['paper_err_pct']:.6g} pp"
                  " (Fig. 2/3/7 bars vs the paper; Table 3/4 absolute"
                  " seconds are not validated)")
        print(f"{workload}: {run['passes']} pass(es), wall_s each"
              f" {[round(w, 3) for w in run['wall_s_each']]}, host"
              f" slower than the reference by"
              f" {[round(f, 2) for f in run['host_factor_each']]}")
        print(f"{workload} as measured, before scaling to the reference"
              f" speed: wall_s = {run['wall_s']:.6g} s, sim_events_per_s ="
              f" {run['sim_events_per_s']:.6g} 1/s, setup_s ="
              f" {run['setup_raw_s']:.6g} s")
    else:
        total = run["traced_wall_s"]
        shares = sorted(run["layer_self_s"].items(), key=lambda kv: -kv[1])
        print(f"{workload}: host time of the traced pass ({total:.3f} s,"
              f" {run['spans']} spans kept, {run['spans_dropped']} over the cap)"
              " by layer self time:")
        for layer, s in shares:
            print(f"  {layer:<13} {s:9.3f} s {100.0 * s / total:6.1f} %")
        other = total - sum(s for _, s in shares)
        print(f"  {'(outside)':<13} {other:9.3f} s {100.0 * other / total:6.1f} %"
              "  workload drivers and the benchmark loop")
        print("  sim.self_s includes kernel event handlers that have no"
              " public entry point of their own")
        if run["writeback_polls"]:
            print(f"  the writeback daemon's periodic flush_all ran"
                  f" {run['writeback_polls']} time(s)")
    for problem in run["problems"][:20]:
        print(f"{workload}: FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run to this JSONL file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in names:
            measured = measure(workload, args, spec)
            report(workload, args.trace, measured)
            results[workload] = measured["result"]
            if args.record:
                record = dict(measured, workload=workload, seed=args.seed,
                              trace=args.trace)
                with open(args.record, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
