"""Compare two sets of benchmark runs: parent (A) against change (B).

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds runs appended by ``run.py --record FILE``.  Run both
sides with the same ``--seconds`` and seeds, alternating which side
goes first (see README.md).  For every workload and end-to-end metric
this prints each side's median and quartiles, the share of pairs B won
(runs paired by workload, seed and order; ties count for neither), and
one verdict:

* ``improved`` — over at least ten pairs, B wins at least 90% of them
  and the medians differ, in B's favour, by more than A's own spread
  (its interquartile distance);
* ``unresolved`` — the spread of either side is wider than the metric's
  bound in ``BENCHMARK.json``, unless every B run beats every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``no worse`` — otherwise.

Traced runs (``--trace 1``) add the per-layer self-time medians and
their change, which show where a saving appeared.  B failing more cells
than A is reported on its own line and voids any ``improved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def pairs(a: List[dict], b: List[dict]) -> List[Tuple[dict, dict]]:
    """Pair runs with the same workload and seed, in recorded order."""
    queue: Dict[Tuple[str, int], List[dict]] = defaultdict(list)
    for run in a:
        queue[(run["workload"], run["seed"])].append(run)
    out = []
    for run in b:
        waiting = queue.get((run["workload"], run["seed"]))
        if waiting:
            out.append((waiting.pop(0), run))
    return out


def verdict(va: List[float], vb: List[float], won: float,
            bound: float, higher: bool) -> str:
    a1, am, a3 = quartiles(va)
    b1, bm, b3 = quartiles(vb)
    gain = (bm - am) if higher else (am - bm)
    if won >= 0.9 and gain > a3 - a1:
        return "improved"
    all_better = (min(vb) > max(va)) if higher else (max(vb) < min(va))
    if ((a3 - a1) / am > bound or (b3 - b1) / bm > bound) and not all_better:
        return "unresolved"
    if -gain > bound * am:
        return "worse"
    return "no worse"


def end_to_end(a: List[dict], b: List[dict], spec: dict) -> None:
    print("end-to-end (tracing off)")
    print(f"{'workload':<14} {'metric':<17} {'A median [q1, q3]':<34}"
          f" {'B median [q1, q3]':<34} {'B won':>6}  verdict")
    matched = pairs(a, b)
    for workload in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        ra = [r for r in a if r["workload"] == workload]
        rb = [r for r in b if r["workload"] == workload]
        wp = [(x, y) for x, y in matched if x["workload"] == workload]
        fa = sum(r["result"]["failed"] for r in ra)
        fb = sum(r["result"]["failed"] for r in rb)
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"

            def value(run, name=name):
                return run["result"]["metrics"][name]["value"]

            va, vb = [value(r) for r in ra], [value(r) for r in rb]
            wins = sum(
                (value(y) > value(x)) if higher else (value(y) < value(x))
                for x, y in wp
            )
            won = wins / len(wp) if wp else 0.0
            v = verdict(va, vb, won, m["bound"], higher)
            if v == "improved" and fb > fa:
                v = "unresolved (B failed more cells)"
            elif v == "improved" and len(wp) < 10:
                v = "unresolved (fewer than 10 pairs)"
            print(f"{workload:<14} {name:<17} {spread(va):<34}"
                  f" {spread(vb):<34} {won:>6.0%}  {v}")
        print(f"{workload:<14} {'failed cells':<17} A {fa} of"
              f" {sum(r['result']['attempted'] for r in ra)},"
              f" B {fb} of {sum(r['result']['attempted'] for r in rb)}"
              f" ({len(ra)} and {len(rb)} runs, {len(wp)} pairs)")


def layers(a: List[dict], b: List[dict], spec: dict) -> None:
    timed = [m["name"] for m in spec["per_layer"] if m["unit"] == "s"]
    for workload in sorted({r["workload"] for r in a} & {r["workload"] for r in b}):
        ra = [r for r in a if r["workload"] == workload]
        rb = [r for r in b if r["workload"] == workload]
        print(f"\nper-layer host seconds, {workload}"
              f" ({len(ra)} A and {len(rb)} B traced runs; medians)")
        rows = []
        for name in timed:
            ma = statistics.median(r["result"]["metrics"][name]["value"] for r in ra)
            mb = statistics.median(r["result"]["metrics"][name]["value"] for r in rb)
            if ma or mb:
                rows.append((mb - ma, name, ma, mb))
        for delta, name, ma, mb in sorted(rows, key=lambda r: r[0]):
            pct = f"{100.0 * delta / ma:+.1f}%" if ma else "new"
            print(f"  {name:<28} {ma:10.4f} -> {mb:10.4f}  {delta:+.4f} s ({pct})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    a, b = load(argv[0]), load(argv[1])
    end_to_end([r for r in a if not r["trace"]],
               [r for r in b if not r["trace"]], spec)
    layers([r for r in a if r["trace"]], [r for r in b if r["trace"]], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
