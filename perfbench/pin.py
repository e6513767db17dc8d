"""Pin the benchmark's correctness reference for a range of seeds.

    python3 perfbench/pin.py --seeds 0-19 [--workload NAME ...]

Runs one untraced pass of each workload per seed and stores every
cell's fingerprint (events and result digest; verdict for fuzz cells)
in ``perfbench/reference.json``, keeping the seeds it does not run.
Refuses to pin a pass with a failed cell.  Re-pin only for a change
that is meant to alter simulated results, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from measure import REFERENCE

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append",
                        choices=workloads.NAMES)
    args = parser.parse_args(argv)

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    status = 0
    for workload in args.workload or workloads.NAMES:
        workloads.setup(workload)
        keys = set()
        for seed in args.seeds:
            key = workloads.pin_key(workload, seed)
            if key in keys:
                continue
            keys.add(key)
            gc.collect()
            p = workloads.run_pass(workload, seed, tmp)
            if p.bad:
                print(f"{workload} seed {seed}: not pinned, failed cells"
                      f" {', '.join(p.bad[:10])}", file=sys.stderr)
                status = 1
                continue
            reference["workloads"][workload][key] = p.cells
            print(f"{workload} seed {seed}: {len(p.cells)} cells,"
                  f" {p.events} events, {p.wall_s:.2f} s", flush=True)
        with open(REFERENCE, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
