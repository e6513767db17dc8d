"""Regenerate the golden records that ``tests/test_golden.py`` pins.

Run from the repository root::

    PYTHONPATH=src python tests/golden/rebless.py

It recomputes every record, rewrites ``records.json`` next to this file
and prints each experiment/seed, fuzz seed and chaos-profile seed whose
digest or verdict changed.  Re-blessing is how a change that moves result bytes on
purpose says so: every rebless needs a CHANGES.md entry that gives the
reason the bytes moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable

from repro.api import ExperimentSpec, names, run_experiment
from repro.fuzz.generate import generate_chaos_scenario, generate_scenario
from repro.fuzz.runner import run_scenario

#: Where the pinned records live.
RECORDS_PATH = Path(__file__).with_name("records.json")

#: Every registered experiment is pinned at these seeds.
EXPERIMENT_SEEDS = (0, 1)

#: Fuzz scenarios pinned by journal digest: the CI fuzz job's first
#: seeds, at its horizon, with SIMSAN on.
FUZZ_SEEDS = tuple(range(10))
FUZZ_HORIZON_US = 2_000_000

#: Chaos-profile scenarios pinned the same way: the CI SIMSAN chaos
#: soak's seeds and horizon.
CHAOS_SEEDS = tuple(range(5))
CHAOS_HORIZON_US = 1_500_000


def experiment_digest(name: str, seed: int) -> str:
    """sha256 of one experiment's canonical JSON."""
    result = run_experiment(ExperimentSpec(name=name, seed=seed))
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


def fuzz_record(seed: int) -> Dict[str, str]:
    """Journal digest and verdict of one generated fuzz scenario."""
    result = run_scenario(
        generate_scenario(seed, horizon_us=FUZZ_HORIZON_US), simsan=True
    )
    return {"digest": result.digest(), "verdict": result.verdict}


def chaos_record(seed: int) -> Dict[str, str]:
    """Journal digest and verdict of one chaos-profile scenario."""
    result = run_scenario(
        generate_chaos_scenario(seed, horizon_us=CHAOS_HORIZON_US), simsan=True
    )
    return {"digest": result.digest(), "verdict": result.verdict}


def compute_records() -> Dict[str, Any]:
    """Every pinned record, computed fresh in registry order."""
    experiments: Dict[str, Dict[str, str]] = {}
    for name in names():
        experiments[name] = {
            str(seed): experiment_digest(name, seed) for seed in EXPERIMENT_SEEDS
        }
    return {
        "experiments": experiments,
        "fuzz": {
            "horizon_us": FUZZ_HORIZON_US,
            "simsan": True,
            "scenarios": {str(seed): fuzz_record(seed) for seed in FUZZ_SEEDS},
        },
        "chaos": {
            "horizon_us": CHAOS_HORIZON_US,
            "simsan": True,
            "scenarios": {str(seed): chaos_record(seed) for seed in CHAOS_SEEDS},
        },
    }


def load_records() -> Dict[str, Any]:
    with open(RECORDS_PATH) as f:
        return json.load(f)


def changed(old: Dict[str, Any], new: Dict[str, Any]) -> Iterable[str]:
    """Human-readable lines for every record that differs."""
    old_exp, new_exp = old.get("experiments", {}), new["experiments"]
    for name in sorted(set(old_exp) | set(new_exp)):
        for seed in sorted(set(old_exp.get(name, {})) | set(new_exp.get(name, {}))):
            before = old_exp.get(name, {}).get(seed)
            after = new_exp.get(name, {}).get(seed)
            if before != after:
                yield f"experiment {name} seed {seed}: {before} -> {after}"
    for section in ("fuzz", "chaos"):
        before = old.get(section, {}).get("scenarios", {})
        after = new[section]["scenarios"]
        for seed in sorted(set(before) | set(after), key=int):
            if before.get(seed) != after.get(seed):
                yield (f"{section} seed {seed}:"
                       f" {before.get(seed)} -> {after.get(seed)}")


def main() -> int:
    old = load_records() if RECORDS_PATH.exists() else {}
    new = compute_records()
    lines = list(changed(old, new))
    with open(RECORDS_PATH, "w") as f:
        json.dump(new, f, indent=2, sort_keys=True)
        f.write("\n")
    for line in lines:
        print(line)
    print(f"{len(lines)} record(s) changed; wrote {RECORDS_PATH.name}")
    if lines:
        print("Record the reason for this rebless in CHANGES.md.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
