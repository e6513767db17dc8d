"""Golden records: result bytes pinned across commits.

Every other equivalence test compares two paths *within one commit*
(engine modes, serial against parallel), so a change that shifts every
path the same way -- a buffer cache that picks a different LRU victim,
say -- passes them all.  These tests compare against
``tests/golden/records.json``: the sha256 of every registered
experiment's canonical JSON at seeds 0 and 1, and the journal digest
and verdict of fuzz scenarios 0-9 (2000 ms horizon, SIMSAN on).  CI runs
them on every interpreter in its matrix, so they also assert that the
results match across interpreters.

When a change moves these bytes on purpose, regenerate the file with
``PYTHONPATH=src python tests/golden/rebless.py``, which prints every
record that changed.  Any rebless needs a CHANGES.md entry giving the
reason.
"""

import itertools

import pytest

import repro.disk.request
from repro.api import names
from tests.golden.rebless import (
    EXPERIMENT_SEEDS,
    FUZZ_HORIZON_US,
    FUZZ_SEEDS,
    experiment_digest,
    fuzz_record,
    load_records,
)

GOLDEN = load_records()

#: Seed 0 runs cell by cell in registry order; seed 1 runs in reversed
#: registry order in one test.
FORWARD_SEED, REVERSED_SEED = EXPERIMENT_SEEDS

REBLESS_HINT = (
    "result bytes moved; if on purpose, run "
    "`PYTHONPATH=src python tests/golden/rebless.py` and give the reason "
    "in CHANGES.md"
)


def test_every_registered_experiment_is_pinned():
    assert sorted(GOLDEN["experiments"]) == sorted(names())
    for name, seeds in GOLDEN["experiments"].items():
        assert sorted(seeds) == [str(s) for s in EXPERIMENT_SEEDS], name


def test_fuzz_settings_match_the_pins():
    fuzz = GOLDEN["fuzz"]
    assert fuzz["horizon_us"] == FUZZ_HORIZON_US and fuzz["simsan"] is True
    assert sorted(fuzz["scenarios"], key=int) == [str(s) for s in FUZZ_SEEDS]


@pytest.mark.parametrize("name", names())
def test_experiment_matches_golden(name):
    digest = experiment_digest(name, FORWARD_SEED)
    assert digest == GOLDEN["experiments"][name][str(FORWARD_SEED)], (
        f"{name} seed {FORWARD_SEED}: {REBLESS_HINT}"
    )


def test_reversed_registry_order_matches_golden():
    """History independence: running the registry backwards in one
    process must reproduce the goldens, which were made in registry
    order.  Module-global state that leaks from one experiment into the
    next (a process-wide counter, a cache) would make results depend on
    what ran earlier, and a pool worker that is reused across cells
    would then return different bytes than a fresh one."""
    mismatched = [
        name
        for name in reversed(names())
        if experiment_digest(name, REVERSED_SEED)
        != GOLDEN["experiments"][name][str(REVERSED_SEED)]
    ]
    assert not mismatched, (
        f"seed {REVERSED_SEED} in reversed order differs for {mismatched}. "
        "If rebless.py (registry order) reproduces the goldens, the "
        f"results depend on run order; otherwise {REBLESS_HINT}"
    )


def test_disk_request_ids_do_not_reach_the_results(monkeypatch):
    """History independence of the one process-wide counter left:
    ``DiskRequest.request_id`` comes from a module-level
    ``itertools.count`` that every run in a process shares.  The disk
    schedulers only use ids for relative order, so starting the count
    far from 1 -- as in a reused pool worker -- must not move a
    disk-bound experiment's bytes."""
    monkeypatch.setattr(
        repro.disk.request, "_request_ids", itertools.count(10**9)
    )
    first = next(repro.disk.request._request_ids)
    digest = experiment_digest("table4", FORWARD_SEED)
    assert next(repro.disk.request._request_ids) - first > 100, (
        "table4 no longer issues disk requests; pick a disk-bound experiment"
    )
    assert digest == GOLDEN["experiments"]["table4"][str(FORWARD_SEED)], (
        f"table4 seed {FORWARD_SEED} depends on the request-id counter's "
        "starting value"
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_scenario_matches_golden(seed):
    assert fuzz_record(seed) == GOLDEN["fuzz"]["scenarios"][str(seed)], (
        f"fuzz seed {seed}: {REBLESS_HINT}"
    )
