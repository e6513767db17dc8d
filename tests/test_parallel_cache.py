"""The content-addressed sweep cache: keys, invalidation, byte identity."""

import dataclasses
import os

import pytest

import repro.parallel.cache as cache_mod
from repro.api import ExperimentSpec, run_experiment
from repro.parallel import Executor, SweepCache, SweepPlan, values
from repro.parallel.cache import canonical_payload


def _square(x):
    return x * x


def _count_calls(x):
    # Touches the filesystem so a cached hit (which must NOT run the
    # cell) is observable: the marker file is only created by a run.
    marker, value = x
    with open(marker, "a") as fh:
        fh.write("ran\n")
    return value * value


def _runs(marker):
    if not os.path.exists(marker):
        return 0
    with open(marker) as fh:
        return len(fh.readlines())


# --- key derivation ----------------------------------------------------------


def test_canonical_payload_tags_tuples_and_lists_apart():
    assert canonical_payload((1, 2)) != canonical_payload([1, 2])


def test_canonical_payload_tags_dataclass_types_apart():
    @dataclasses.dataclass
    class A:
        x: int = 1

    @dataclasses.dataclass
    class B:
        x: int = 1

    assert canonical_payload(A()) != canonical_payload(B())


def test_uncacheable_payloads_yield_no_key(tmp_path):
    cache = SweepCache(str(tmp_path))
    assert cache.key_for(_square, {1: "non-str key"}) is None
    assert cache.key_for(_square, {"fn": _square}) is None
    assert cache.key_for(_square, {"s": {1, 2}}) is None


def test_key_changes_with_spec_seed_and_fn(tmp_path):
    cache = SweepCache(str(tmp_path))
    base = cache.key_for(_square, ("fig5", 0))
    assert base is not None
    assert cache.key_for(_square, ("fig7", 0)) != base   # spec change
    assert cache.key_for(_square, ("fig5", 1)) != base   # seed change
    assert cache.key_for(_count_calls, ("fig5", 0)) != base  # fn change


def test_key_changes_when_a_source_file_changes(tmp_path):
    # The tree digest is over file contents: the same tree with one
    # byte changed must hash differently (a "touched source" means a
    # whole-store miss).
    (tmp_path / "mod.py").write_text("X = 1\n")
    before = cache_mod._digest_tree(str(tmp_path)).hexdigest()
    (tmp_path / "mod.py").write_text("X = 2\n")
    after = cache_mod._digest_tree(str(tmp_path)).hexdigest()
    assert before != after


def test_key_changes_when_a_repro_env_knob_flips(tmp_path, monkeypatch):
    cache = SweepCache(str(tmp_path))
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    plain = cache.key_for(_square, 3)
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    simsan = cache.key_for(_square, 3)
    assert plain != simsan
    # The cache's own placement knob must NOT participate in the key.
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert cache.key_for(_square, 3) == plain


def test_forced_miss_when_code_digest_changes(tmp_path, monkeypatch):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    payload = (marker, 7)
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 1
    # Same code: a hit, no re-run.
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 1
    # "Touch a source file": the tree digest memo changes, so the old
    # entry's address no longer matches and the cell re-runs.
    monkeypatch.setattr(cache_mod, "_CODE_DIGEST", "edited-tree-digest")
    assert values(Executor(plan).run(_count_calls, [payload])) == [49]
    assert _runs(marker) == 2


# --- hit/miss behaviour ------------------------------------------------------


def test_hit_skips_the_run_and_returns_identical_value(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")

    cold_exec = Executor(plan)
    cold = cold_exec.run(_count_calls, [(marker, i) for i in range(3)])
    assert _runs(marker) == 3
    assert cold_exec.stats.cache_hits == 0
    assert cold_exec.stats.cache_misses == 3
    assert all(not o.cached for o in cold)

    warm_exec = Executor(plan)
    warm = warm_exec.run(_count_calls, [(marker, i) for i in range(3)])
    assert _runs(marker) == 3  # nothing re-ran
    assert warm_exec.stats.cache_hits == 3
    assert warm_exec.stats.cache_misses == 0
    assert all(o.cached and o.worker == -1 for o in warm)
    assert [o.value for o in warm] == [o.value for o in cold]


def test_spec_or_seed_change_misses(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    values(Executor(plan).run(_count_calls, [(marker, 1)]))
    assert _runs(marker) == 1
    values(Executor(plan).run(_count_calls, [(marker, 2)]))  # "seed" change
    assert _runs(marker) == 2
    other_marker = str(tmp_path / "other-runs")                # "spec" change
    values(Executor(plan).run(_count_calls, [(other_marker, 1)]))
    assert _runs(other_marker) == 1


def test_errors_are_not_cached(tmp_path):
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    outcomes = Executor(plan).run(_fail, [1])
    assert outcomes[0].status == "error"
    # The failure must re-run next time, not be replayed from the store.
    outcomes = Executor(plan).run(_fail, [1])
    assert outcomes[0].status == "error"
    assert not outcomes[0].cached


def _fail(x):
    raise ValueError("no")


def test_corrupt_entry_is_a_miss_with_warning(tmp_path):
    warnings = []
    cache = SweepCache(str(tmp_path), warn=warnings.append)
    key = cache.key_for(_square, 5)
    cache.put(key, 25)
    hit, value = cache.get(key)
    assert (hit, value) == (True, 25)

    # Torn entry: garbage bytes under the final name.
    path = cache._entry_path(key)
    with open(path, "wb") as fh:
        fh.write(b"RSC1" + b"\x00" * 10)
    hit, value = cache.get(key)
    assert not hit
    assert len(warnings) == 1
    assert "corrupt" in warnings[0]
    assert not os.path.exists(path)  # healed: next put rewrites it

    # Bad magic is equally a miss.
    cache.put(key, 25)
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 40)
    hit, _value = cache.get(key)
    assert not hit
    assert cache.errors == 2


def test_put_is_append_only(tmp_path):
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(_square, 5)
    cache.put(key, 25)
    cache.put(key, 999)  # no-op: entries are immutable
    assert cache.get(key) == (True, 25)
    assert cache.puts == 1


# --- cached-vs-cold byte identity (the determinism gate) --------------------

SECTIONS = ("fig5", "table4", "fig7")
SEEDS = (0, 1)


def test_cached_experiments_are_byte_identical_to_cold(tmp_path):
    payloads = [
        ExperimentSpec(name=name, seed=seed)
        for name in SECTIONS for seed in SEEDS
    ]
    cold = [run_experiment(p).canonical_json() for p in payloads]

    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    miss_exec = Executor(plan)
    first = values(miss_exec.run(run_experiment, payloads))
    assert miss_exec.stats.cache_misses == len(payloads)
    assert [r.canonical_json() for r in first] == cold

    hit_exec = Executor(plan)
    second = values(hit_exec.run(run_experiment, payloads))
    assert hit_exec.stats.cache_hits == len(payloads)
    assert [r.canonical_json() for r in second] == cold


def test_cached_soak_journals_are_byte_identical_to_cold(tmp_path):
    # The chaos soak's cells are the chaos profile's campaign cells;
    # each record carries its run's journal digest.
    from repro.fuzz.campaign import PROFILE_CELLS

    cell = PROFILE_CELLS["chaos"]
    payloads = [(seed, 200_000, None) for seed in (0, 1)]
    cold = [cell(p) for p in payloads]
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    cached_cold = values(Executor(plan).run(cell, payloads))
    warm_exec = Executor(plan)
    warm = values(warm_exec.run(cell, payloads))
    assert warm_exec.stats.cache_hits == len(payloads)
    assert cached_cold == cold
    assert warm == cold


def test_interpreter_tag_participates_in_every_key(tmp_path, monkeypatch):
    # Entries are pickles: a different implementation/feature-version
    # pair must land at a different address.
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(_square, 3)
    monkeypatch.setattr(cache_mod, "_INTERP_TAG", "otherpython-9.9")
    assert cache.key_for(_square, 3) != key


def test_repro_entry_points_key_on_the_whole_tree(tmp_path, monkeypatch):
    # An edit anywhere in the package — here, any change of the tree
    # digest — moves the key of a repro entry point too.
    cache = SweepCache(str(tmp_path))
    key = cache.key_for(run_experiment, ("fig5", 0))
    monkeypatch.setattr(cache_mod, "_CODE_DIGEST", "edited-tree-digest")
    assert cache.key_for(run_experiment, ("fig5", 0)) != key


def test_simsan_entries_never_alias_plain_entries(tmp_path, monkeypatch):
    # REPRO_SIMSAN participates in the code digest, so a SIMSAN run and
    # a plain run of the same spec live at different addresses.
    plan = SweepPlan(max_workers=1, cache=True, cache_dir=str(tmp_path))
    marker = str(tmp_path / "runs")
    monkeypatch.delenv("REPRO_SIMSAN", raising=False)
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 1
    monkeypatch.setenv("REPRO_SIMSAN", "1")
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 2  # miss: different knob, different address
    values(Executor(plan).run(_count_calls, [(marker, 3)]))
    assert _runs(marker) == 2  # hit within the SIMSAN namespace
