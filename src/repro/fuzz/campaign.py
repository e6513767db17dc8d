"""Crash-resilient fuzz campaigns over the sweep executor.

A campaign maps a seed range through generate → run → judge, sharded
across worker processes, and records every cell in an **append-only
JSONL corpus**: one :func:`repro.fuzz.runner.run_record` per line.
Because each record is a pure function of ``(seed, horizon, simsan)``
and lines are appended in seed order with an fsync per shard, the
corpus doubles as the campaign's checkpoint: kill the campaign at any
point, re-run it, and it repairs a torn final line, skips every seed
already recorded with this campaign's scenario fingerprint, and
converges on the byte-identical file an uninterrupted run would have
written.

Worker crashes and per-cell timeouts are absorbed twice over: the
executor retries the cell once on a fresh worker (the
:class:`repro.parallel.Executor` default ``retries=1``), and a cell
that still fails is recorded with a ``crashed``/``timeout`` verdict
rather than aborting the campaign.  All shards share one persistent
:class:`repro.parallel.WorkerPool`, so a thousand-seed campaign pays
the fork cost once, not once per shard; with ``cache=True`` cells
whose ``(seed, horizon, simsan)`` is already in the content-addressed
sweep cache are answered from the store — the cached value is the pure
cell's record, so the corpus bytes are identical either way.

Every ``violation`` verdict ends as a **repro file**: the campaign
re-runs the scenario in-process, shrinks it
(:func:`repro.fuzz.shrink.shrink_scenario`) against the first
violation, and writes ``fuzz-repro-<seed>.json`` next to the corpus —
including on resume, so an interruption between recording a failure
and shrinking it loses nothing.

The campaign's **profile** picks what a seed draws: ``scenario``
(:func:`~repro.fuzz.generate.generate_scenario`, a random machine and
workload mix), ``chaos``
(:func:`~repro.fuzz.generate.generate_chaos_scenario`, the fixed chaos
machine with a 250 ms victim-progress bound) or ``fleet``
(:func:`~repro.fuzz.fleet.generate_fleet_scenario`, a whole
multi-machine fleet).  Each profile has its own cell function, so the
profile is part of every sweep-cache key.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.generate import generate_chaos_scenario, generate_scenario
from repro.fuzz.runner import run_record, run_scenario
from repro.fuzz.shrink import shrink_scenario, write_repro
from repro.parallel import Executor, SweepPlan, WorkerPool


class CampaignError(RuntimeError):
    """Raised for unusable campaign inputs (e.g. a corrupt corpus)."""


# --- the cell ----------------------------------------------------------------


def _fuzz_cell(payload: Tuple[int, Optional[int], Optional[bool]]) -> Dict[str, Any]:
    """One (seed, horizon, simsan) cell — the sweep worker function."""
    seed, horizon_us, simsan = payload
    scenario = generate_scenario(seed, horizon_us=horizon_us)
    return run_record(scenario, simsan=simsan)


def _chaos_fuzz_cell(
    payload: Tuple[int, Optional[int], Optional[bool]]
) -> Dict[str, Any]:
    """The chaos-profile cell: same payload, fixed chaos machine."""
    seed, horizon_us, simsan = payload
    scenario = generate_chaos_scenario(seed, horizon_us=horizon_us)
    return run_record(scenario, simsan=simsan)


def _fleet_fuzz_cell(
    payload: Tuple[int, Optional[int], Optional[bool]]
) -> Dict[str, Any]:
    """The fleet-dimension cell: same payload, fleet generator/runner."""
    from repro.fuzz.fleet import run_fleet_fuzz_record

    seed, horizon_us, simsan = payload
    return run_fleet_fuzz_record(seed, horizon_us=horizon_us, simsan=simsan)


#: Campaign profile -> its cell function.
PROFILE_CELLS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "scenario": _fuzz_cell,
    "chaos": _chaos_fuzz_cell,
    "fleet": _fleet_fuzz_cell,
}

#: The single-machine profiles' generators (the fleet profile draws
#: fleets, which have no scenario spec).
SCENARIO_GENERATORS = {
    "scenario": generate_scenario,
    "chaos": generate_chaos_scenario,
}


# --- the corpus --------------------------------------------------------------


def repair_corpus(path: str) -> None:
    """Drop a torn final line left by a campaign killed mid-append.

    Everything after the last newline is an incomplete write; its seed
    re-runs on resume and reproduces the identical bytes, so truncating
    is lossless.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        data = fh.read()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def _warn_stderr(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def load_corpus(
    path: str, warn: Callable[[str], None] = _warn_stderr
) -> List[Dict[str, Any]]:
    """Read corpus records; tolerates a torn final line *and* rot.

    A truncated *last* line is the normal signature of a killed
    campaign and is silently dropped.  A malformed line anywhere
    *else* — invalid JSON, or a record missing ``seed``/``verdict`` —
    means the file was edited or otherwise corrupted; that line is
    **skipped with a warning** (via ``warn``, naming the line) rather
    than aborting the whole campaign: every record is a pure function
    of its seed, so the seed a corrupt line used to hold simply
    re-runs on resume and the corpus heals to the bytes an
    uninterrupted run would have written.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):
                break
            warn(
                f"corpus {path} line {lineno} is not valid JSON;"
                " skipping it (its seed will re-run on resume)"
            )
            continue
        if not isinstance(record, dict) or "seed" not in record \
                or "verdict" not in record:
            warn(
                f"corpus {path} line {lineno} is not a fuzz record"
                " (missing seed/verdict); skipping it"
                " (its seed will re-run on resume)"
            )
            continue
        records.append(record)
    return records


# --- configuration and report ------------------------------------------------


@dataclass
class CampaignConfig:
    """Everything one campaign needs; plain data, CLI-shaped."""

    seeds: Sequence[int]
    corpus_path: str
    workers: Optional[int] = 1
    timeout_s: Optional[float] = 120.0
    #: Cells per sweep shard; also the corpus checkpoint granularity.
    shard_size: int = 8
    #: Pin every scenario's horizon (None = per-seed draw).
    horizon_us: Optional[int] = None
    #: Force SIMSAN on/off for every cell (None = REPRO_SIMSAN env).
    simsan: Optional[bool] = None
    #: Re-run ok worker cells in-process and compare records.
    differential: bool = False
    shrink: bool = True
    #: Simulation-run budget per shrink.
    shrink_budget: int = 48
    #: Directory for fuzz-repro-<seed>.json files (None = corpus dir).
    repro_dir: Optional[str] = None
    #: Wall-clock budget; the campaign stops cleanly between shards.
    budget_s: Optional[float] = None
    #: Stop after this many shards (test hook for interrupt/resume).
    max_shards: Optional[int] = None
    #: What each seed draws, a key of :data:`PROFILE_CELLS`: a generated
    #: ``scenario``, the fixed-shape ``chaos`` machine, or a multi-machine
    #: ``fleet`` (crash/failover/SLO admission), whose failures get a
    #: ``fleet-repro`` file (the full spec — fleet draws have no ddmin
    #: shrinker yet).
    profile: str = "scenario"
    #: Answer already-seen cells from the content-addressed sweep cache.
    cache: bool = False
    #: Cache store root (None = $REPRO_CACHE_DIR or .repro-cache).
    cache_dir: Optional[str] = None


@dataclass
class CampaignReport:
    """What a campaign run did and found."""

    corpus_path: str
    #: Cells run this invocation / skipped as already in the corpus.
    ran: int = 0
    resumed: int = 0
    #: Verdict counts over *all* requested seeds, resumed included.
    verdicts: Dict[str, int] = field(default_factory=dict)
    #: Executor crash/timeout retries consumed across all shards.
    retried_cells: int = 0
    #: Cells answered from the sweep cache instead of run.
    cache_hits: int = 0
    repro_files: List[str] = field(default_factory=list)
    #: True if budget_s/max_shards stopped the campaign before the end.
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        """No bad verdicts so far.  A budget stop is not a failure —
        the campaign is resumable — so ``stopped_early`` is reported
        but does not poison the exit code."""
        return set(self.verdicts) <= {"ok"}

    def summary(self) -> List[str]:
        counts = ", ".join(
            f"{name}={count}" for name, count in sorted(self.verdicts.items())
        ) or "nothing run"
        lines = [
            f"corpus {self.corpus_path}:"
            f" {self.ran} cell(s) run, {self.resumed} resumed"
            f" ({counts}; {self.retried_cells} retried)"
        ]
        if self.cache_hits:
            lines.append(f"{self.cache_hits} cell(s) answered from the sweep cache")
        if self.stopped_early:
            lines.append("stopped early (budget exhausted); resume to continue")
        for path in self.repro_files:
            lines.append(f"repro: {path}")
        return lines


# --- the campaign ------------------------------------------------------------


def _expected_fingerprint(seed: int, config: CampaignConfig) -> str:
    """The fingerprint this campaign's profile and horizon give ``seed``."""
    if config.profile == "fleet":
        from repro.fuzz.fleet import fleet_fingerprint, generate_fleet_scenario

        return fleet_fingerprint(
            generate_fleet_scenario(seed, horizon_us=config.horizon_us)
        )
    return SCENARIO_GENERATORS[config.profile](
        seed, horizon_us=config.horizon_us
    ).fingerprint()


def _failure_record(seed: int, config: CampaignConfig, outcome) -> Dict[str, Any]:
    """Corpus record for a cell the executor could not complete."""
    record = {
        "seed": seed,
        "fingerprint": _expected_fingerprint(seed, config),
        "verdict": outcome.status,
        "violations": [],
        "checkpoints": 0,
        "events": 0,
        "digest": "",
    }
    if config.profile == "fleet":
        record["fleet"] = True
    return record


def _write_fleet_repro_for(seed: int, config: CampaignConfig, path: str) -> bool:
    """Persist one failing fleet seed as a full-spec repro file.

    Fleet draws have no ddmin shrinker yet, so the repro is the whole
    :class:`~repro.fleet.spec.FleetSpec` plus the violations the
    in-process re-run observed — enough to replay with
    ``run_fleet(FleetSpec.from_json(...))`` byte-for-byte.
    """
    from repro.fuzz.fleet import generate_fleet_scenario, run_fleet_fuzz_record

    record = run_fleet_fuzz_record(
        seed, horizon_us=config.horizon_us, simsan=config.simsan
    )
    if record["verdict"] == "ok":
        # Worker-vs-parent skew only (differential verdict): nothing
        # reproduces in-process, so there is nothing to replay.
        return False
    spec = generate_fleet_scenario(seed, horizon_us=config.horizon_us)
    payload = {
        "schema": "repro.fuzz.fleet-repro/1",
        "seed": seed,
        "fingerprint": record["fingerprint"],
        "verdict": record["verdict"],
        "violations": record["violations"],
        "digest": record["digest"],
        "fleet_spec": spec.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return True


def _write_repro_for(seed: int, config: CampaignConfig, path: str) -> bool:
    """Re-run, shrink, and persist one failing seed's repro file."""
    if config.profile == "fleet":
        return _write_fleet_repro_for(seed, config, path)
    scenario = SCENARIO_GENERATORS[config.profile](
        seed, horizon_us=config.horizon_us
    )
    result = run_scenario(scenario, simsan=config.simsan)
    if result.ok:
        # A differential verdict with no in-process violation: there is
        # no failing scenario to shrink, only a worker-vs-parent skew.
        return False
    if config.shrink:
        shrunk = shrink_scenario(
            scenario,
            result.violations[0].name,
            max_runs=config.shrink_budget,
            simsan=config.simsan,
        )
        result = run_scenario(shrunk.scenario, simsan=config.simsan)
    write_repro(path, result)
    return True


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run (or resume) one fuzz campaign; see the module docstring."""
    seeds = list(config.seeds)
    if len(set(seeds)) != len(seeds):
        raise CampaignError("campaign seeds must be unique")
    if config.profile not in PROFILE_CELLS:
        raise CampaignError(
            f"unknown campaign profile {config.profile!r};"
            f" expected one of {sorted(PROFILE_CELLS)}"
        )
    repair_corpus(config.corpus_path)
    existing = load_corpus(config.corpus_path)
    # A stored record resumes its seed only if this campaign's profile
    # and horizon draw the scenario it fingerprints; a record from any
    # other campaign on the same corpus is re-run.  Fingerprints are
    # drawn only for seeds the corpus holds, so a fresh corpus pays
    # nothing.
    wanted = set(seeds)
    expected: Dict[int, str] = {}
    relevant = []
    for r in existing:
        seed = r["seed"]
        if seed not in wanted:
            continue
        if seed not in expected:
            expected[seed] = _expected_fingerprint(seed, config)
        if r.get("fingerprint") == expected[seed]:
            relevant.append(r)
    done = {r["seed"] for r in relevant}
    pending = [s for s in seeds if s not in done]
    verdicts = Counter(r["verdict"] for r in relevant)
    failures = [r["seed"] for r in relevant if r["verdict"] == "violation"]

    cell_fn = PROFILE_CELLS[config.profile]
    report = CampaignReport(
        corpus_path=config.corpus_path,
        resumed=len(relevant),
    )
    # Host-side campaign control only: the wall clock gates *whether*
    # more shards run, never what any cell computes.
    start = time.monotonic()  # simlint: disable=SL101
    shards = [
        pending[i:i + config.shard_size]
        for i in range(0, len(pending), config.shard_size)
    ]
    parent = os.path.dirname(config.corpus_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # One persistent pool serves every shard (the executor leases it
    # per shard); the fork cost is paid once per campaign, not per
    # shard.  The pool spawns lazily, so a serial campaign never forks.
    plan = SweepPlan(
        max_workers=config.workers, timeout_s=config.timeout_s,
        cache=config.cache, cache_dir=config.cache_dir,
    )
    pool = WorkerPool(max_workers=config.workers)
    executor = Executor(plan, pool=pool)
    try:
        with open(config.corpus_path, "a") as fh:
            for shard_no, shard in enumerate(shards):
                if config.max_shards is not None \
                        and shard_no >= config.max_shards:
                    report.stopped_early = True
                    break
                if config.budget_s is not None \
                        and time.monotonic() - start >= config.budget_s:  # simlint: disable=SL101
                    report.stopped_early = True
                    break
                payloads = [
                    (s, config.horizon_us, config.simsan) for s in shard
                ]
                outcomes = executor.run(cell_fn, payloads)
                report.cache_hits += executor.stats.cache_hits
                for seed, outcome in zip(shard, outcomes):
                    if outcome.ok:
                        record = outcome.value
                        if config.differential and outcome.worker >= 0:
                            serial = cell_fn(
                                (seed, config.horizon_us, config.simsan)
                            )
                            if serial != record:
                                record = dict(
                                    record,
                                    verdict="differential",
                                    violations=sorted(
                                        set(record["violations"])
                                        | {"differential"}
                                    ),
                                )
                    else:
                        record = _failure_record(seed, config, outcome)
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                    verdicts[record["verdict"]] += 1
                    report.ran += 1
                    report.retried_cells += outcome.retries
                    if record["verdict"] in ("violation", "differential"):
                        failures.append(seed)
                # One checkpoint per shard: a kill between shards loses
                # nothing, a kill mid-shard loses at most a torn tail.
                fh.flush()
                os.fsync(fh.fileno())
    finally:
        pool.shutdown()

    report.verdicts = dict(verdicts)

    # Shrink every failing seed that does not already have a repro file
    # (resumed failures included — an interrupt between recording and
    # shrinking heals here).
    repro_dir = config.repro_dir if config.repro_dir is not None \
        else (parent or ".")
    os.makedirs(repro_dir, exist_ok=True)
    stem = "fleet-repro" if config.profile == "fleet" else "fuzz-repro"
    for seed in failures:
        path = os.path.join(repro_dir, f"{stem}-{seed}.json")
        if os.path.exists(path) or _write_repro_for(seed, config, path):
            report.repro_files.append(path)
    report.repro_files.sort()
    return report
