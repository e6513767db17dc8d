"""The benchmark's three workloads and their correctness fingerprints.

Each workload turns the benchmark seed into inputs and runs one *pass*
of fixed work through the simulator's public API.  A pass returns the
host seconds it took, the engine events it simulated, and one
fingerprint per *cell* (an experiment, a simulation, a fuzz scenario):
``"<events>:<digest>"``, plus the verdict for fuzz cells.  A cell fails
when its fingerprint differs from the pinned reference (or, for an
unpinned seed, from the first pass), when its verdict is not ``ok``, or
when it raised.

Why these three (see README.md for the layer predictions):

* ``paper_repro`` — what ``python -m repro experiments`` runs: the
  registered experiments, serially, in one process.  Buffer-cache
  eviction (``table3``, ``faults``) does most of its work, and it is
  the only workload that sends on the network (``network``).
* ``interactive`` — four think/burst users under PIso on 4 CPUs: clock
  ticks, dispatch, idle fast-forward, ``cpu``/``core``/``mem``.  It does
  no file or disk I/O and sends nothing, so it is the bypass case for
  every ``fs``/``disk``/``net`` change.  Runnable here but not named in
  ``BENCHMARK.json``, because the host-speed scaling tracks it least
  well (README.md).
* ``fuzz_campaign`` — the CI fuzz job's first 100 scenarios (seeds
  0-99, 2000 ms horizon, SIMSAN on) through ``run_campaign`` with
  ``min(2, nproc)`` workers, in an order drawn from the seed: many
  short machines with small caches, build/boot per cell, the sanitizer
  and the parallel executor and pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

NAMES = ("paper_repro", "interactive", "fuzz_campaign")

#: Interactive users and bursts per user in one pass (~2.7 s on a 2-CPU
#: host with CPython 3.11).
INTERACTIVE_USERS = 4
INTERACTIVE_BURSTS = 20000

#: The CI fuzz job's first 100 scenarios (the job runs seeds 0-199), 2000
#: ms horizon, SIMSAN on, ``min(2, nproc)`` workers.  100 keeps a pass
#: at 4-9 s, so a run holds several and their mean rides out host noise.
FUZZ_CELLS = 100
FUZZ_HORIZON_US = 2_000_000


def fuzz_workers() -> int:
    return min(2, os.cpu_count() or 1)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Pass:
    """One pass of a workload's fixed work."""

    wall_s: float = 0.0
    #: Cell name -> fingerprint.
    cells: Dict[str, str] = field(default_factory=dict)
    #: Cells whose verdict was not ``ok`` or that raised.
    bad: List[str] = field(default_factory=list)
    events: int = 0
    #: Host seconds per experiment (paper_repro only).
    experiment_s: Dict[str, float] = field(default_factory=dict)
    paper_err_pct: Optional[float] = None


@contextlib.contextmanager
def engine_event_counter() -> Iterator[List[int]]:
    """Sum the events every ``Engine.run`` returns while active.

    One wrapper call per simulation run, so it is left on in untraced
    passes: ``run_experiment`` does not report the events it simulated.
    """
    from repro.sim.engine import Engine

    total = [0]
    original = Engine.run

    def run(self, *args, **kwargs):
        executed = original(self, *args, **kwargs)
        total[0] += executed
        return executed

    Engine.run = run
    try:
        yield total
    finally:
        Engine.run = original


# --- paper_repro ---------------------------------------------------------------


def paper_err_pct(results: Dict[str, Any]) -> float:
    """Mean absolute difference, in percentage points, between the
    measured Fig. 2/3/7 bars and the paper's.  Table 3/4 absolute
    seconds have no validated reference and are not included."""
    from repro.experiments import PAPER_FIG2, PAPER_FIG3, PAPER_FIG7

    diffs: List[float] = []
    for scheme, r in results["pmake8"].items():
        balanced, unbalanced = PAPER_FIG2[scheme]
        diffs += [r.fig2_balanced - balanced, r.fig2_unbalanced - unbalanced,
                  r.fig3_unbalanced - PAPER_FIG3[scheme]]
    for scheme, r in results["fig7"].items():
        diffs += [r.isolation_unbalanced - PAPER_FIG7["isolation"][scheme],
                  r.sharing_unbalanced - PAPER_FIG7["sharing"][scheme]]
    return sum(abs(d) for d in diffs) / len(diffs)


def paper_repro(seed: int) -> Pass:
    from repro.api import ExperimentSpec, names, run_experiment

    out = Pass()
    data: Dict[str, Any] = {}
    with engine_event_counter() as events:
        start = time.perf_counter()
        for name in names():
            before = events[0]
            t = time.perf_counter()
            try:
                result = run_experiment(ExperimentSpec(name=name, seed=seed))
            except Exception as exc:  # a failed cell, not a failed benchmark
                out.cells[name] = f"error:{type(exc).__name__}"
                out.bad.append(name)
                continue
            finally:
                out.experiment_s[name] = time.perf_counter() - t
            data[name] = result.data
            out.cells[name] = (
                f"{events[0] - before}:{digest(result.canonical_json())}"
            )
        out.wall_s = time.perf_counter() - start
        out.events = events[0]
    if "pmake8" in data and "fig7" in data:
        out.paper_err_pct = paper_err_pct(data)
    return out


# --- interactive ---------------------------------------------------------------


def interactive_params(seed: int) -> List[Any]:
    """Per-user think and burst times drawn from the seed.

    Think times are drawn from 180-220 ms and then scaled so that the
    longest is 220 ms: the run lasts as long as its slowest user, so
    this fixes the simulated span and the event count varies by 0.05%
    across seeds instead of 3.3%, while the users still differ.
    """
    from repro.workloads.interactive import InteractiveParams

    rng = random.Random(f"perfbench/interactive/{seed}")
    drawn = [(rng.uniform(180.0, 220.0), rng.uniform(0.4, 0.6))
             for _ in range(INTERACTIVE_USERS)]
    scale = 220.0 / max(think for think, _ in drawn)
    return [
        InteractiveParams(
            bursts=INTERACTIVE_BURSTS,
            think_ms=round(think * scale, 3),
            burst_ms=round(burst, 3),
        )
        for think, burst in drawn
    ]


def interactive(seed: int) -> Pass:
    from repro.api import SimulationSpec, build, piso_scheme
    from repro.workloads.interactive import burst_latencies_ms, interactive_user

    params = interactive_params(seed)
    out = Pass()
    start = time.perf_counter()
    try:
        sim = build(SimulationSpec(
            ncpus=4,
            memory_mb=32,
            scheme=piso_scheme(),
            spus=[f"user{i + 1}" for i in range(INTERACTIVE_USERS)],
            disks=1,
            seed=seed,
        ))
        procs = [
            sim.spawn(interactive_user(p), spu, name=f"int{i}")
            for i, (p, spu) in enumerate(zip(params, sim.spus))
        ]
        out.events = sim.run()
    except Exception as exc:
        out.wall_s = time.perf_counter() - start
        out.cells["sim"] = f"error:{type(exc).__name__}"
        out.bad.append("sim")
        return out
    out.wall_s = time.perf_counter() - start
    outputs = {
        "jobs": [[r.pid, r.name, r.spu_id, r.response_us, r.cpu_time_us,
                  r.fault_count] for r in sim.results()],
        "bursts_ms": [burst_latencies_ms(proc, p)
                      for proc, p in zip(procs, params)],
    }
    out.cells["sim"] = (
        f"{out.events}:{digest(json.dumps(outputs, sort_keys=True))}"
    )
    return out


# --- fuzz_campaign -------------------------------------------------------------


def fuzz_seeds(seed: int) -> List[int]:
    """The CI campaign's scenario seeds, in an order drawn from ``seed``.

    The scenario set is fixed on purpose.  Per-scenario host time is
    heavy-tailed, so 200 scenarios drawn per benchmark seed differed in
    cost by 10-15% from one benchmark seed to the next, more than any
    usable regression bound.  The benchmark seed orders the submission,
    which decides the shards and which worker runs which cell.
    """
    order = list(range(FUZZ_CELLS))
    random.Random(f"perfbench/fuzz/{seed}").shuffle(order)
    return order


def pin_key(workload: str, seed: int) -> str:
    """Reference key: fuzz cells are the same scenarios for every seed."""
    return "*" if workload == "fuzz_campaign" else str(seed)


def _add_record(out: Pass, record: Dict[str, Any]) -> None:
    name = str(record["seed"])
    out.cells[name] = (
        f"{record['verdict']}:{record['events']}:{record['digest'][:16]}"
    )
    out.events += record["events"]
    if record["verdict"] != "ok":
        out.bad.append(name)


def fuzz_campaign(seed: int, tmp_root: str) -> Pass:
    """One campaign through the sweep executor, corpus in a fresh
    temporary directory (a reused corpus would resume, not re-run)."""
    from repro.fuzz.campaign import CampaignConfig, load_corpus, run_campaign

    out = Pass()
    workdir = tempfile.mkdtemp(prefix="campaign-", dir=tmp_root)
    try:
        corpus = os.path.join(workdir, "corpus.jsonl")
        config = CampaignConfig(
            seeds=fuzz_seeds(seed),
            corpus_path=corpus,
            workers=fuzz_workers(),
            horizon_us=FUZZ_HORIZON_US,
            simsan=True,
            shrink=False,
        )
        start = time.perf_counter()
        run_campaign(config)
        out.wall_s = time.perf_counter() - start
        for record in load_corpus(corpus):
            _add_record(out, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for s in fuzz_seeds(seed):
        if str(s) not in out.cells:
            out.cells[str(s)] = "missing"
            out.bad.append(str(s))
    return out


def fuzz_in_process(seed: int) -> Pass:
    """The same cells run serially in this process (the traced pass:
    spans recorded in pool workers would be lost with the workers)."""
    from repro.fuzz.generate import generate_scenario
    from repro.fuzz.runner import run_record

    out = Pass()
    start = time.perf_counter()
    for s in fuzz_seeds(seed):
        try:
            record = run_record(
                generate_scenario(s, horizon_us=FUZZ_HORIZON_US), simsan=True
            )
        except Exception as exc:
            out.cells[str(s)] = f"error:{type(exc).__name__}"
            out.bad.append(str(s))
            continue
        _add_record(out, record)
    out.wall_s = time.perf_counter() - start
    return out


@contextlib.contextmanager
def sweep_stats_probe() -> Iterator[Dict[str, Any]]:
    """Collect each ``Executor.run``'s ``SweepStats`` and each pool's
    fork count, in the parent process."""
    from repro.parallel import Executor, WorkerPool

    seen: Dict[str, Any] = {"stats": [], "forks": 0}
    run, shutdown = Executor.run, WorkerPool.shutdown

    def probed_run(self, fn, payloads):
        try:
            return run(self, fn, payloads)
        finally:
            seen["stats"].append(self.stats)

    def probed_shutdown(self):
        seen["forks"] += self.forks
        return shutdown(self)

    Executor.run, WorkerPool.shutdown = probed_run, probed_shutdown
    try:
        yield seen
    finally:
        Executor.run, WorkerPool.shutdown = run, shutdown


def setup(workload: str) -> None:
    """Import what the workload runs and load the experiment registry;
    for ``fuzz_campaign`` also fork and retire a worker pool."""
    from repro.api import names

    names()
    import repro.workloads.interactive  # noqa: F401
    import repro.fuzz.campaign  # noqa: F401
    import repro.fuzz.runner  # noqa: F401
    if workload == "fuzz_campaign" and fuzz_workers() > 1:
        from repro.parallel import WorkerPool

        pool = WorkerPool(max_workers=fuzz_workers())
        try:
            pool.ensure(fuzz_workers())
        finally:
            pool.shutdown()


def run_pass(workload: str, seed: int, tmp_root: str) -> Pass:
    if workload == "paper_repro":
        return paper_repro(seed)
    if workload == "interactive":
        return interactive(seed)
    if workload == "fuzz_campaign":
        return fuzz_campaign(seed, tmp_root)
    raise ValueError(f"unknown workload {workload!r}")
