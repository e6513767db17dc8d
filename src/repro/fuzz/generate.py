"""Seeded, legal-by-construction scenario generation.

:func:`generate_scenario` draws one :class:`~repro.fuzz.scenario.ScenarioSpec`
from a seed: machine shape, scheme, a workload mix from the calibrated
library, antagonist bursts, and a fault schedule.
:func:`generate_chaos_scenario` draws the **chaos profile**: a fixed
4-CPU / 16 MB / 2-disk PIso machine with no workload mix, one to three
bursts, up to four faults and a fixed 250 ms victim-progress window.

Both draw their bursts and faults through :func:`draw_adversity`, which
walks simulated time with a small state machine so the draw is legal at
generation time — the machine keeps at least half its processors, disk
0 (the failover target) never dies, memory losses stay bounded per
event, and every fault targets a disk the machine actually has.

Everything derives from a ``random.Random`` seeded by a string built
from the seed (``f"{seed}/fuzz/scenario"``, ``f"{seed}/chaos/plan"``),
so the mapping seed -> scenario is stable across runs, machines, and
worker processes — the corpus stores seeds, not scenarios.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.antagonists import ANTAGONIST_KINDS
from repro.faults.plan import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultEvent,
    FaultPlan,
    MemoryLoss,
)
from repro.fuzz.scenario import (
    SCHEMES,
    WORKLOAD_KINDS,
    AntagonistBurst,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim.units import MSEC, SEC

#: Machine shapes the generator draws from (all inside the legal
#: ranges, all big enough for the victim's working set).
GEN_NCPUS = (2, 3, 4, 6, 8)
GEN_MEMORY_MB = (12, 16, 24, 32)
GEN_NDISKS = (1, 2, 3)
GEN_HORIZONS = (1 * SEC, 2 * SEC)

#: Event-count ceilings per scenario.
MAX_WORKLOADS = 3
MAX_BURSTS = 2
MAX_FAULTS = 3

#: The chaos profile's fixed machine, event ceilings and default
#: horizon (used when the campaign does not pin one).
CHAOS_NCPUS = 4
CHAOS_MEMORY_MB = 16
CHAOS_NDISKS = 2
CHAOS_MAX_BURSTS = 3
CHAOS_MAX_FAULTS = 4
CHAOS_HORIZON_US = 4 * SEC
#: The chaos profile's victim-progress bound, fixed whatever the
#: horizon (PIso's scheme bound would be a quarter of the horizon).
CHAOS_PROGRESS_WINDOW_US = 250 * MSEC


def draw_adversity(
    rng: random.Random,
    ncpus: int,
    memory_mb: int,
    ndisks: int,
    horizon_us: int,
    min_bursts: int,
    max_bursts: int,
    max_faults: int,
) -> Tuple[List[AntagonistBurst], FaultPlan]:
    """Draw antagonist bursts and a legal fault schedule for one machine.

    Bursts land in the first half of the horizon so their damage has
    time to show.  Faults are drawn in time order against a running
    model of the machine: at least half the processors stay online, a
    ``CpuAdd`` only comes while one is offline, disk 0 (the failover
    target) never dies, and a memory loss takes at most 1/8 of the
    machine, well under the victim's entitlement.
    """
    bursts = []
    for _ in range(rng.randint(min_bursts, max_bursts)):
        bursts.append(
            AntagonistBurst(
                at_us=rng.randrange(0, max(1, horizon_us // 2)),
                kind=rng.choice(ANTAGONIST_KINDS),
                scale=rng.choice([0.5, 1.0, 1.0, 1.5]),
            )
        )

    events: List[FaultEvent] = []
    min_online = max(1, ncpus // 2)
    cpus_online = ncpus
    dead_disks: set = set()
    times = sorted(
        rng.randrange(0, horizon_us)
        for _ in range(rng.randint(0, max_faults))
    )
    for at_us in times:
        choices = ["disk_transient", "memory_loss"]
        if cpus_online > min_online:
            choices.append("cpu_remove")
        if cpus_online < ncpus:
            choices.append("cpu_add")
        killable = [d for d in range(1, ndisks) if d not in dead_disks]
        if killable:
            choices.append("disk_failure")
        kind = rng.choice(choices)
        if kind == "disk_transient":
            events.append(
                DiskTransient(
                    at_us=at_us,
                    disk=rng.randrange(ndisks),
                    duration_us=rng.randrange(50 * MSEC, 400 * MSEC),
                    error_rate=round(rng.uniform(0.3, 0.9), 2),
                )
            )
        elif kind == "memory_loss":
            ceiling = (memory_mb * 256) // 8
            events.append(
                MemoryLoss(at_us=at_us, pages=rng.randrange(64, ceiling))
            )
        elif kind == "cpu_remove":
            events.append(CpuRemove(at_us=at_us))
            cpus_online -= 1
        elif kind == "cpu_add":
            events.append(CpuAdd(at_us=at_us))
            cpus_online += 1
        else:
            disk = rng.choice(killable)
            events.append(DiskFailure(at_us=at_us, disk=disk))
            dead_disks.add(disk)
    return bursts, FaultPlan(events)


def generate_scenario(
    seed: int,
    horizon_us: Optional[int] = None,
    scheme: Optional[str] = None,
) -> ScenarioSpec:
    """Draw a random, legal scenario from ``seed``.

    ``horizon_us``/``scheme`` pin those draws (the CI campaign pins the
    horizon to keep its budget); everything else comes from the seed.
    """
    rng = random.Random(f"{seed}/fuzz/scenario")

    ncpus = rng.choice(GEN_NCPUS)
    memory_mb = rng.choice(GEN_MEMORY_MB)
    ndisks = rng.choice(GEN_NDISKS)
    drawn_scheme = rng.choice(SCHEMES)
    drawn_horizon = rng.choice(GEN_HORIZONS)
    if scheme is not None:
        drawn_scheme = scheme
    if horizon_us is not None:
        drawn_horizon = horizon_us

    # Workload mix: jobs land in the first half so their behaviour has
    # time to interact with the bursts and faults that follow.
    workloads = []
    for _ in range(rng.randint(1, MAX_WORKLOADS)):
        workloads.append(
            WorkloadSpec(
                kind=rng.choice(WORKLOAD_KINDS),
                spu=f"load{rng.randint(0, 1)}",
                start_us=rng.randrange(0, max(1, drawn_horizon // 2)),
                mount=rng.randrange(ndisks),
                intensity=rng.randint(1, 2),
            )
        )

    bursts, faults = draw_adversity(
        rng, ncpus, memory_mb, ndisks, drawn_horizon,
        min_bursts=0, max_bursts=MAX_BURSTS, max_faults=MAX_FAULTS,
    )
    return ScenarioSpec(
        seed=seed,
        ncpus=ncpus,
        memory_mb=memory_mb,
        ndisks=ndisks,
        scheme=drawn_scheme,
        horizon_us=drawn_horizon,
        workloads=workloads,
        bursts=bursts,
        faults=faults,
    )


def generate_chaos_scenario(
    seed: int, horizon_us: Optional[int] = None
) -> ScenarioSpec:
    """Draw one chaos-profile scenario from ``seed``.

    The chaos profile holds the machine fixed (:data:`CHAOS_NCPUS` CPUs,
    :data:`CHAOS_MEMORY_MB` MB, :data:`CHAOS_NDISKS` disks, PIso) and
    runs no workload mix: only the victim, one to
    :data:`CHAOS_MAX_BURSTS` antagonist bursts and up to
    :data:`CHAOS_MAX_FAULTS` faults.  The victim must checkpoint in
    every :data:`CHAOS_PROGRESS_WINDOW_US` window whatever the horizon.
    """
    rng = random.Random(f"{seed}/chaos/plan")
    horizon = CHAOS_HORIZON_US if horizon_us is None else horizon_us
    bursts, faults = draw_adversity(
        rng, CHAOS_NCPUS, CHAOS_MEMORY_MB, CHAOS_NDISKS, horizon,
        min_bursts=1, max_bursts=CHAOS_MAX_BURSTS,
        max_faults=CHAOS_MAX_FAULTS,
    )
    return ScenarioSpec(
        seed=seed,
        ncpus=CHAOS_NCPUS,
        memory_mb=CHAOS_MEMORY_MB,
        ndisks=CHAOS_NDISKS,
        scheme="piso",
        horizon_us=horizon,
        bursts=bursts,
        faults=faults,
        progress_window_us=CHAOS_PROGRESS_WINDOW_US,
    )
