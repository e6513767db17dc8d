"""Fleet-level conservation laws, audited at every epoch boundary.

The per-machine :class:`~repro.faults.invariants.InvariantWatchdog`
checks one kernel's books; this watchdog checks the *fleet's*: that
failover moved state around without losing, duplicating, or inventing
any of it.  The runner calls :meth:`FleetWatchdog.check` at every
epoch boundary (before and after fleet fault events apply), against a
duck-typed fleet view, and every breach is recorded as a
:class:`~repro.faults.invariants.Violation` — the same value object
the single-machine fuzz pipeline already aggregates.

Checked invariants:

* **no SPU lost** — every SPU in the spec is hosted on exactly one
  online machine, or explicitly shed with a recorded decision; never
  both, never neither, never hosted on a crashed machine;
* **progress conservation** — each SPU's durable rounds never decrease
  across a migration and never exceed its spec total;
* **capacity accounting** — the runner's incrementally-accumulated
  fleet capacity integral equals the value re-derived independently
  from the fault plan, and is monotone non-decreasing;
* **no overcommit** — on every online machine, the demand committed to
  hosted SPUs (demand × contract fraction) fits in the machine;
* **machine books** — per-machine invariant watchdog violations are
  surfaced with an ``m<i>:`` prefix so one compromised kernel fails
  the fleet run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List

from repro.faults.fleet import MachineCrash, MachineRecover
from repro.faults.invariants import Violation
from repro.fleet.spec import FleetSpec


def expected_capacity_integral(spec: FleetSpec, now_us: int) -> int:
    """Re-derive ∫ online-capacity dt from the fault plan alone.

    The runner accumulates the same integral incrementally as it
    advances epochs; re-deriving it from first principles here means a
    book-keeping bug in either place shows up as a mismatch.  A machine
    contributes over ``(a, b]`` iff it was online at ``a`` — fleet
    events that fire *at* a boundary take effect for the following
    interval, matching the runner's advance-then-apply loop.
    """
    online = [True] * len(spec.machines)
    integral = 0
    prev = 0
    changes: Dict[int, List[object]] = {}
    for event in spec.faults:
        if isinstance(event, (MachineCrash, MachineRecover)):
            changes.setdefault(event.at_us, []).append(event)
    for at_us in sorted(changes):
        if at_us >= now_us:
            break
        if at_us > prev:
            integral += sum(
                m.capacity_mcpu
                for m, up in zip(spec.machines, online) if up
            ) * (at_us - prev)
            prev = at_us
        for event in changes[at_us]:
            online[event.machine] = isinstance(event, MachineRecover)
    integral += sum(
        m.capacity_mcpu for m, up in zip(spec.machines, online) if up
    ) * (now_us - prev)
    return integral


class FleetWatchdog:
    """Audits fleet conservation laws against a live fleet view.

    ``fleet`` is duck-typed (the runner's ``FleetSimulation``): it
    exposes ``spec``, ``machines`` (each with ``index``, ``online``,
    ``capacity_mcpu``, ``hosted`` name→HostedSpu, and an optional
    per-machine ``watchdog``), ``shed`` (name→Decision) and
    ``capacity_integral`` (the runner's incremental accumulator).
    """

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._last_rounds: Dict[str, int] = {}
        self._last_integral = 0

    def check(self, now_us: int) -> None:
        self.checks_run += 1
        fleet = self.fleet
        spec: FleetSpec = fleet.spec

        # --- no SPU lost --------------------------------------------------
        hosts: Dict[str, List[int]] = {s.name: [] for s in spec.spus}
        for machine in fleet.machines:
            for name in machine.hosted:
                hosts.setdefault(name, []).append(machine.index)
                if not machine.online:
                    self._flag(
                        now_us, "fleet-spu-lost",
                        f"SPU {name!r} hosted on crashed machine"
                        f" {machine.index}",
                    )
        for name, where in sorted(hosts.items()):
            is_shed = name in fleet.shed
            if len(where) > 1:
                self._flag(
                    now_us, "fleet-spu-duplicated",
                    f"SPU {name!r} hosted on machines {where}",
                )
            elif not where and not is_shed:
                self._flag(
                    now_us, "fleet-spu-lost",
                    f"SPU {name!r} neither hosted nor shed",
                )
            elif where and is_shed:
                self._flag(
                    now_us, "fleet-spu-duplicated",
                    f"SPU {name!r} hosted on machine {where[0]}"
                    " but also recorded as shed",
                )

        # --- progress conservation ---------------------------------------
        for spu_spec in spec.spus:
            rounds = fleet.progress(spu_spec.name)
            last = self._last_rounds.get(spu_spec.name, 0)
            if rounds < last:
                self._flag(
                    now_us, "fleet-progress-lost",
                    f"SPU {spu_spec.name!r} rounds fell {last} ->"
                    f" {rounds} across a migration",
                )
            if rounds > spu_spec.total_rounds:
                self._flag(
                    now_us, "fleet-progress-invented",
                    f"SPU {spu_spec.name!r} has {rounds} rounds of a"
                    f" possible {spu_spec.total_rounds}",
                )
            self._last_rounds[spu_spec.name] = rounds

        # --- capacity accounting -----------------------------------------
        expected = expected_capacity_integral(spec, now_us)
        actual = fleet.capacity_integral
        if actual != expected:
            self._flag(
                now_us, "fleet-capacity-accounting",
                f"runner accumulated {actual} mCPU-us online capacity;"
                f" fault plan implies {expected}",
            )
        if actual < self._last_integral:
            self._flag(
                now_us, "fleet-capacity-monotone",
                f"capacity integral fell {self._last_integral} -> {actual}",
            )
        self._last_integral = actual

        # --- no overcommit ------------------------------------------------
        for machine in fleet.machines:
            if not machine.online:
                continue
            committed = sum(
                (Fraction(h.spec.demand_mcpu) * h.fraction
                 for h in machine.hosted.values()),
                Fraction(0),
            )
            if committed > machine.capacity_mcpu:
                self._flag(
                    now_us, "fleet-overcommit",
                    f"machine {machine.index} committed {committed} mCPU"
                    f" of {machine.capacity_mcpu}",
                )

        # --- machine books ------------------------------------------------
        # The surfaced count lives on the machine (not here) because a
        # recovered machine gets a *new* per-machine watchdog and the
        # count must reset with it.
        for machine in fleet.machines:
            watchdog = getattr(machine, "watchdog", None)
            if watchdog is None:
                continue
            for violation in watchdog.violations[machine.violations_seen:]:
                self.violations.append(Violation(
                    time_us=now_us,
                    name=f"m{machine.index}:{violation.name}",
                    detail=violation.detail,
                ))
            machine.violations_seen = len(watchdog.violations)

    def _flag(self, now_us: int, name: str, detail: str) -> None:
        self.violations.append(Violation(now_us, name, detail))
