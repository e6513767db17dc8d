"""Declarative fault schedules.

A :class:`FaultPlan` is data, not behaviour: a validated list of fault
events at absolute simulated times.  The same plan can be armed against
machines running different allocation schemes, which is exactly how the
fault-isolation experiment compares SMP and PIso degradation under
identical hardware trouble.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Union


class FaultPlanError(ValueError):
    """Raised for ill-formed fault plans."""


def _finite(name: str, value: Any, event: Any) -> None:
    """Reject NaN/inf/non-numbers: ``NaN <= 0`` is False, so without
    this a NaN duration or timestamp would sail through the range
    checks and corrupt the engine's schedule much later."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(
            f"{name} must be a finite number, got {value!r} in {event!r}"
        )
    if not math.isfinite(value):
        raise FaultPlanError(
            f"{name} must be finite, got {value!r} in {event!r}"
        )


def _check_disk(disk: Any, event: Any) -> None:
    if isinstance(disk, bool) or not isinstance(disk, int):
        raise FaultPlanError(
            f"disk index must be an integer, got {disk!r} in {event!r}"
        )
    if disk < 0:
        raise FaultPlanError(
            f"disk index must be >= 0, got {disk} in {event!r}"
        )


@dataclass(frozen=True)
class DiskTransient:
    """A window during which a drive's service attempts error out.

    Each attempt inside the window fails independently with
    ``error_rate`` probability (drawn from the drive's forked RNG
    stream); the drive retries with exponential backoff per its
    :class:`~repro.disk.drive.RetryPolicy`.
    """

    at_us: int
    disk: int
    duration_us: int
    error_rate: float = 1.0

    def _validate(self) -> None:
        _finite("transient duration_us", self.duration_us, self)
        _finite("transient error_rate", self.error_rate, self)
        _check_disk(self.disk, self)
        if self.duration_us <= 0:
            raise FaultPlanError(
                f"transient window must last >= 1us, got {self.duration_us}"
            )
        if not 0.0 <= self.error_rate <= 1.0:
            raise FaultPlanError(f"error rate {self.error_rate} outside [0, 1]")


@dataclass(frozen=True)
class DiskFailure:
    """Permanent drive death; traffic fails over to a surviving mirror."""

    at_us: int
    disk: int

    def _validate(self) -> None:
        _check_disk(self.disk, self)


@dataclass(frozen=True)
class CpuRemove:
    """Hot-remove one processor (``cpu=None`` picks the highest online)."""

    at_us: int
    cpu: Optional[int] = None

    def _validate(self) -> None:
        return None


@dataclass(frozen=True)
class CpuAdd:
    """Bring an offlined processor back online (repair)."""

    at_us: int
    cpu: Optional[int] = None

    def _validate(self) -> None:
        return None


@dataclass(frozen=True)
class MemoryLoss:
    """Lose ``pages`` physical pages (a memory module dies)."""

    at_us: int
    pages: int

    def _validate(self) -> None:
        _finite("memory loss pages", self.pages, self)
        if self.pages <= 0:
            raise FaultPlanError(f"memory loss must remove >= 1 page, got {self.pages}")


FaultEvent = Union[DiskTransient, DiskFailure, CpuRemove, CpuAdd, MemoryLoss]


@dataclass
class FaultPlan:
    """A validated, time-ordered schedule of hardware faults."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            self._check(event)
        self._check_failures(self.events)
        self.events = sorted(self.events, key=lambda e: (e.at_us, type(e).__name__))

    @staticmethod
    def _check(event: FaultEvent) -> None:
        if not isinstance(
            event, (DiskTransient, DiskFailure, CpuRemove, CpuAdd, MemoryLoss)
        ):
            raise FaultPlanError(f"not a fault event: {event!r}")
        _finite("fault at_us", event.at_us, event)
        if event.at_us < 0:
            raise FaultPlanError(f"fault scheduled before boot: {event!r}")
        event._validate()

    @staticmethod
    def _check_failures(events: List[FaultEvent]) -> None:
        """A drive dies at most once: a second DiskFailure for the same
        disk means two permanent-death windows overlap (usually a sign
        two plans were merged), and the injector would half-apply it."""
        seen: Dict[int, int] = {}
        for event in events:
            if not isinstance(event, DiskFailure):
                continue
            if event.disk in seen:
                raise FaultPlanError(
                    f"disk {event.disk} dies twice (at {seen[event.disk]}us"
                    f" and {event.at_us}us); a DiskFailure is permanent, so"
                    " drop one of the two events"
                )
            seen[event.disk] = event.at_us

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append an event, keeping the plan ordered.  Returns self."""
        self._check(event)
        self._check_failures(self.events + [event])
        self.events.append(event)
        self.events.sort(key=lambda e: (e.at_us, type(e).__name__))
        return self

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # --- JSON round-trip ---------------------------------------------------
    #
    # Fuzz repro files embed the fault plan that was live when an
    # invariant broke; ``from_json(to_json(plan))`` must rebuild an
    # equal plan, re-running the same validation as the constructors.

    def to_dicts(self) -> List[Dict[str, Any]]:
        """The plan as plain dicts (``kind`` + the event's fields)."""
        out = []
        for event in self.events:
            record: Dict[str, Any] = {"kind": _KIND_OF[type(event)]}
            record.update(dataclasses.asdict(event))
            out.append(record)
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the plan to a JSON array of event objects."""
        return json.dumps(self.to_dicts(), indent=indent, sort_keys=True)

    @classmethod
    def from_dicts(cls, records: List[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output (re-validating)."""
        events: List[FaultEvent] = []
        for record in records:
            if not isinstance(record, dict) or "kind" not in record:
                raise FaultPlanError(f"fault record needs a 'kind': {record!r}")
            fields = dict(record)
            kind = fields.pop("kind")
            try:
                event_cls = _CLASS_OF[kind]
            except KeyError:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r};"
                    f" expected one of {sorted(_CLASS_OF)}"
                ) from None
            try:
                # Audited: _CLASS_OF maps to dataclasses in this module.
                events.append(event_cls(**fields))  # simlint: dynamic=factory-table
            except TypeError as exc:
                raise FaultPlanError(f"bad fields for {kind!r}: {exc}") from None
        return cls(events)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output back into a validated plan."""
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(records, list):
            raise FaultPlanError("fault plan JSON must be an array of events")
        return cls.from_dicts(records)


#: Stable wire names for each fault event class.
_KIND_OF = {
    DiskTransient: "disk_transient",
    DiskFailure: "disk_failure",
    CpuRemove: "cpu_remove",
    CpuAdd: "cpu_add",
    MemoryLoss: "memory_loss",
}
_CLASS_OF = {name: cls for cls, name in _KIND_OF.items()}
