"""Arming a :class:`~repro.faults.plan.FaultPlan` on a live kernel.

Each fault becomes an ordinary simulation event (``daemon=True`` — a
pending fault must not keep an otherwise-finished run alive).  The
injector validates the plan against the machine at arm time, so a plan
naming disk 7 on a two-disk machine fails fast instead of mid-run.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.faults.plan import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultPlan,
    FaultPlanError,
    MemoryLoss,
)
from repro.kernel.kernel import Kernel, KernelError


class FaultInjector:
    """Schedules a plan's faults against one kernel.

    ``on_error`` controls what happens when an event is *structurally*
    valid but illegal against the machine's state at fire time (e.g. a
    ``CpuAdd`` with nothing offline after delta-shrinking dropped its
    paired ``CpuRemove``): ``"raise"`` (default) propagates the
    :class:`~repro.kernel.kernel.KernelError`; ``"skip"`` logs the
    event as skipped and keeps going — what the fuzz runner uses so
    shrunken scenarios stay runnable.
    """

    def __init__(self, kernel: Kernel, plan: FaultPlan, on_error: str = "raise"):
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        self.kernel = kernel
        self.plan = plan
        self.on_error = on_error
        #: (time, description) log of faults actually applied.
        self.applied: List[Tuple[int, str]] = []
        #: (time, description) log of events skipped under on_error="skip".
        self.skipped: List[Tuple[int, str]] = []
        self._armed = False

    def arm(self) -> None:
        """Validate the plan against the machine and schedule it."""
        if self._armed:
            raise FaultPlanError("plan already armed")
        kernel = self.kernel
        ndisks = len(kernel.drives)
        for event in self.plan:
            if isinstance(event, (DiskTransient, DiskFailure)):
                if not 0 <= event.disk < ndisks:
                    raise FaultPlanError(
                        f"{event!r} names disk {event.disk};"
                        f" machine has {ndisks}"
                    )
            elif isinstance(event, (CpuRemove, CpuAdd)):
                if event.cpu is not None and not 0 <= event.cpu < kernel.config.ncpus:
                    raise FaultPlanError(
                        f"{event!r} names cpu {event.cpu};"
                        f" machine has {kernel.config.ncpus}"
                    )
            if event.at_us < kernel.engine.now:
                raise FaultPlanError(f"{event!r} is already in the past")
        for event in self.plan:
            kernel.engine.at(event.at_us, self._apply, event, daemon=True)
        self._armed = True

    # --- event application -------------------------------------------------

    def _apply(self, event) -> None:
        try:
            self._apply_checked(event)
        except KernelError as exc:
            if self.on_error != "skip":
                raise
            self.skipped.append((self.kernel.engine.now, f"{event!r}: {exc}"))

    def _apply_checked(self, event) -> None:
        kernel = self.kernel
        if isinstance(event, DiskTransient):
            drive = kernel.drives[event.disk]
            if drive.alive:
                drive.inject_transient(event.duration_us, event.error_rate)
                self._log(
                    f"disk {event.disk} transient errors for"
                    f" {event.duration_us}us (rate {event.error_rate})"
                )
            return
        if isinstance(event, DiskFailure):
            if kernel.drives[event.disk].alive:
                target = kernel.fail_disk(event.disk)
                self._log(f"disk {event.disk} died; failover to disk {target}")
            return
        if isinstance(event, CpuRemove):
            removed = kernel.remove_cpu(event.cpu)
            self._log(f"cpu {removed} hot-removed")
            return
        if isinstance(event, CpuAdd):
            added = kernel.add_cpu(event.cpu)
            self._log(f"cpu {added} hot-added")
            return
        if isinstance(event, MemoryLoss):
            removed = kernel.remove_memory(event.pages)
            self._log(f"memory module lost: {removed} pages decommissioned")
            return
        raise FaultPlanError(f"unknown fault event {event!r}")

    def _log(self, text: str) -> None:
        self.applied.append((self.kernel.engine.now, text))
