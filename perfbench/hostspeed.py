"""Host-speed sampling, so timings can be stated at a reference speed.

On a shared host the same code runs at very different speeds from one
second to the next: a fixed pure-Python loop flipped between about
8.5 ms and 14 ms a call every second or so, and a full ``paper_repro``
pass took 20 s in one ten-minute stretch and 30 s in the next.  No
choice of passes or medians inside a run removes drift that slow.

``HostSpeed`` measures the host while the workload runs: every
``PERIOD_S`` of wall time a ``SIGALRM`` handler times a fixed micro-loop
(``LOOP`` dictionary updates, about 35 us) in the measuring process,
between two bytecodes of whatever the workload is doing.  ``factor()``
is the trimmed mean of those times over ``REF_LOOP_S``, the loop's time
in the fast state of the host the benchmark's figures come from, so
``seconds / factor()`` is the time the same work would have taken at
that speed.  The loop is in this file, not in ``src/``, so a change to
the simulator cannot move it.

The normalisation assumes the workload slows in proportion to the
loop.  Measured on a 2-CPU shared host (CPython 3.11.7, sampling every
50 ms), pass to pass: ``interactive`` pass times spread 17.8%
(coefficient of variation) raw and 5.0% normalised; ``paper_repro``
7.6% raw and 4.1% normalised.  The fit is not exact: fitted over many
passes, pass time grew as the factor to the power 0.66-0.70 on
``interactive`` and 0.77-1.02 on the other two workloads.

Handlers and timers are per process and not inherited across
``fork``, so pool workers are not sampled; on ``fuzz_campaign`` the
measuring process samples the CPUs it shares with its two workers.
"""

from __future__ import annotations

import signal
import time
from typing import List

PERIOD_S = 0.01
LOOP = 300
#: About the loop's time in the fast state of the host the figures
#: come from (its median read 31-33 us in fast stretches); a fixed
#: unit, so scaled times from different runs and commits compare.
REF_LOOP_S = 30e-6
#: Share of samples dropped at each end before the mean: a sample that
#: catches the process being descheduled reads hundreds of times slower
#: than the state it samples.
TRIM = 0.1


class HostSpeed:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        d: dict = {}
        for i in range(LOOP):
            d[i & 63] = d.get(i & 63, 0) + i
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """How many times slower than the reference the host ran; 1.0
        when the sampled span was too short for a sample."""
        xs = sorted(self.samples)
        cut = int(len(xs) * TRIM)
        kept = xs[cut:len(xs) - cut] or xs
        if not kept:
            return 1.0
        return sum(kept) / len(kept) / REF_LOOP_S
