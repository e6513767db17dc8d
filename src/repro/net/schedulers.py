"""Link schedulers: FIFO (no isolation) and per-SPU fair share.

Fair sharing is the disk PIso policy minus the head position: an SPU's
decayed bytes-transferred count, divided by its bandwidth share, is
compared against the other queued SPUs; the neediest SPU transmits
next, FIFO within the SPU.  A threshold variant mirrors the disk's BW
difference threshold: below the threshold, plain FIFO order holds
(cheap, keeps packet trains together); an SPU that exceeds the mean by
the threshold is deferred.
"""

from __future__ import annotations

import abc
from typing import Iterable, Mapping, Protocol

from repro.net.packet import Packet


class ByteLedger(Protocol):
    """Per-SPU transmitted-byte accounting, decayed."""

    def usage_ratio(self, spu_id: int, now: int) -> float:
        ...


class LinkScheduler(abc.ABC):
    """Chooses the SPU whose oldest packet transmits next."""

    name = "abstract"

    @abc.abstractmethod
    def select(
        self, heads: Mapping[int, Packet], now: int, ledger: ByteLedger
    ) -> int:
        """Pick an SPU id from ``heads``.

        ``heads`` maps every SPU with packets queued (at least one) to
        its oldest queued packet.  Within one link packets arrive in
        ``packet_id`` order, so the lowest head id is the oldest packet
        on the link.
        """


def _oldest(heads: Mapping[int, Packet], spu_ids: Iterable[int]) -> int:
    return min(spu_ids, key=lambda s: heads[s].packet_id)


class FifoLinkScheduler(LinkScheduler):
    """Stock behaviour: strict arrival order, no isolation.

    A bulk sender's packet train queues ahead of everyone else —
    the network analogue of the disk's core-dump lockout.
    """

    name = "fifo"

    def select(self, heads, now, ledger):
        return _oldest(heads, heads)


class FairShareLinkScheduler(LinkScheduler):
    """Serve the SPU with the lowest bytes-per-share, FIFO within it."""

    name = "fair"

    def select(self, heads, now, ledger):
        ratios = {s: ledger.usage_ratio(s, now) for s in sorted(heads)}
        return min(ratios, key=lambda s: (ratios[s], s))


class ThresholdFairLinkScheduler(LinkScheduler):
    """FIFO until an SPU exceeds the mean usage ratio by a threshold.

    The network counterpart of the disk's BW difference threshold:
    0 degenerates to per-packet fair share, infinity to plain FIFO.
    """

    name = "threshold"

    def __init__(self, threshold: float):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.threshold = threshold

    def select(self, heads, now, ledger):
        if len(heads) <= 1:
            return _oldest(heads, heads)
        active = sorted(heads)
        ratios = [ledger.usage_ratio(s, now) for s in active]
        limit = sum(ratios) / len(active) + self.threshold
        # The rounded mean of equal ratios can fall just below them, so
        # under a zero threshold no SPU may pass: then FIFO over all.
        passing = [s for s, r in zip(active, ratios) if r <= limit] or active
        return _oldest(heads, passing)


def make_link_scheduler(name: str, threshold: float = 16384.0) -> LinkScheduler:
    """Build a link scheduler by policy name."""
    lowered = name.lower()
    if lowered == "fifo":
        return FifoLinkScheduler()
    if lowered == "fair":
        return FairShareLinkScheduler()
    if lowered == "threshold":
        return ThresholdFairLinkScheduler(threshold)
    raise ValueError(f"unknown link scheduling policy {name!r}")
