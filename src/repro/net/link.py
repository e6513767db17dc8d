"""The network link: a serial transmitter with per-SPU packet queues.

A :class:`NetworkLink` transmits one packet at a time at the configured
line rate and charges transmitted bytes to the sending SPU's decayed
counter — the "sectors per second" scheme of Section 3.3 applied to
bytes.  Messages larger than the MTU are fragmented into packet trains
so that fair scheduling can interleave senders mid-message.

Each SPU's packets wait in their own FIFO, in arrival order.  Every
policy serves an SPU's packets oldest first, so the scheduler only sees
the head packet of each SPU with packets queued and picks an SPU: a
choice costs O(#SPUs), not O(queued packets).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.core.accounting import DecayedCounter
from repro.core.spu import SPURegistry
from repro.net.packet import LinkStats, MTU_BYTES, NetOp, Packet
from repro.net.schedulers import LinkScheduler
from repro.sim.engine import Engine
from repro.sim.units import MSEC, SEC


class NetByteLedger:
    """Decayed transmitted-bytes accounting per SPU for one link."""

    def __init__(self, registry: SPURegistry, decay_period: int = 500 * MSEC):
        self.registry = registry
        self.decay_period = decay_period
        self._counters: Dict[int, DecayedCounter] = {}

    def _counter(self, spu_id: int, now: int) -> DecayedCounter:
        counter = self._counters.get(spu_id)
        if counter is None:
            counter = DecayedCounter(period=self.decay_period, now=now)
            self._counters[spu_id] = counter
        return counter

    def _share(self, spu_id: int) -> int:
        entitled = self.registry.get(spu_id).disk_bw().entitled
        return entitled if entitled > 0 else 1

    def usage_ratio(self, spu_id: int, now: int) -> float:
        return self._counter(spu_id, now).value(now) / self._share(spu_id)

    def charge(self, spu_id: int, nbytes: int, now: int) -> None:
        self._counter(spu_id, now).add(nbytes, now)


class NetworkLink:
    """One serial link with a queue and a scheduling policy."""

    def __init__(
        self,
        engine: Engine,
        scheduler: LinkScheduler,
        ledger: NetByteLedger,
        bandwidth_mbps: float = 100.0,
        per_packet_overhead_us: int = 10,
        link_id: int = 0,
    ):
        if bandwidth_mbps <= 0:
            raise ValueError("link rate must be positive")
        self.engine = engine
        self.scheduler = scheduler
        self.ledger = ledger
        self.bandwidth_mbps = bandwidth_mbps
        self.per_packet_overhead_us = per_packet_overhead_us
        self.link_id = link_id
        # SPU id -> its queued packets, oldest first.  An SPU is a key
        # only while it has packets queued.
        self._queues: Dict[int, Deque[Packet]] = {}
        self.stats = LinkStats()
        self.busy = False

    def transmit_us(self, nbytes: int) -> int:
        """Serialization delay for one packet, plus fixed overhead."""
        return round(nbytes * 8 / self.bandwidth_mbps) + self.per_packet_overhead_us

    # --- sending ----------------------------------------------------------

    def send(
        self,
        spu_id: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        pid: int = -1,
    ) -> int:
        """Queue a message; fragments to MTU-sized packets.

        ``on_complete`` fires when the *last* fragment finishes.
        Returns the number of packets queued.
        """
        if nbytes <= 0:
            raise ValueError(f"message must carry >= 1 byte, got {nbytes}")
        sizes = [MTU_BYTES] * (nbytes // MTU_BYTES)
        if nbytes % MTU_BYTES:
            sizes.append(nbytes % MTU_BYTES)
        remaining = {"count": len(sizes)}

        def fragment_done(_packet: Packet) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0 and on_complete is not None:
                on_complete()  # simlint: dynamic=continuation

        for size in sizes:
            self._enqueue(Packet(spu_id, NetOp.SEND, size,
                                 on_complete=fragment_done, pid=pid))
        return len(sizes)

    def _enqueue(self, packet: Packet) -> None:
        packet.enqueue_time = self.engine.now
        queue = self._queues.get(packet.spu_id)
        if queue is None:
            queue = self._queues[packet.spu_id] = deque()
        queue.append(packet)
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queues:
            self.busy = False
            return
        self.busy = True
        heads = {spu_id: queue[0] for spu_id, queue in self._queues.items()}
        spu_id = self.scheduler.select(heads, self.engine.now, self.ledger)
        queue = self._queues[spu_id]
        packet = queue.popleft()
        if not queue:
            del self._queues[spu_id]
        packet.start_time = self.engine.now
        self.engine.call_after(self.transmit_us(packet.nbytes), self._complete, packet)

    def _complete(self, packet: Packet) -> None:
        packet.finish_time = self.engine.now
        self.ledger.charge(packet.spu_id, packet.nbytes, self.engine.now)
        self.stats.record(packet)
        self._start_next()
        if packet.on_complete is not None:
            packet.on_complete(packet)  # simlint: dynamic=callback-field

    def queue_depth(self) -> int:
        """Packets queued, not counting the one being transmitted."""
        return sum(len(queue) for queue in self._queues.values())
