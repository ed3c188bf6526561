"""A token-ring network model (IEEE 802.5-style).

§4.6 of the paper attributes the loaded-network collapse to CSMA/CD
itself, not to remote paging: "it is still beneficial to use remote
memory paging over networks that employ other technologies (e.g. token
ring), as long as they are able to provide ... an effective bandwidth of
10 or more Mbps."  This model lets the reproduction *test* that claim
(gated in ``tests/experiments/test_paper_claims.py``): under the same offered load, a
token ring degrades gracefully (round-robin token passing, no
collisions) where the Ethernet collapses.

Model: a single token circulates; a station holding the token transmits
one queued frame (token-holding limit of one frame, early token
release), then passes the token on.  Passing costs the ring-latency
share per hop.  An idle ring still circulates the token, but idle hops
cost nothing to waiting stations beyond their arrival position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim import Event, Simulator, Store
from ..units import megabits_per_second, microseconds
from .base import Message, Network

__all__ = ["TokenRingSpec", "TokenRing"]


@dataclass(frozen=True)
class TokenRingSpec:
    """Ring parameters (16 Mbit/s IEEE 802.5 by default)."""

    bandwidth: float = megabits_per_second(16)
    mtu: int = 4096  # token ring allowed much larger frames than Ethernet
    frame_overhead: int = 21  # SD/AC/FC/addresses/FCS/ED/FS
    token_pass_time: float = microseconds(15)  # per-hop token latency

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.mtu <= 0:
            raise ValueError("bandwidth and mtu must be positive")
        if self.token_pass_time < 0:
            raise ValueError("token_pass_time must be non-negative")

    def frame_time(self, payload: int) -> float:
        """Wire time of one frame carrying ``payload`` bytes."""
        return (payload + self.frame_overhead) / self.bandwidth


class _RingStation:
    """Per-host frame queue."""

    def __init__(self, sim: Simulator):
        self.queue: List[tuple] = []  # (payload_size, message, is_last)


class TokenRing(Network):
    """Deterministic round-robin medium access: no collisions, ever."""

    def __init__(self, sim: Simulator, spec: Optional[TokenRingSpec] = None):
        super().__init__(sim)
        self.spec = spec or TokenRingSpec()
        self._pending_events: Dict[int, Event] = {}
        self._work = Store(sim)  # wakeups for the token process
        self._token_process = sim.process(self._circulate(), name="token-ring")

    # ------------------------------------------------------------- interface
    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        message = Message(src=src, dst=dst, nbytes=nbytes, enqueued_at=self.sim.now)
        self._require(dst)
        station: _RingStation = self._require(src)
        done = self.sim.event()
        self._pending_events[message.msg_id] = done
        sizes = self._fragments(nbytes)
        for i, size in enumerate(sizes):
            station.queue.append((size, message, i == len(sizes) - 1))
        self._work.put(None)
        return done

    # -------------------------------------------------------------- internals
    def _make_station(self, host: str) -> _RingStation:
        return _RingStation(self.sim)

    def _fragments(self, nbytes: int) -> List[int]:
        mtu = self.spec.mtu
        full, rest = divmod(nbytes, mtu)
        sizes = [mtu] * full
        if rest:
            sizes.append(rest)
        return sizes

    def _deliver(self, message: Message) -> None:
        self.stats.delivered(message)
        event = self._pending_events.pop(message.msg_id, None)
        if event is not None and not event.triggered:
            event.succeed(message)

    def _circulate(self):
        """The token: visit stations round robin, one frame per holding."""
        spec = self.spec
        while True:
            # Sleep until there is any queued frame anywhere.
            yield self._work.get()
            while True:
                stations = [s for s in self._hosts.values() if s.queue]
                if not stations:
                    break
                # One rotation: every backlogged station sends one frame.
                progressed = False
                for station in list(self._hosts.values()):
                    if not station.queue:
                        continue
                    _, head, _ = station.queue[0]
                    if self._crosses_partition(head.src, head.dst):
                        continue  # §2.2: stalled, not dropped
                    yield self.sim.timeout(spec.token_pass_time)
                    payload, message, is_last = station.queue.pop(0)
                    self.stats.wire.busy(self.sim.now)
                    yield self.sim.timeout(spec.frame_time(payload))
                    self.stats.wire.idle(self.sim.now)
                    self.stats.counters.add("frames")
                    progressed = True
                    if is_last:
                        self._deliver(message)
                if not progressed:
                    # Everything left is cut off: sleep until the heal.
                    yield from self._await_reachable(
                        *next(
                            (s.queue[0][1].src, s.queue[0][1].dst)
                            for s in stations
                            if s.queue
                        )
                    )
            # Drain stale wakeups so the store does not grow unboundedly.
            while self._work.try_get() is not None:
                pass
