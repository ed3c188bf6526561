"""A full-duplex switched network (the paper's FDDI/ATM stand-in).

Figure 4 of the paper extrapolates to "a network that provides ten times
more bandwidth than the Ethernet".  This model lets us *simulate* such a
network directly (and validate the paper's analytic extrapolation against
it): every host has a dedicated full-duplex link to a non-blocking switch,
so there are no collisions and concurrent transfers between disjoint host
pairs proceed in parallel.  A transfer is store-and-forward at message
granularity: it serialises on the sender's uplink, pays a per-hop switch
latency, then serialises on the receiver's downlink.

**Analytic fast path.**  The uncontended walk is pure float arithmetic —
this model draws no randomness at all — so when a transfer starts with
its source uplink and destination downlink both free (no holder, no
waiters, no other analytic hold on either port), every boundary of the
store-and-forward chain is precomputed in the exact float order the
chained timeouts would produce::

    t_wire_end = now + wire          # uplink serialisation done
    t_hop_end  = t_wire_end + hop    # switch forwarding delay
    t_end      = t_hop_end + drain   # last frame drained downlink

and the whole message parks on ONE kernel event at ``t_end`` — a *fast
hold*.  Unlike the shared Ethernet (one medium, one hold), holds here
are per port pair: a 64-client fleet paging over disjoint links runs
every active transfer analytically at once.  Wire-utilisation marks are
applied lazily through a global time-ordered mark queue (holds from many
port pairs overlap, so marks must settle in time order across all of
them), settled whenever utilisation is read or a direct event-driven
mark needs the wire.  If a second flow lands on a busy port — another
transfer reaching ``tx.acquire`` on the held source, or ``rx.acquire``
on the held destination — the hold is **devirtualized**: the exact
event-driven state at that instant (mid-uplink / in the switch hop /
draining the downlink) is reconstructed from the precomputed boundaries,
the real ``Resource`` is re-acquired where the event-driven walk would
be holding it, and both flows continue under ordinary per-event
simulation, FIFO port queueing and all.

Results are byte-identical to the per-event walk (``tests/net/
test_analytic_switched.py`` sweeps arrival offsets across every
boundary, including exact hits).  ``analytic=False`` (the builder's
``analytic_switched=False``) pins the per-event walk for A/B checks;
chaos wrappers with nonzero fault rates clear the flag outright,
exactly as they do for the analytic Ethernet.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..config import SwitchedNetworkSpec
from ..sim import Event, Resource, Simulator
from .base import Message, Network

__all__ = ["SwitchedNetwork"]


class _Port:
    """One host's full-duplex switch port: independent tx and rx sides.

    ``bandwidth`` may differ per host — §5's *heterogeneous networks*,
    where "the time it takes to transfer a page may not be identical for
    each server" and the memory hierarchy grows extra levels.
    """

    def __init__(self, sim: Simulator, bandwidth: Optional[float] = None):
        self.tx = Resource(sim, capacity=1)
        self.rx = Resource(sim, capacity=1)
        self.bandwidth = bandwidth


class _Hold:
    """One analytically-served transfer: precomputed chain boundaries.

    ``t_wire_end``/``t_hop_end``/``t_end`` are the exact floats the
    event-driven walk would reach (same accumulation order).  ``drain``
    is kept for devirtualized resumes whose downlink grant may be
    delayed by a queue the precomputation could not have seen.  ``seq``
    is the heap tie-break rank claimed at hold creation — the rank the
    event-driven chain would occupy — inherited by a devirtualized
    resume's first pinned boundary so same-instant ties keep firing in
    event-driven order.  ``draining`` marks a hold devirtualized mid-
    drain: the rx is re-held on its behalf and the original ``t_end``
    heap entry releases and delivers.
    """

    __slots__ = (
        "message", "src_port", "dst_port", "done",
        "t_start", "t_wire_end", "t_hop_end", "t_end", "drain", "seq",
        "active", "draining",
    )

    def __init__(self, message, src_port, dst_port, done,
                 t_start, t_wire_end, t_hop_end, t_end, drain, seq):
        self.message = message
        self.src_port = src_port
        self.dst_port = dst_port
        self.done = done
        self.t_start = t_start
        self.t_wire_end = t_wire_end
        self.t_hop_end = t_hop_end
        self.t_end = t_end
        self.drain = drain
        self.seq = seq
        self.active = True
        self.draining = False


class SwitchedNetwork(Network):
    """Non-blocking switch with per-host full-duplex links.

    When a transfer's port pair is uncontended the whole chain is served
    analytically (see the module docstring); ``analytic=False`` pins the
    per-event walk.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[SwitchedNetworkSpec] = None,
        analytic: bool = True,
    ):
        super().__init__(sim)
        self.spec = spec or SwitchedNetworkSpec()
        self.analytic = analytic
        #: Active holds by source host (uplink side) and destination
        #: host (downlink side).  A host appears in at most one of each.
        self._tx_holds: Dict[str, _Hold] = {}
        self._rx_holds: Dict[str, _Hold] = {}
        #: Deferred wire busy(+1)/idle(-1) marks from analytic holds, a
        #: min-heap on (time, tiebreak).  Holds overlap across disjoint
        #: port pairs, so marks must settle in global time order; the
        #: tiebreak keeps settlement stable (same-instant marks are
        #: order-insensitive for the depth-counted tracker).
        self._marks: List[Tuple[float, int, int]] = []
        self._mark_seq = 0
        # Settle lazy hold accounting before anyone reads utilisation.
        self.stats._pre_read = self._settle_now

    def attach(self, host: str, bandwidth: Optional[float] = None) -> None:
        """Register ``host``; ``bandwidth`` overrides the network default
        for this host's link (heterogeneous clusters, §5)."""
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        if host not in self._hosts:
            self._hosts[host] = _Port(self.sim, bandwidth)
        elif bandwidth is not None:
            self._hosts[host].bandwidth = bandwidth

    def host_bandwidth(self, host: str) -> float:
        """The effective link rate of ``host`` (bytes/second)."""
        port: _Port = self._require(host)
        return port.bandwidth if port.bandwidth is not None else self.spec.bandwidth

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        message = Message(src=src, dst=dst, nbytes=nbytes, enqueued_at=self.sim.now)
        src_port: _Port = self._require(src)
        dst_port: _Port = self._require(dst)
        done = self.sim.event()
        # Every transfer claims one heap rank at creation.  The fast
        # path parks its single t_end entry there; both walks carry it
        # as the chain's age, which decides boundary-tie verdicts when
        # a hold is devirtualized at exactly one of its boundaries.
        chain_seq = self.sim.claim_seq()
        if not self._try_fast_hold(message, src_port, dst_port, done, chain_seq):
            self.sim.process(
                self._move(message, src_port, dst_port, done, chain_seq),
                name=f"xfer:{src}->{dst}",
            )
        return done

    def _make_station(self, host: str) -> _Port:
        return _Port(self.sim)

    def _wire_time(self, nbytes: int, bandwidth: Optional[float] = None) -> float:
        """Serialisation time including per-frame framing overhead."""
        spec = self.spec
        full, rest = divmod(nbytes, spec.mtu)
        frames = full + (1 if rest else 0)
        rate = bandwidth if bandwidth is not None else spec.bandwidth
        return (nbytes + frames * spec.frame_overhead) / rate

    def _chain_times(self, nbytes: int, src_port: _Port, dst_port: _Port):
        """(wire, drain) for one transfer — the event-driven floats."""
        spec = self.spec
        src_rate = src_port.bandwidth if src_port.bandwidth is not None else spec.bandwidth
        dst_rate = dst_port.bandwidth if dst_port.bandwidth is not None else spec.bandwidth
        wire = self._wire_time(nbytes, bandwidth=min(src_rate, dst_rate))
        last_frame = nbytes % spec.mtu or spec.mtu
        drain = (min(last_frame, nbytes) + spec.frame_overhead) / dst_rate
        return wire, drain

    # -- lazy wire accounting ------------------------------------------------
    def _push_mark(self, when: float, delta: int) -> None:
        self._mark_seq += 1
        heapq.heappush(self._marks, (when, self._mark_seq, delta))

    def _settle_marks(self, now: float) -> None:
        """Apply every deferred busy/idle mark due by ``now``, in time
        order — exactly the marks the event-driven walk would have made."""
        marks = self._marks
        wire = self.stats.wire
        while marks and marks[0][0] <= now:
            when, _, delta = heapq.heappop(marks)
            if delta > 0:
                wire.busy(when)
            else:
                wire.idle(when)

    def _settle_now(self) -> None:
        """``stats._pre_read`` hook."""
        self._settle_marks(self.sim.now)

    def _wire_busy(self) -> None:
        """Direct (event-driven) busy mark; settles deferred marks first
        so the depth-counted tracker always sees time move forward."""
        now = self.sim.now
        self._settle_marks(now)
        self.stats.wire.busy(now)

    def _wire_idle(self) -> None:
        now = self.sim.now
        self._settle_marks(now)
        self.stats.wire.idle(now)

    # -- analytic fast path --------------------------------------------------
    def _try_fast_hold(self, message: Message, src_port: _Port,
                       dst_port: _Port, done: Event, chain_seq: int) -> bool:
        """Serve the transfer analytically if its port pair is free.

        Eligibility is strict: fast path enabled, no partition between
        the endpoints, and both the source uplink and destination
        downlink completely free — no holder, no queued waiter, and no
        other analytic hold registered on the port.  An event-driven
        transfer that will *later* claim one of these ports (it is
        mid-hop, or stalled at a partition) is caught at its own
        ``acquire`` site, which devirtualizes this hold first.
        """
        if not self.analytic:
            return False
        src, dst = message.src, message.dst
        if self._crosses_partition(src, dst):
            return False
        if src in self._tx_holds or dst in self._rx_holds:
            return False
        if src_port.tx.in_use or src_port.tx.queue_length:
            return False
        if dst_port.rx.in_use or dst_port.rx.queue_length:
            return False
        wire, drain = self._chain_times(message.nbytes, src_port, dst_port)
        now = self.sim.now
        t_wire_end = now + wire
        t_hop_end = t_wire_end + self.spec.per_hop_latency
        t_end = t_hop_end + drain
        # The hold's one heap entry sits at the chain's creation rank;
        # devirtualized resumes re-enter the heap at this rank (see
        # _resume_move).
        hold = _Hold(
            message, src_port, dst_port, done,
            now, t_wire_end, t_hop_end, t_end, drain, chain_seq,
        )
        self._tx_holds[src] = hold
        self._rx_holds[dst] = hold
        self._push_mark(now, +1)
        self._push_mark(t_wire_end, -1)
        # One kernel event closes the hold; a callback (no process) keeps
        # the uncontended cost at a single heap entry per message.
        self.sim.at(t_end, seq=chain_seq).callbacks.append(
            lambda _event, hold=hold: self._complete_hold(hold)
        )
        return True

    def _pinned_seq(self, hold: _Hold, when: float) -> Optional[int]:
        """The rank for a resume's first pinned boundary: the hold's
        creation rank, unless that would collide with the original
        ``t_end`` entry still queued at the same (time, rank)."""
        return hold.seq if when < hold.t_end else None

    def _complete_hold(self, hold: _Hold) -> None:
        if hold.draining:
            # Devirtualized mid-drain: the rx was re-acquired on the
            # hold's behalf and this entry — whose creation-time rank
            # the event-driven chain shares — releases and delivers,
            # exactly as the untouched analytic completion would.
            hold.draining = False
            hold.active = False
            hold.dst_port.rx.release()
            self._settle_marks(self.sim.now)
            self._deliver(hold.message, hold.done)
            return
        if not hold.active:  # devirtualized meanwhile
            return
        hold.active = False
        del self._tx_holds[hold.message.src]
        del self._rx_holds[hold.message.dst]
        self._settle_marks(self.sim.now)
        self._deliver(hold.message, hold.done)

    def _devirt_tx(self, host: str, chain_seq: int) -> None:
        hold = self._tx_holds.get(host)
        if hold is not None:
            self._devirtualize(hold, chain_seq)

    def _devirt_rx(self, host: str, chain_seq: int) -> None:
        hold = self._rx_holds.get(host)
        if hold is not None:
            self._devirtualize(hold, chain_seq)

    def _devirtualize(self, hold: _Hold, chain_seq: int) -> None:
        """A second flow is about to touch a held port: reconstruct the
        exact event-driven state at this instant and resume there.

        The chain boundaries split ``now`` into three windows:

        * ``now < t_wire_end`` — mid-uplink: the source tx is held (the
          real ``Resource`` is re-acquired here, so the newcomer queues
          FIFO behind it exactly as the event-driven walk would);
        * before the hop ends — in the switch: both ports free; the
          resume process claims the downlink at ``t_hop_end`` through
          the ordinary ``rx.acquire`` so a racing flow wins or loses the
          port by arrival order, and a delayed grant stretches the drain
          start exactly as it would event-driven;
        * otherwise — draining: the destination rx is re-acquired on the
          hold's behalf (before the newcomer's own acquire can queue)
          and the original ``t_end`` heap entry releases and delivers.

        Boundary ties follow the event-driven ordering on three counts.
        A *strict* boundary hit (the newcomer's chain at exactly a hold
        boundary) is classified by chain age: both chains' same-instant
        heap entries fire in creation-rank order, so a hold *older* than
        the arriving chain (``hold.seq < chain_seq``) has already passed
        the boundary when the newcomer arrives, while a newer hold has
        not — e.g. a newer hold met at exactly its ``t_hop_end`` has not
        yet acquired the downlink, and must queue behind the older
        arrival just as the event-driven FIFO would make it.  A
        zero-latency hop created *at* the tie instant has likewise not
        fired — hence the ``t_hop_end == t_wire_end`` special case.  And
        the resume's first pinned boundary re-enters the heap at the
        hold's creation-time rank (``hold.seq``), not a fresh one: a
        sibling chain started at the same instant (two equal-size
        pageouts racing for one downlink) would otherwise out-rank the
        resume at a shared boundary and steal a port grant the
        event-driven FIFO gives to the older chain.  The wire marks
        pushed at hold creation stay queued: the uplink's timing was
        committed when the port was granted, so they are exact
        regardless of what happens after devirtualization.
        """
        now = self.sim.now
        del self._tx_holds[hold.message.src]
        del self._rx_holds[hold.message.dst]
        self._settle_marks(now)
        newer = chain_seq < hold.seq  # hold's boundary events fire after
        if now >= hold.t_end and not (now == hold.t_end and newer):
            # The completion callback lost the timestep tie: the message
            # is already fully drained; deliver, as the callback would.
            hold.active = False
            self._deliver(hold.message, hold.done)
            return
        if now < hold.t_wire_end or (now == hold.t_wire_end and newer):
            hold.active = False
            phase = "wire"
            grant = hold.src_port.tx.acquire()  # free by construction
        elif (now < hold.t_hop_end
              or (now == hold.t_hop_end and newer)
              or hold.t_hop_end == hold.t_wire_end):
            hold.active = False
            phase = "hop"
        else:
            # Draining: completion stays with the original t_end entry
            # (see _complete_hold), which already holds the chain's
            # creation-time rank — no resume process needed.
            hold.draining = True
            grant = hold.dst_port.rx.acquire()  # free by construction
            return
        self.sim.process(
            self._resume_move(hold, phase),
            name=f"xfer:{hold.message.src}->{hold.message.dst}",
        )

    def _resume_move(self, hold: _Hold, phase: str):
        """Continue a devirtualized transfer from ``phase``, pinned to
        the precomputed absolute boundaries (``sim.at``) so no float is
        ever re-derived from a relative delay.  The first pinned
        boundary inherits the hold's creation-time heap rank; later
        boundaries draw fresh ranks at the instants the event-driven
        walk would draw them."""
        sim = self.sim
        if phase == "wire":
            yield sim.at(hold.t_wire_end, seq=self._pinned_seq(hold, hold.t_wire_end))
            # The deferred idle mark at t_wire_end settles on its own.
            hold.src_port.tx.release()
            # Fresh rank: the event-driven hop timeout is allocated at
            # this firing position too.
            yield sim.at(hold.t_hop_end)
        else:  # hop
            yield sim.at(hold.t_hop_end, seq=self._pinned_seq(hold, hold.t_hop_end))
        self._devirt_rx(hold.message.dst, hold.seq)
        yield hold.dst_port.rx.acquire()
        try:
            yield sim.timeout(hold.drain)
        finally:
            hold.dst_port.rx.release()
        self._deliver(hold.message, hold.done)

    # -- event-driven walk ---------------------------------------------------
    def _move(self, message: Message, src_port: _Port, dst_port: _Port,
              done: Event, chain_seq: int):
        """Uplink serialisation, switch hop, downlink drain.

        The switch forwards frame-by-frame, so the downlink overlaps the
        uplink except for the final frame's drain time.  The downlink port
        is held for that drain so concurrent senders to one receiver still
        serialise where it matters.
        """
        yield from self._await_reachable(message.src, message.dst)
        wire, drain = self._chain_times(message.nbytes, src_port, dst_port)
        # An analytic hold cannot share a port with a second flow:
        # materialise its exact event-driven state before queueing.
        self._devirt_tx(message.src, chain_seq)
        yield src_port.tx.acquire()
        self._wire_busy()
        try:
            yield self.sim.timeout(wire)  # uplink serialisation
        finally:
            self._wire_idle()
            src_port.tx.release()
        yield self.sim.timeout(self.spec.per_hop_latency)
        self._devirt_rx(message.dst, chain_seq)
        yield dst_port.rx.acquire()
        try:
            yield self.sim.timeout(drain)
        finally:
            dst_port.rx.release()
        self._deliver(message, done)

    def _deliver(self, message: Message, done: Event) -> None:
        self.stats.delivered(message)
        if not done.triggered:
            done.succeed(message)
