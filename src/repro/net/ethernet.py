"""A shared-medium CSMA/CD Ethernet model (frame level).

This is the paper's interconnect: a single 10 Mbit/s coaxial segment shared
by every workstation.  The model captures the three behaviours the
evaluation depends on:

1. **Idle-network page latency** — an 8 KB page fragments into six frames;
   each pays wire time, an interframe gap, and one contention slot, giving
   the ~8–9 ms/page the paper measures (§3.1, §4.4).
2. **Serialisation** — only one station transmits at a time, so concurrent
   transfers (mirroring's two copies, background traffic) queue.
3. **Collision collapse** (§4.6) — when several stations contend, frames
   collide; binary exponential backoff resolves them at the cost of
   dramatically reduced effective bandwidth.

Mechanics: a station that wants to transmit carrier-senses, waits for the
interframe gap, and *begins*.  All stations that begin within one
contention slot of each other collide: the channel carries a jam, everyone
backs off a random number of slots (binary exponential, capped), and
retries.  A sole beginner wins the channel for its frame time.  This is
the standard abstract CSMA/CD model (Tanenbaum §3, which the paper cites
for the collapse behaviour).

**Analytic fast path.**  On an *uncontended* medium the frame-level walk
is pure arithmetic: no collision can occur, so no backoff RNG is drawn,
and every boundary of every frame — gap end, transmit start, transmit
end — is a deterministic float chain.  When a message starts with the
channel idle and no other sender active, the model computes all of those
boundaries up front (in exactly the float order the chained frame-level
timeouts would produce), schedules ONE completion event at the last
frame's end, and parks the sender on it — a *fast hold*.  Wire-
utilisation marks and frame counters are applied lazily, settled
whenever someone reads utilisation or the hold ends.  If a second sender
shows up mid-hold, the hold is **devirtualized**: the exact frame-level
state at that instant (idle-in-gap / contending / transmitting) is
reconstructed from the precomputed boundaries and both senders continue
under the ordinary CSMA/CD machinery, collisions and all.  Results are
byte-identical to frame-level execution; ``analytic=False`` (the
builder's ``analytic_ethernet=False``) forces the frame-level walk for
A/B checks, and chaos wrappers disable the fast path outright.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..config import EthernetSpec
from ..sim import Event, RngRegistry, Simulator, Store
from .base import Message, Network

__all__ = ["EthernetCsmaCd"]

#: Channel states.
_IDLE = "idle"
_CONTEND = "contend"
_BUSY = "busy"
_JAM = "jam"
_FAST = "fast"  # analytic hold in progress (uncontended, precomputed)


class _Station:
    """Per-host transmit queue and its sender process."""

    def __init__(self, net: "EthernetCsmaCd", host: str):
        self.net = net
        self.host = host
        self.queue: Store = Store(net.sim)
        self.rng: random.Random = net.rngs.stream(f"ethernet.{host}")
        self.process = net.sim.process(self._run(), name=f"eth-station:{host}")

    def _run(self):
        net = self.net
        while True:
            message: Message = yield self.queue.get()
            net._active_sends += 1
            try:
                # §2.2: a partition stalls the sender; nothing is dropped.
                yield from net._await_reachable(message.src, message.dst)
                payloads = net._fragments(message.nbytes)
                k = 0
                hold = net._try_fast_hold(self, payloads)
                if hold is not None:
                    # Park on the hold.  It resolves either to
                    # ("done", n) — all frames sent analytically — or,
                    # after a devirtualization, to a precise resume
                    # point: ("frame", k, oc) continues frame k from
                    # its in-progress contention outcome ``oc``;
                    # ("resume", k) retries frame k from carrier sense.
                    resume = yield hold.outcome
                    if resume[0] == "done":
                        k = len(payloads)
                    else:
                        k = resume[1]
                        if resume[0] == "frame":
                            yield from net._send_frame(
                                self, payloads[k], first_outcome=resume[2]
                            )
                            k += 1
                while k < len(payloads):
                    yield from net._send_frame(self, payloads[k])
                    k += 1
                net._deliver(message)
            finally:
                net._active_sends -= 1


class _FastHold:
    """Precomputed frame boundaries for one analytically-served message.

    ``begins[k]``/``starts[k]``/``ends[k]`` are the gap end, transmit
    start, and transmit end of frame ``k`` — the exact instants the
    frame-level walk would reach (same float accumulation order).
    ``flushed``/``busy_open`` track how much of the wire accounting has
    been settled (it is applied lazily, on reads and at the end).
    """

    __slots__ = (
        "station", "begins", "starts", "ends", "frame_times",
        "outcome", "flushed", "busy_open", "active",
    )

    def __init__(self, station, begins, starts, ends, frame_times, outcome):
        self.station = station
        self.begins = begins
        self.starts = starts
        self.ends = ends
        self.frame_times = frame_times
        self.outcome = outcome
        self.flushed = 0
        self.busy_open = False
        self.active = True


class EthernetCsmaCd(Network):
    """Single shared segment with CSMA/CD arbitration.

    ``transfer`` enqueues a message on the source station; the station
    sends the message's frames back-to-back (re-contending for the channel
    per frame, as real Ethernet does).  When the medium is uncontended the
    whole message is served analytically (see the module docstring);
    ``analytic=False`` pins the frame-level walk.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[EthernetSpec] = None,
        rngs: Optional[RngRegistry] = None,
        analytic: bool = True,
    ):
        super().__init__(sim)
        self.spec = spec or EthernetSpec()
        self.rngs = rngs or RngRegistry(seed=0)
        self.analytic = analytic
        self._state = _IDLE
        self._contenders: List[tuple] = []  # (station, frame_time, event)
        self._idle_waiters: List[Event] = []
        self._pending_events: Dict[int, Event] = {}
        self._drops = 0
        self._active_sends = 0
        self._fast_hold: Optional[_FastHold] = None
        # Settle lazy hold accounting before anyone reads utilisation.
        self.stats._pre_read = self._flush_fast_hold

    # ------------------------------------------------------------- interface
    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        message = Message(src=src, dst=dst, nbytes=nbytes, enqueued_at=self.sim.now)
        self._require(dst)  # destination must exist (else packets vanish)
        station: _Station = self._require(src)
        done = self.sim.event()
        self._pending_events[message.msg_id] = done
        station.queue.put(message)
        return done

    @property
    def collisions(self) -> int:
        """Total collision events observed since construction."""
        return self.stats.counters["collisions"]

    @property
    def drops(self) -> int:
        """Frames abandoned after the attempt limit (sender retries later)."""
        return self._drops

    # -------------------------------------------------------------- internals
    def _make_station(self, host: str) -> _Station:
        return _Station(self, host)

    def _fragments(self, nbytes: int) -> List[int]:
        """Split a message into MTU-sized frame payloads."""
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

    # -- analytic fast path -------------------------------------------------
    def _try_fast_hold(self, station: _Station, payloads: List[int]) -> Optional[_FastHold]:
        """Serve a whole message analytically if the medium is uncontended.

        Eligibility is strict: fast path enabled, channel idle, nobody
        contending or carrier-sense-parked, and this is the ONLY active
        send (a sender mid-gap or mid-backoff leaves the channel ``idle``
        while still being about to use it — ``_active_sends`` sees it).
        The uncontended walk draws no RNG, so skipping it leaves every
        backoff stream untouched.
        """
        if not self.analytic or not payloads:
            return None
        if self._state != _IDLE or self._active_sends != 1:
            return None
        if self._contenders or self._idle_waiters:
            return None
        spec = self.spec
        gap, slot = spec.interframe_gap, spec.slot_time
        begins: List[float] = []
        starts: List[float] = []
        ends: List[float] = []
        frame_times: List[float] = []
        # Accumulate boundaries in the frame-level float order: each
        # chained timeout wakes at (previous instant + delay), so the
        # association below is exactly what the kernel would compute.
        t = self.sim.now
        for payload in payloads:
            frame_time = spec.frame_time(payload)
            b = t + gap
            s = b + slot
            e = s + frame_time
            begins.append(b)
            starts.append(s)
            ends.append(e)
            frame_times.append(frame_time)
            t = e
        hold = _FastHold(station, begins, starts, ends, frame_times, self.sim.event())
        self._state = _FAST
        self._fast_hold = hold
        self.sim.process(self._complete_fast_hold(hold), name="eth-fast")
        return hold

    def _complete_fast_hold(self, hold: _FastHold):
        """One kernel event at the last frame's end closes the hold."""
        yield self.sim.at(hold.ends[-1])
        if not hold.active:  # devirtualized (or completed) meanwhile
            return
        hold.active = False
        self._fast_hold = None
        hold.outcome.succeed(("done", len(hold.ends)))
        self._flush_hold(hold, self.sim.now)
        self._state = _IDLE

    def _flush_fast_hold(self) -> None:
        """``stats._pre_read`` hook: settle the active hold up to now."""
        hold = self._fast_hold
        if hold is not None:
            self._flush_hold(hold, self.sim.now)

    def _flush_hold(self, hold: _FastHold, now: float) -> None:
        """Apply the wire marks and frame counters the frame-level walk
        would have produced by ``now`` (busy at each begin, idle at each
        end, one ``frames`` count per completed frame), in time order."""
        wire = self.stats.wire
        counters = self.stats.counters
        k = hold.flushed
        ends = hold.ends
        n = len(ends)
        while k < n and ends[k] <= now:
            if not hold.busy_open:
                wire.busy(hold.begins[k])
            wire.idle(ends[k])
            hold.busy_open = False
            counters.add("frames")
            k += 1
        hold.flushed = k
        if k < n and not hold.busy_open and hold.begins[k] <= now:
            wire.busy(hold.begins[k])
            hold.busy_open = True

    def _devirtualize(self) -> None:
        """A second sender arrived mid-hold: reconstruct the exact
        frame-level state at this instant and resume the owner there.

        With boundaries ``b <= s <= e`` per frame, ``now`` falls in one
        of three windows of the first unfinished frame ``k``:

        * ``now >= s_k`` — mid-transmission: channel ``busy``, a resolver
          finishes frame ``k`` at ``e_k`` (case A);
        * ``now >= b_k`` — in the contention slot: channel ``contend``
          with the owner as sole contender so far, resolution at ``s_k``
          (case B) — the newcomer may still join and collide, which is
          precisely why the hold cannot survive;
        * else — in the interframe gap: channel ``idle``; the owner's
          gap expires at ``b_k`` and it begins then, unless the newcomer
          seized the channel first (case C).
        """
        hold = self._fast_hold
        assert hold is not None
        now = self.sim.now
        hold.active = False
        self._fast_hold = None
        self._flush_hold(hold, now)
        k = hold.flushed
        if k >= len(hold.ends):
            # now >= e_last and the completion shim lost the timestep
            # tie: the message is already fully transmitted.
            self._state = _IDLE
            hold.outcome.succeed(("done", k))
            return
        if now >= hold.starts[k]:  # case A
            self._state = _BUSY
            self.sim.process(self._finish_fast_frame(hold, k), name="eth-resolve")
        elif now >= hold.begins[k]:  # case B
            outcome = self.sim.event()
            self._state = _CONTEND
            self._contenders = [(hold.station, hold.frame_times[k], outcome)]
            self.sim.process(self._resolve(until=hold.starts[k]), name="eth-resolve")
            hold.outcome.succeed(("frame", k, outcome))
        else:  # case C
            self._state = _IDLE
            self.sim.process(
                self._begin_fast_frame(hold, k),
                name=f"eth-gap:{hold.station.host}",
            )

    def _finish_fast_frame(self, hold: _FastHold, k: int):
        """Case A resolver: frame ``k`` was mid-air at devirtualization;
        complete it at its precomputed end, exactly as ``_resolve`` would
        (owner first, then channel release, then parked waiters)."""
        yield self.sim.at(hold.ends[k])
        hold.outcome.succeed(("resume", k + 1))
        self.stats.counters.add("frames")
        self._state = _IDLE
        self.stats.wire.idle(self.sim.now)
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def _begin_fast_frame(self, hold: _FastHold, k: int):
        """Case C shim: stand in for the owner's in-flight gap timeout.
        At the gap's end, re-check the channel exactly as the frame-level
        loop does and either begin frame ``k`` or send the owner back to
        carrier sense."""
        yield self.sim.at(hold.begins[k])
        if self._state in (_IDLE, _CONTEND):
            outcome = self._begin(hold.station, hold.frame_times[k])
            hold.outcome.succeed(("frame", k, outcome))
        else:
            hold.outcome.succeed(("resume", k))

    # -- CSMA/CD state machine ---------------------------------------------
    def _send_frame(self, station: _Station, payload: int, first_outcome: Optional[Event] = None):
        """Generator: contend for the channel and transmit one frame.

        Follows 802.3: carrier sense, interframe gap, transmit; on
        collision, jam and back off ``r`` slots with ``r`` uniform in
        ``[0, 2^min(attempts, 10))``; after ``max_attempts`` the frame is
        counted as dropped and retried from a fresh backoff state (the
        paging layer cannot afford to lose frames; real TCP would
        retransmit with the same net effect).

        ``first_outcome`` resumes a devirtualized fast hold: the frame's
        first attempt is already registered with the channel and this
        generator picks up waiting for its outcome.
        """
        spec = self.spec
        frame_time = spec.frame_time(payload)
        attempts = 0
        while True:
            if first_outcome is not None:
                pending, first_outcome = first_outcome, None
                outcome = yield pending
            else:
                # An analytic hold cannot coexist with a second sender:
                # materialise its exact frame-level state before touching
                # the channel.
                if self._fast_hold is not None:
                    self._devirtualize()
                # Carrier sense: wait for an idle channel.
                while self._state not in (_IDLE, _CONTEND):
                    waiter = self.sim.event()
                    self._idle_waiters.append(waiter)
                    yield waiter
                # Interframe gap, then check the channel is still free.
                yield self.sim.timeout(spec.interframe_gap)
                if self._state not in (_IDLE, _CONTEND):
                    continue
                outcome = yield self._begin(station, frame_time)
            if outcome == "won":
                return
            # Collision: binary exponential backoff.
            attempts += 1
            self.stats.counters.add("station_collisions")
            if attempts >= spec.max_attempts:
                self._drops += 1
                attempts = 0  # excessive collisions: restart backoff state
            exponent = min(attempts, spec.max_backoff_exponent)
            slots = station.rng.randrange(0, 2**exponent)
            yield self.sim.timeout(spec.jam_time + slots * spec.slot_time)

    def _begin(self, station: _Station, frame_time: float) -> Event:
        """Register a transmission attempt in the current contention slot."""
        outcome = self.sim.event()
        if self._state == _IDLE:
            self._state = _CONTEND
            self._contenders = [(station, frame_time, outcome)]
            self.stats.wire.busy(self.sim.now)
            self.sim.process(self._resolve(), name="eth-resolve")
        elif self._state == _CONTEND:
            self._contenders.append((station, frame_time, outcome))
        else:  # pragma: no cover - guarded by the caller's carrier sense
            outcome.succeed("collision")
        return outcome

    def _resolve(self, until: Optional[float] = None):
        """After one contention slot, pick a winner or declare a collision.

        ``until`` replays a devirtualized hold's contention window: the
        slot already began at the hold's precomputed frame begin, so the
        resolver must wake at that exact absolute instant rather than a
        fresh ``now + slot_time``.
        """
        spec = self.spec
        if until is None:
            yield self.sim.timeout(spec.slot_time)
        else:
            yield self.sim.at(until)
        contenders, self._contenders = self._contenders, []
        if len(contenders) == 1:
            _, frame_time, outcome = contenders[0]
            self._state = _BUSY
            yield self.sim.timeout(frame_time)
            outcome.succeed("won")
            self.stats.counters.add("frames")
        else:
            self._state = _JAM
            self.stats.counters.add("collisions")
            yield self.sim.timeout(spec.jam_time)
            for _, _, outcome in contenders:
                outcome.succeed("collision")
        self._state = _IDLE
        self.stats.wire.idle(self.sim.now)
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            waiter.succeed()
