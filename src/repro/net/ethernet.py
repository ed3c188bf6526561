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

**Callback walk.**  Each station's sender and the channel's contention
resolver are callback state machines on :meth:`Simulator.call_at`
entries: no generator, no process and no timeout per frame attempt.
Every step pushes exactly the heap entry, at the same instant and in
the same order, that one generator process per sender and per
contention slot would push — including the entry at ``now`` through
which a newly started process reaches its first wait (``_hop``) — so
same-instant ties resolve exactly as they would under that design.

**Analytic fast path.**  On an *uncontended* medium the frame-level walk
is pure arithmetic: no collision can occur, so no backoff RNG is drawn,
and every boundary of every frame — gap end, transmit start, transmit
end — is a deterministic float chain.  When a message starts with the
channel idle and no other sender active, the model computes all of those
boundaries up front (in exactly the float order the chained frame-level
steps would produce), schedules ONE completion entry at the last
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
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional

from ..config import EthernetSpec
from ..sim import Event, RngRegistry, Simulator
from .base import Message, Network

__all__ = ["EthernetCsmaCd"]

#: Channel states.
_IDLE = "idle"
_CONTEND = "contend"
_BUSY = "busy"
_JAM = "jam"
_FAST = "fast"  # analytic hold in progress (uncontended, precomputed)


class _Station:
    """Per-host transmit queue and its sender, as a callback state machine.

    Each method below is one step of the 802.3 sender; a step ends by
    pushing the heap entry that fires the next one (``sim.call_at``) or
    by parking the station where the channel will find it (the
    contender list, the idle waiters, a fast hold).  ``k`` is the frame
    of ``message`` in flight and ``attempts`` its collision count.
    """

    __slots__ = (
        "net", "sim", "queue", "rng", "idle",
        "message", "payloads", "k", "frame_time", "attempts",
    )

    def __init__(self, net: "EthernetCsmaCd", host: str):
        self.net = net
        self.sim = net.sim
        self.queue: Deque[Message] = deque()
        self.rng: random.Random = net.rngs.stream(f"ethernet.{host}")
        self.idle = False  # parked on an empty queue
        self.message: Optional[Message] = None
        self.payloads: List[int] = []
        self.k = 0
        self.frame_time = 0.0
        self.attempts = 0
        # The sender starts on its own heap entry, so a message queued
        # at the station's creation instant waits for it.
        self.sim.call_at(self.sim.now, self._next)

    def put(self, message: Message) -> None:
        """Queue ``message``; wake the sender if it is parked."""
        self.queue.append(message)
        if self.idle:
            self.idle = False
            self.sim.call_at(self.sim.now, self._take)

    def _next(self) -> None:
        """Take the next queued message on a fresh entry, or park."""
        if self.queue:
            self.sim.call_at(self.sim.now, self._take)
        else:
            self.idle = True

    def _take(self) -> None:
        self.message = self.queue.popleft()
        self.net._active_sends += 1
        self._reach()

    def _reach(self, _healed: Optional[Event] = None) -> None:
        """§2.2: a partition stalls the sender; nothing is dropped."""
        net = self.net
        message = self.message
        if net._crosses_partition(message.src, message.dst):
            waiter = Event(self.sim)
            waiter.callbacks.append(self._reach)
            net._heal_waiters.append(waiter)
            return
        self.payloads = net._fragments(message.nbytes)
        if net._try_fast_hold(self) is None:
            self._frame(0)

    def _attempt(self, k: int) -> None:
        """Make frame ``k`` the one in flight, with fresh backoff state."""
        self.k = k
        self.frame_time = self.net.spec.frame_time(self.payloads[k])
        self.attempts = 0

    def _frame(self, k: int) -> None:
        """Send frame ``k`` from carrier sense; past the last, deliver."""
        if k < len(self.payloads):
            self._attempt(k)
            self._sense()
            return
        net = self.net
        net._deliver(self.message)
        net._active_sends -= 1
        self.message = None
        self._next()

    def _sense(self) -> None:
        """Top of the 802.3 loop for the frame in flight."""
        net = self.net
        # An analytic hold cannot coexist with a second sender:
        # materialise its exact frame-level state before touching the
        # channel.
        if net._fast_hold is not None:
            net._devirtualize()
        self._carrier()

    def _carrier(self) -> None:
        """Carrier sense: on an idle channel wait out the interframe gap,
        else park until the channel goes idle."""
        net = self.net
        if net._state in (_IDLE, _CONTEND):
            sim = self.sim
            sim.call_at(sim.now + net.spec.interframe_gap, self._gap_end)
        else:
            net._idle_waiters.append(self)

    def _gap_end(self) -> None:
        """The gap is over: begin if the channel is still free."""
        net = self.net
        if net._state in (_IDLE, _CONTEND):
            net._begin(self, self.frame_time)
        else:
            self._sense()

    def _won(self) -> None:
        self._frame(self.k + 1)

    def _collided(self) -> None:
        """Binary exponential backoff: ``r`` slots, ``r`` uniform in
        ``[0, 2^min(attempts, 10))``; after ``max_attempts`` the frame
        counts as dropped and restarts from a fresh backoff state."""
        net = self.net
        spec = net.spec
        self.attempts += 1
        net.stats.counters.add("station_collisions")
        if self.attempts >= spec.max_attempts:
            net._drops += 1
            self.attempts = 0
        exponent = min(self.attempts, spec.max_backoff_exponent)
        slots = self.rng.randrange(0, 2**exponent)
        sim = self.sim
        sim.call_at(sim.now + (spec.jam_time + slots * spec.slot_time), self._sense)


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
        "flushed", "busy_open", "active",
    )

    def __init__(self, station, begins, starts, ends, frame_times):
        self.station = station
        self.begins = begins
        self.starts = starts
        self.ends = ends
        self.frame_times = frame_times
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
        self._contenders: List[tuple] = []  # (station, frame_time)
        self._idle_waiters: List[_Station] = []
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
        station.put(message)
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

    def _hop(self, when: float, fn) -> None:
        """Call ``fn`` at ``when`` through one entry at now: ``fn`` is
        pushed only when that entry fires, as a process started now
        pushes its first wait.  That is the rank ``fn`` must hold among
        same-instant ties; pushing it directly would rank it ahead of
        every entry pushed between now and the hop."""
        sim = self.sim
        sim.call_at(sim.now, partial(sim.call_at, when, fn))

    # -- analytic fast path -------------------------------------------------
    def _try_fast_hold(self, station: _Station) -> Optional[_FastHold]:
        """Serve ``station``'s message analytically if the medium is
        uncontended.

        Eligibility is strict: fast path enabled, channel idle, nobody
        contending or carrier-sense-parked, and this is the ONLY active
        send (a sender mid-gap or mid-backoff leaves the channel ``idle``
        while still being about to use it — ``_active_sends`` sees it).
        The uncontended walk draws no RNG, so skipping it leaves every
        backoff stream untouched.
        """
        payloads = station.payloads
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
        # chained step wakes at (previous instant + delay), so the
        # association below is exactly what the walk would compute.
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
        hold = _FastHold(station, begins, starts, ends, frame_times)
        self._state = _FAST
        self._fast_hold = hold
        self._hop(ends[-1], partial(self._complete_fast_hold, hold))
        return hold

    def _complete_fast_hold(self, hold: _FastHold) -> None:
        """One kernel entry at the last frame's end closes the hold."""
        if not hold.active:  # devirtualized (or completed) meanwhile
            return
        hold.active = False
        self._fast_hold = None
        sim = self.sim
        sim.call_at(sim.now, partial(hold.station._frame, len(hold.ends)))
        self._flush_hold(hold, sim.now)
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

        * ``now >= s_k`` — mid-transmission: channel ``busy``, the
          resolver finishes frame ``k`` at ``e_k`` (case A);
        * ``now >= b_k`` — in the contention slot: channel ``contend``
          with the owner as sole contender so far, resolution at ``s_k``
          (case B) — the newcomer may still join and collide, which is
          precisely why the hold cannot survive;
        * else — in the interframe gap: channel ``idle``; the owner's
          gap expires at ``b_k`` and it begins then, unless the newcomer
          seized the channel first (case C).

        Case B's resolve entry takes its heap rank now, not at ``b_k``
        where the frame-level resolver's slot entry would have taken
        it, so a newcomer whose gap ends exactly at ``s_k`` can join a
        slot the frame-level walk would already have resolved.
        """
        hold = self._fast_hold
        assert hold is not None
        sim = self.sim
        now = sim.now
        station = hold.station
        hold.active = False
        self._fast_hold = None
        self._flush_hold(hold, now)
        k = hold.flushed
        if k >= len(hold.ends):
            # now >= e_last and the completion entry lost the timestep
            # tie: the message is already fully transmitted.
            self._state = _IDLE
            sim.call_at(now, partial(station._frame, k))
            return
        if now >= hold.starts[k]:  # case A
            self._state = _BUSY
            station.k = k
            self._hop(hold.ends[k], partial(self._transmitted, station))
        elif now >= hold.begins[k]:  # case B
            self._state = _CONTEND
            self._contenders = [(station, hold.frame_times[k])]
            self._hop(hold.starts[k], self._resolve)
            sim.call_at(now, partial(station._attempt, k))
        else:  # case C
            self._state = _IDLE
            self._hop(hold.begins[k], partial(self._begin_fast_frame, hold, k))

    def _begin_fast_frame(self, hold: _FastHold, k: int) -> None:
        """Case C: stand in for the owner's in-flight gap.  At the gap's
        end, re-check the channel exactly as the frame-level sender does
        and either begin frame ``k`` or send the owner back to carrier
        sense."""
        sim = self.sim
        station = hold.station
        if self._state in (_IDLE, _CONTEND):
            self._begin(station, hold.frame_times[k])
            sim.call_at(sim.now, partial(station._attempt, k))
        else:
            sim.call_at(sim.now, partial(station._frame, k))

    # -- CSMA/CD arbitration -----------------------------------------------
    def _begin(self, station: _Station, frame_time: float) -> None:
        """Register a transmission attempt in the current contention slot."""
        if self._state == _IDLE:
            self._state = _CONTEND
            self._contenders = [(station, frame_time)]
            now = self.sim.now
            self.stats.wire.busy(now)
            self._hop(now + self.spec.slot_time, self._resolve)
        elif self._state == _CONTEND:
            self._contenders.append((station, frame_time))
        else:  # pragma: no cover - guarded by the caller's carrier sense
            self.sim.call_at(self.sim.now, station._collided)

    def _resolve(self) -> None:
        """After one contention slot, pick a winner or declare a collision."""
        contenders, self._contenders = self._contenders, []
        sim = self.sim
        if len(contenders) == 1:
            station, frame_time = contenders[0]
            self._state = _BUSY
            sim.call_at(sim.now + frame_time, partial(self._transmitted, station))
        else:
            self._state = _JAM
            self.stats.counters.add("collisions")
            sim.call_at(sim.now + self.spec.jam_time, partial(self._jammed, contenders))

    def _transmitted(self, station: _Station) -> None:
        """The sole contender's frame is on the wire: it won."""
        self.sim.call_at(self.sim.now, station._won)
        self.stats.counters.add("frames")
        self._release()

    def _jammed(self, contenders: List[tuple]) -> None:
        """The jam is over: every contender backs off."""
        sim = self.sim
        for station, _ in contenders:
            sim.call_at(sim.now, station._collided)
        self._release()

    def _release(self) -> None:
        """Free the channel and wake the stations parked on carrier sense."""
        sim = self.sim
        self._state = _IDLE
        self.stats.wire.idle(sim.now)
        waiters, self._idle_waiters = self._idle_waiters, []
        for station in waiters:
            sim.call_at(sim.now, station._carrier)
