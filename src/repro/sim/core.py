"""Discrete-event simulation kernel.

Every model in this package (network, disk, virtual memory, the remote
memory pager itself) runs on top of this kernel.  It is a small,
deterministic, generator-based engine in the style of SimPy:

* A :class:`Simulator` owns the virtual clock and the event heap.
* An :class:`Event` is a one-shot occurrence that other processes may wait
  on; it either *succeeds* with a value or *fails* with an exception.
* A :class:`Process` wraps a generator.  The generator yields events; the
  process resumes when the yielded event fires, receiving the event's
  value (or having its exception raised at the ``yield``).
* A heap entry is ``(time, seq, fire)`` with ``fire`` a zero-argument
  callable: an event pushes its bound ``_process``, and
  :meth:`Simulator.call_at` pushes a bare callback with no event behind
  it.  Hot state machines (the CSMA/CD walk in
  :mod:`repro.net.ethernet`) step through ``call_at`` alone, with no
  generator, no :class:`Process` and no :class:`Timeout` per step.

Determinism matters for reproducible experiments: events scheduled for the
same instant fire in FIFO scheduling order (a monotonically increasing
sequence number breaks ties), and nothing in the kernel reads the wall
clock or an unseeded RNG.

Example
-------
>>> sim = Simulator()
>>> def worker(sim, results):
...     yield sim.timeout(5.0)
...     results.append(sim.now)
>>> results = []
>>> _ = sim.process(worker(sim, results))
>>> sim.run()
>>> results
[5.0]
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Periodic",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "StopSimulation",
    "NullSpan",
    "NullTracer",
    "NullSampler",
    "NULL_SPAN",
    "NULL_TRACER",
    "NULL_SAMPLER",
]


class NullSpan:
    """The do-nothing request span: every model's default.

    Instrumented components call ``span.phase(...)``/``span.end()``
    unconditionally; when tracing is off those calls land here and cost
    one attribute lookup plus an empty method body.  The real span type
    lives in :mod:`repro.obs.trace` — the kernel only defines the no-op
    so that instrumentation needs no conditionals and no imports from
    the observability layer (which would cycle back into the kernel).
    """

    __slots__ = ()

    def phase(self, name: str) -> "NullSpan":
        """Record nothing; returns self so calls chain."""
        return self

    def end(self, status: str = "ok", **attrs: Any) -> None:
        """Record nothing."""
        return None


class NullTracer:
    """The zero-cost default tracer installed on every :class:`Simulator`.

    ``enabled`` is False so rare-path components may skip building event
    attributes entirely; hot-path components just call straight through
    — every method is a no-op returning a shared singleton.
    """

    __slots__ = ()

    enabled = False

    def bind(self, sim: "Simulator") -> None:
        """Nothing to bind; the no-op tracer keeps no clock."""
        return None

    def emit(self, component: str, event: str, page_id: Any = None, **attrs: Any) -> None:
        """Drop the event."""
        return None

    def span(self, kind: str, page_id: Any = None, component: str = "pager") -> NullSpan:
        """Return the shared no-op span."""
        return NULL_SPAN


class NullSampler:
    """The zero-cost default telemetry sampler on every :class:`Simulator`.

    Mirrors :class:`NullTracer`: hot paths (the fault-service loop) call
    ``sim.sampler.observe_fault(...)`` unconditionally; with telemetry
    off those calls land here and cost one attribute lookup plus an
    empty method body.  The real sampler lives in
    :mod:`repro.obs.telemetry` — the kernel only defines the no-op so
    instrumentation needs no conditionals and no imports from the
    observability layer.

    ``enabled`` is False so rare paths (and the compile planner, which
    must force interpreted execution while sampling is live) can test
    for real telemetry with one attribute read.
    """

    __slots__ = ()

    enabled = False

    def bind(self, sim: "Simulator") -> None:
        """Nothing to bind; the no-op sampler keeps no clock."""
        return None

    def observe_fault(self, elapsed: float) -> None:
        """Drop the fault-latency observation."""
        return None

    def observe(self, name: str, value: float) -> None:
        """Drop the ad-hoc observation."""
        return None


NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()
NULL_SAMPLER = NullSampler()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party supplies an arbitrary ``cause`` object which the
    interrupted process can inspect (e.g. a crash notification).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt(cause={self.cause!r})"


#: Event state constants.
PENDING = 0  # created, not yet triggered
TRIGGERED = 1  # scheduled on the event heap, value/exception fixed
PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence processes can wait for.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it: its outcome becomes immutable and it is scheduled to be
    *processed* (callbacks run) at the current simulation instant.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_state", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = PENDING
        self._defused = False

    # -- outcome inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (success or failure)."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value, or raise the failure exception."""
        if self._state == PENDING:
            raise SimulationError("event value accessed before it triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if any (None for success or pending)."""
        return self._exception

    # -- outcome assignment -------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = TRIGGERED
        sim = self.sim
        heappush(sim._heap, (sim._now, next(sim._seq), self._process))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure ``exception``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = TRIGGERED
        sim = self.sim
        heappush(sim._heap, (sim._now, next(sim._seq), self._process))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- kernel internals ---------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once by the simulator."""
        self._state = PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused:
            # A failure nobody observed is a programming error; surface it
            # instead of silently dropping it.
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Timeouts dominate the kernel's allocation profile (the VM layer
    yields one per compute chunk and per fault-service step), so the
    constructor writes every slot directly and pushes its heap entry
    inline instead of chaining through ``Event.__init__``/``_schedule``.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._defused = False
        self.delay = delay
        self._state = TRIGGERED
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self._process))


class Periodic(Event):
    """A self-rescheduling kernel event invoking ``fn(now)`` every
    ``interval`` simulated seconds.

    This is the periodic-callback primitive the telemetry sampler runs
    on: one reusable heap entry, no generator, no Process bookkeeping.
    Nothing can wait on a Periodic (it never reaches PROCESSED while
    running); it simply re-pushes itself after each tick.

    Liveness rule: a tick only reschedules itself while *other* work
    remains on the heap.  A periodic must never be the thing keeping a
    drained simulation alive — ``run()`` would spin forever and
    ``run_until_complete()`` would mask a genuine stall — so when a
    tick pops with nothing else scheduled, it retires silently (no
    callback: that window holds no work to observe).  ``ensure``-style
    owners (see ``repro.obs.telemetry.TelemetrySampler``) re-arm it
    before the next run phase.
    """

    __slots__ = ("interval", "fn", "_running")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        fn: Callable[[float], None],
        start: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"periodic interval must be positive: {interval!r}")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._defused = True
        self.interval = interval
        self.fn = fn
        self._running = True
        self._state = TRIGGERED
        first = sim._now + interval if start is None else start
        if first < sim._now:
            raise ValueError(f"periodic start {first} is in the past (now={sim._now})")
        heappush(sim._heap, (first, next(sim._seq), self._process))

    @property
    def running(self) -> bool:
        """True while the periodic will keep firing."""
        return self._running

    def stop(self) -> None:
        """Cancel future ticks.  The already-queued heap entry becomes a
        no-op when it pops (removing from the middle of a heap is not
        worth the bookkeeping)."""
        self._running = False

    def _process(self) -> None:
        if not self._running:
            return
        sim = self.sim
        if not sim._heap:
            # This tick was the only thing left on the heap: it is
            # keeping a finished simulation alive, not observing work.
            # Retire without firing — a sample window past the last
            # real event would be pure silence.
            self._running = False
            return
        self.fn(sim._now)
        if self._running:
            heappush(sim._heap, (sim._now + self.interval, next(sim._seq), self._process))


class _ConditionValue:
    """Mapping from constituent events to their values for AnyOf/AllOf."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __len__(self) -> int:
        return len(self.events)


class _Condition(Event):
    """Base for composite events over a fixed set of sub-events."""

    __slots__ = ("_events", "_unfired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._unfired = len(self._events)
        if not self._events:
            self.succeed(_ConditionValue())
            return
        for event in self._events:
            # A Timeout is "triggered" from birth (its outcome is fixed) but
            # only *processed* when the clock reaches it — conditions must
            # wait for processing, not triggering.
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                # The condition already fired; swallow late failures of
                # other constituents so they do not crash the kernel.
                event.defuse()
            return
        self._unfired -= 1
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
        elif self._satisfied():
            value = _ConditionValue()
            value.events = [e for e in self._events if e.processed and e.ok]
            self.succeed(value)


class AnyOf(_Condition):
    """Fires when any constituent event fires (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unfired < len(self._events)


class AllOf(_Condition):
    """Fires when all constituent events have fired (or any fails)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._unfired == 0


class Process(Event):
    """A running generator; also an event that fires when it terminates.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event succeeds, the generator is resumed with the event's value; when
    it fails, the exception is raised at the ``yield`` site.  A ``return``
    from the generator succeeds the process event with the returned value.
    """

    __slots__ = ("generator", "name", "_target", "_send", "_throw", "_relay", "_resume_cb")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        # Bound-method caches: _step runs once per event the process waits
        # on, so shaving the per-step attribute lookups is measurable.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Reused relay event for resuming after already-processed targets
        # (see _step); allocated lazily on first use.
        self._relay: Optional[Event] = None
        # Kick off on the next kernel iteration at the current instant.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a dead process is an error.  The process stops waiting
        on its current target (the target event itself is unaffected and
        may fire later without consequence).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._exception = Interrupt(cause)
        interrupt_event._defused = True  # delivery into the process handles it
        interrupt_event._state = TRIGGERED
        interrupt_event.callbacks.append(self._resume_interrupt)
        self.sim._schedule(interrupt_event, 0.0, urgent=True)

    # -- kernel internals ---------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # terminated between scheduling and delivery
        if self._target is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
        relay = self._relay
        if relay is not None and relay._state == TRIGGERED:
            # The process was waiting on its relay (an already-processed
            # target) when interrupted; detach so the still-queued relay
            # cannot resume it a second time.
            try:
                relay.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event)

    def _step(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if event._exception is not None:
                event._defused = True
                target = self._throw(event._exception)
            else:
                target = self._send(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
        if target._state == PROCESSED:
            # Already done: resume on the next kernel iteration.  A process
            # waits on at most one event, so one relay per process can be
            # recycled instead of allocating a fresh Event every time; the
            # TRIGGERED guard covers the rare case where the previous relay
            # is still queued (an interrupt cut in before it fired).
            relay = self._relay
            if relay is None or relay._state != PROCESSED:
                relay = self._relay = Event(sim)
                relay._defused = True
            relay._value = target._value
            exception = target._exception
            relay._exception = exception
            if exception is not None:
                target._defused = True
            relay._state = TRIGGERED
            relay.callbacks.append(self._resume_cb)
            heappush(sim._heap, (sim._now, next(sim._seq), relay._process))
        else:
            self._target = target
            target.callbacks.append(self._resume_cb)


class Simulator:
    """The event loop: virtual clock plus a time-ordered event heap."""

    def __init__(self) -> None:
        self._now = 0.0
        # Heap entries are (time, seq, fire): ``fire`` is a zero-argument
        # callable — an event's bound ``_process``, or a bare callback
        # pushed by :meth:`call_at`.  Urgent events use negative
        # sequence numbers, which sort before every normal entry at the
        # same instant (and LIFO among themselves) without a separate
        # priority field — one tuple slot and one comparison fewer on
        # every push/pop than the classic 4-tuple layout.
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: Processes ever started via :meth:`process` (tests use it to
        #: show which paths run without spawning a process per message).
        self.process_count = 0
        # Observability hook: components read ``sim.tracer`` to open
        # request spans and emit structured events.  The no-op default
        # keeps the event loop itself untouched — tracing costs nothing
        # unless a real repro.obs.trace.Tracer is installed.
        self.tracer: Any = NULL_TRACER
        # Telemetry hook: the fault-service path feeds per-fault
        # latencies to ``sim.sampler``; the no-op default keeps that a
        # single empty method call unless a real
        # repro.obs.telemetry.TelemetrySampler is installed.
        self.sampler: Any = NULL_SAMPLER

    def set_tracer(self, tracer: Any) -> Any:
        """Install ``tracer`` (a :class:`repro.obs.trace.Tracer` or the
        no-op default) and bind its clock to this simulator."""
        self.tracer = tracer
        tracer.bind(self)
        return tracer

    def set_sampler(self, sampler: Any) -> Any:
        """Install ``sampler`` (a
        :class:`repro.obs.telemetry.TelemetrySampler` or the no-op
        default) and bind it to this simulator's clock."""
        self.sampler = sampler
        sampler.bind(self)
        return sampler

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event construction ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now with ``value``."""
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None, seq: Optional[int] = None) -> Event:
        """An event firing at the absolute instant ``when`` with ``value``.

        The batch-replay fast paths use this to reconcile with the event
        kernel at precomputed boundaries: scheduling one event at an
        exact absolute time avoids re-deriving it from a chain of
        relative delays (whose float rounding the caller has already
        accumulated in the reference order).

        ``seq`` pins the heap tie-break rank instead of drawing a fresh
        one (see :meth:`claim_seq`): a fast path that parked a whole
        event chain on one far-future entry can re-enter the heap at the
        rank that chain claimed when it was created, so same-instant
        ties keep firing in the order the unbatched walk would produce.
        Two entries may share a rank only if their times differ.
        """
        if when < self._now:
            raise ValueError(f"at(when={when}) is in the past (now={self._now})")
        event = Event(self)
        event._state = TRIGGERED
        event._value = value
        heappush(self._heap, (when, next(self._seq) if seq is None else seq, event._process))
        return event

    def claim_seq(self) -> int:
        """Draw the next heap sequence number without scheduling anything.

        Paired with ``at(..., seq=...)``: callers that may later need to
        reschedule work at its original tie-break rank claim the rank up
        front, at the instant the event-driven equivalent would have
        entered the heap.
        """
        return next(self._seq)

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at the absolute instant ``when``.

        The lightest heap entry: no :class:`Event`, no callbacks list,
        nothing to wait on.  Callback-driven models (the CSMA/CD walk)
        push their next step with it; it takes a fresh FIFO rank like
        every other entry scheduled now.
        """
        if when < self._now:
            raise ValueError(f"call_at(when={when}) is in the past (now={self._now})")
        heappush(self._heap, (when, next(self._seq), fn))

    def every(
        self,
        interval: float,
        fn: Callable[[float], None],
        start: Optional[float] = None,
    ) -> Periodic:
        """Invoke ``fn(now)`` every ``interval`` seconds (first tick at
        ``start``, default ``now + interval``) until ``.stop()`` is
        called or the heap would otherwise drain.  Returns the
        :class:`Periodic` handle."""
        return Periodic(self, interval, fn, start=start)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``."""
        self.process_count += 1
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all of ``events`` fire."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------------
    def _schedule(self, event: Event, delay: float, urgent: bool = False) -> None:
        seq = -next(self._seq) if urgent else next(self._seq)
        heappush(self._heap, (self._now + delay, seq, event._process))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        when, _, fire = heappop(self._heap)
        self._now = when
        fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if no event falls on that instant.
        """
        if until is not None and until < self._now:
            raise ValueError(f"run(until={until}) is in the past (now={self._now})")
        heap = self._heap
        pop = heappop
        try:
            if until is None:
                while heap:
                    when, _, fire = pop(heap)
                    self._now = when
                    fire()
            else:
                while heap and heap[0][0] <= until:
                    when, _, fire = pop(heap)
                    self._now = when
                    fire()
        except StopSimulation:
            return
        if until is not None:
            self._now = until

    def run_until_complete(self, process: Process, limit: float = float("inf")) -> Any:
        """Run until ``process`` terminates; return its value.

        Raises :class:`SimulationError` if the heap drains (or ``limit`` is
        reached) with the process still alive — a deadlock indicator.
        """
        heap = self._heap
        pop = heappop
        while process._state == PENDING:
            if not heap or heap[0][0] > limit:
                raise SimulationError(
                    f"simulation stalled at t={self._now} with process "
                    f"{process.name!r} still alive"
                )
            when, _, fire = pop(heap)
            self._now = when
            fire()
        if process._exception is not None:
            # Raising to the caller IS the observation: the completion
            # event is still queued, and without this it would re-raise
            # the stale failure out of the next run_until_complete().
            process._defused = True
        return process.value

    def stop(self) -> None:
        """Stop :meth:`run` from inside a callback or process."""
        raise StopSimulation()
