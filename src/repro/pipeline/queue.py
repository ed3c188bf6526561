"""Write-behind pageout queue: coalescing, clustered batch drain.

The synchronous datapath serialises every pageout through the paging
daemon: the evicting process waits out protocol CPU + wire time + server
store before its frame is reusable.  :class:`PageoutQueue` decouples the
two ends (the asynchronous swap-out of Zhong et al., OSF/1's pageout
clustering):

* ``enqueue`` completes in zero simulated time (after backlog
  admission); the page is *committed* — the pager's checksum ledger
  already records it, and a pagein finding it queued is served from the
  queue (a write-back hit) without touching the network.
* A page re-dirtied while queued is **coalesced**: the queued entry's
  contents are replaced in place and only the newest version is ever
  transmitted — one transfer saved, and (for parity logging) one parity
  XOR never happens, because the superseded version never reaches the
  policy.
* A single **drainer** process transmits entries in FIFO batches of up
  to ``window`` pages through the policy, bracketed by the protocol
  stack's clustered-batch framing (head page pays full protocol CPU,
  the rest pay ``batch_cpu_fraction`` of it).  One drainer means policy
  state (round-robin order, the open parity group) never interleaves —
  the same invariant the synchronous daemon's capacity-1 resource
  provided, relocated rather than relaxed.

Failure semantics are the synchronous path's own, *per entry*: each
entry goes through the pager's one placement routine, so no server room
or a request timeout routes it to the local disk and a crash mid-drain
runs the pager's single-flight recovery and retries.  Entries are never
dropped — the machine's end-of-run drain barrier
(:meth:`wait_idle`) holds completion until the queue is empty.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from ..sim import Counter, Tally

__all__ = ["PageoutQueue"]


class _Entry:
    __slots__ = ("page_id", "contents", "sending", "enqueued_at")

    def __init__(self, page_id: int, contents: Optional[bytes], enqueued_at: float):
        self.page_id = page_id
        self.contents = contents
        self.sending = False
        self.enqueued_at = enqueued_at


class PageoutQueue:
    """Bounded write-behind queue with a single batch drainer."""

    def __init__(
        self,
        pager,
        spec,
        counters: Counter,
        depth: Tally,
        queue_delay: Optional[Tally] = None,
    ):
        self.pager = pager
        self.sim = pager.sim
        self.spec = spec
        self.counters = counters
        #: Queue-depth distribution, observed at every enqueue.
        self.depth = depth
        #: Seconds between enqueue and transmission start, per entry.
        self.queue_delay = queue_delay if queue_delay is not None else Tally()
        self._queued: "OrderedDict[int, _Entry]" = OrderedDict()
        self._sending: Dict[int, _Entry] = {}
        self._space_waiters: List = []
        self._idle_waiters: List = []
        self._wake = None
        self._drainer = None

    # ------------------------------------------------------------ producers
    def enqueue(self, page_id: int, contents: Optional[bytes]):
        """Generator: admit one pageout; returns once queued (not sent).

        Yields only when the backlog is full (back-pressure: the evicting
        process waits for the drainer to make room, bounding the window
        between 'the VM thinks this page is safe' and 'it actually is').
        """
        entry = self._queued.get(page_id)
        if entry is not None:
            # Coalesce: the queued (not yet transmitted) version is dead;
            # only the newest bytes ever cross the wire.
            entry.contents = contents
            self.counters.add("coalesced")
            self.sim.tracer.emit("pipeline", "coalesce", page_id=page_id)
            return
        while len(self._queued) >= self.spec.max_backlog:
            self.counters.add("backlog_stalls")
            waiter = self.sim.event()
            self._space_waiters.append(waiter)
            yield waiter
        self._queued[page_id] = _Entry(page_id, contents, self.sim.now)
        self.counters.add("enqueued")
        self.depth.observe(len(self._queued) + len(self._sending))
        if self._drainer is None or not self._drainer.is_alive:
            self._drainer = self.sim.process(self._drain_loop(), name="pageout-drainer")
        elif self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def lookup(self, page_id: int) -> Optional[_Entry]:
        """The newest pending entry for ``page_id`` (queued wins over
        sending: a queued entry is by construction the later version)."""
        entry = self._queued.get(page_id)
        if entry is not None:
            return entry
        return self._sending.get(page_id)

    def release(self, page_id: int) -> None:
        """The page is dead: a queued entry need never be transmitted."""
        entry = self._queued.pop(page_id, None)
        if entry is not None:
            self.counters.add("released_queued")
            self._wake_producers()
            self._notify_if_idle()
        elif page_id in self._sending:
            # Mid-transmission; the send completes (an orphan store the
            # server eventually reclaims) — matching the synchronous
            # path, where release during an in-flight pageout is moot
            # because the daemon serialised them.
            self.counters.add("released_while_sending")

    @property
    def pending(self) -> int:
        return len(self._queued) + len(self._sending)

    def wait_idle(self):
        """Generator: block until every admitted entry has settled."""
        while self._queued or self._sending:
            waiter = self.sim.event()
            self._idle_waiters.append(waiter)
            yield waiter

    # -------------------------------------------------------------- drainer
    def _drain_loop(self):
        sim = self.sim
        pager = self.pager
        stack = pager.policy.stack
        while True:
            if not self._queued:
                self._notify_if_idle()
                self._wake = sim.event()
                yield self._wake
            # A zero-delay hop lets every producer scheduled at this same
            # instant finish enqueueing (a free-batch eviction admits 16
            # pages "at once") so batches actually fill to the window.
            yield sim.timeout(0.0)
            batch: List[_Entry] = []
            while self._queued and len(batch) < self.spec.window:
                page_id, entry = self._queued.popitem(last=False)
                entry.sending = True
                self._sending[page_id] = entry
                batch.append(entry)
            if not batch:
                continue
            self._wake_producers()
            self.counters.add("drain_batches")
            self.counters.add("drained_pages", len(batch))
            self.sim.tracer.emit("pipeline", "drain_batch", pages=len(batch))
            stack.begin_cluster(pager.policy.client_host)
            try:
                for entry in batch:
                    yield from self._transmit(entry)
            finally:
                stack.end_cluster()
                for entry in batch:
                    self._sending.pop(entry.page_id, None)
                self._notify_if_idle()

    def _transmit(self, entry: _Entry):
        """Generator: place one entry exactly as the synchronous path
        would (``RemoteMemoryPager._place_pageout``)."""
        pager = self.pager
        page_id = entry.page_id
        self.queue_delay.observe(self.sim.now - entry.enqueued_at)
        span = self.sim.tracer.span("pageout", page_id)
        try:
            yield from pager._place_pageout(page_id, entry.contents, span)
        finally:
            span.end("error")  # no-op unless an exception escaped
            pager._pageout_settled(page_id, entry.contents)

    # ------------------------------------------------------------- plumbing
    def _wake_producers(self) -> None:
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    def _notify_if_idle(self) -> None:
        if self._queued or self._sending:
            return
        waiters, self._idle_waiters = self._idle_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
