"""Leap-style adaptive prefetcher (Maruf & Chowdhury, ATC'20).

Turns predicted remote pageins into local hits.  The detector keeps the
last 8 fault-to-fault deltas and elects a **majority trend**
with one Boyer-Moore pass — sequential scans elect +1, strided sweeps
elect their stride, and random access elects nothing (so a uniform
random workload prefetches ~nothing: no false wins, the property the
acceptance criteria pin).  On a detected trend the prefetcher pulls the
next ``depth`` pages along it into a bounded FIFO cache via the
reliability policy's normal pagein path — every prefetch is a real
(faultable, retryable) transfer, observed by the chaos harness like any
other.

Correctness guards:

* Prefetched bytes are verified against the pager's end-to-end checksum
  ledger at arrival; mismatches are dropped (the demand path scrubs).
* Any pageout (queued, coalesced, or synchronous) invalidates the page:
  cache entry dropped, in-flight fetch marked stale and discarded on
  arrival.  The cache can therefore never serve a superseded version.
* Fetch failures (crash, timeout, no copy) abandon the prefetch
  silently; recovery stays the demand path's job.
* ``quiesce`` (the end-of-run drain) waits out in-flight fetches, then
  empties and disables the cache, so post-run integrity replay reads the
  servers, not the cache.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, Optional, Set

from ..errors import ReproError
from ..log import get_logger
from ..sim import Counter
from ..vm.page import page_checksum

__all__ = ["AdaptivePrefetcher", "majority_trend"]

log = get_logger(__name__)

#: Faults observed before the detector is allowed to elect a trend.
_WARMUP = 4
#: Fault-delta history the trend detector votes over.
_HISTORY = 8
#: Bounded prefetch-cache capacity, in pages.
_CACHE_PAGES = 64


def majority_trend(deltas) -> Optional[int]:
    """The strict-majority element of ``deltas``, if any (else None).

    Boyer-Moore vote + one verification pass: O(n), no allocation beyond
    the iterator.  A zero delta (repeated faults on one page) never forms
    a trend.
    """
    candidate, count = None, 0
    for delta in deltas:
        if count == 0:
            candidate, count = delta, 1
        elif delta == candidate:
            count += 1
        else:
            count -= 1
    if candidate is None or candidate == 0:
        return None
    wins = sum(1 for delta in deltas if delta == candidate)
    return candidate if 2 * wins > len(deltas) else None


class AdaptivePrefetcher:
    """Majority-trend detector + bounded prefetch cache."""

    def __init__(self, pager, spec, counters: Counter):
        self.pager = pager
        self.sim = pager.sim
        self.spec = spec
        self.counters = counters
        self._deltas = deque(maxlen=_HISTORY)
        self._last_fault: Optional[int] = None
        self._cache: "OrderedDict[int, Optional[bytes]]" = OrderedDict()
        self._inflight: Dict[int, object] = {}  # page_id -> fetch Process
        self._stale: Set[int] = set()
        self._quiesced = False

    # ------------------------------------------------------------ detection
    def observe_fault(self, page_id: int) -> None:
        """Feed one demand fault to the detector; maybe start prefetches."""
        if self._quiesced:
            return
        last = self._last_fault
        self._last_fault = page_id
        if last is not None:
            self._deltas.append(page_id - last)
        if len(self._deltas) < _WARMUP:
            return
        trend = majority_trend(self._deltas)
        if trend is None:
            return
        self.counters.add("prefetch_trend_windows")
        for step in range(1, self.spec.prefetch + 1):
            target = page_id + step * trend
            if not self._eligible(target):
                continue
            self.counters.add("prefetch_issued")
            self._inflight[target] = self.sim.process(
                self._fetch(target), name=f"prefetch-{target}"
            )

    def _eligible(self, target: int) -> bool:
        if target < 0 or target in self._cache or target in self._inflight:
            return False
        pager = self.pager
        if target in pager._on_disk:
            return False  # local-disk fallback pages are cheap already
        queue = getattr(pager, "_pageout_queue", None)
        if queue is not None and queue.lookup(target) is not None:
            return False  # queued write-back: already a local hit
        return pager.policy.holds(target)

    # -------------------------------------------------------------- fetches
    def _fetch(self, page_id: int):
        span = self.sim.tracer.span("prefetch", page_id)
        try:
            try:
                contents = yield from self.pager.policy.pagein(page_id, span=span)
            except ReproError as exc:
                # A prefetch is speculative: never recover, never retry —
                # the demand path owns failure handling.
                self.counters.add("prefetch_aborted")
                span.end("aborted", reason=type(exc).__name__)
                return
            if page_id in self._stale or self._quiesced:
                self.counters.add("prefetch_discarded_stale")
                span.end("stale")
                return
            expected = self.pager.checksums.get(page_id)
            if (
                contents is not None
                and expected is not None
                and page_checksum(contents) != expected
            ):
                self.counters.add("prefetch_discarded_corrupt")
                span.end("corrupt-discarded")
                return
            self._cache[page_id] = contents
            self.counters.add("prefetch_completed")
            while len(self._cache) > _CACHE_PAGES:
                self._cache.popitem(last=False)
                self.counters.add("prefetch_evicted")
            span.end("ok")
        finally:
            self._stale.discard(page_id)
            self._inflight.pop(page_id, None)
            span.end("error")  # no-op unless an exception escaped

    # ----------------------------------------------------------- client API
    def take(self, page_id: int):
        """Consume a completed prefetch: ``(True, contents)`` or miss."""
        if page_id in self._cache:
            return True, self._cache.pop(page_id)
        return False, None

    def inflight_event(self, page_id: int):
        """The fetch Process to wait on, when a prefetch is mid-flight."""
        return self._inflight.get(page_id)

    def invalidate(self, page_id: int) -> None:
        """A newer version exists (pageout/release): drop every trace."""
        if self._cache.pop(page_id, (None,)) != (None,):
            self.counters.add("prefetch_invalidated")
        if page_id in self._inflight:
            self._stale.add(page_id)

    def quiesce(self):
        """Generator: settle in-flight fetches, then disable the cache."""
        self._quiesced = True
        while self._inflight:
            _, process = next(iter(self._inflight.items()))
            yield process
        self._cache.clear()
        self._stale.clear()
