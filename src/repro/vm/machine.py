"""The client workstation's virtual-memory system.

:class:`Machine` replays a workload's page-reference trace against a
fixed-size resident set, faulting through a pluggable :class:`Pager` —
this is the reproduction's stand-in for the DEC OSF/1 kernel paging
against the paper's block-device driver.

Performance note (DESIGN.md §5): references to resident pages are the
overwhelmingly common case, so they are handled without touching the
event loop — CPU time just accumulates and is flushed as one timeout at
the next fault (or in ``max_cpu_chunk`` slices, so that concurrently
simulated machines and background load interleave realistically).

Accounting follows the paper's §4.3 decomposition:

* ``utime`` — the workload's own CPU time (scaled by machine speed);
* ``systime`` — kernel fault-service CPU;
* ``inittime`` — program load/startup;
* everything else observed in ``etime`` is page-transfer time (``ptime``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from ..config import MachineSpec
from ..errors import PagingError
from ..sim import Counter, Process, Simulator
from .page import PageVersioner
from .pagetable import PageTable
from .replacement import LruReplacement, ReplacementPolicy
from .pager import Pager

__all__ = ["Machine", "CompletionReport"]

#: A trace step: (page_id, is_write, cpu_seconds_before_this_reference).
Ref = Tuple[int, bool, float]


@dataclass
class CompletionReport:
    """Timing breakdown of one workload run (the paper's §4.3 terms)."""

    name: str
    etime: float = 0.0
    utime: float = 0.0
    systime: float = 0.0
    inittime: float = 0.0
    pageins: int = 0
    pageouts: int = 0
    faults: int = 0
    zero_fills: int = 0
    page_transfers: int = 0
    counters: dict = field(default_factory=dict)
    #: Provenance: root seed, policy name, resolved configuration
    #: overrides, workload name — populated by the experiment harness so
    #: cached and parallel-computed reports are self-describing.
    meta: dict = field(default_factory=dict)

    @property
    def ptime(self) -> float:
        """Page-transfer time: elapsed minus CPU and startup components."""
        return max(0.0, self.etime - self.utime - self.systime - self.inittime)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.name}: etime={self.etime:.2f}s utime={self.utime:.2f}s "
            f"systime={self.systime:.2f}s init={self.inittime:.2f}s "
            f"ptime={self.ptime:.2f}s faults={self.faults} "
            f"(in={self.pageins}, out={self.pageouts}, "
            f"zero={self.zero_fills}, transfers={self.page_transfers})"
        )


class Machine:
    """A workstation running one paging workload.

    Parameters
    ----------
    sim:
        The simulation kernel.
    spec:
        Hardware description (RAM size, CPU speed, fault-service cost).
    pager:
        The paging device (local disk or remote memory pager).
    replacement:
        Victim-selection policy; defaults to exact LRU.  OSF/1's global
        replacement approximates LRU well for the era's workloads; the
        Clock approximation is available for ablation but interacts
        pathologically with alternating-direction sweeps (its ring order
        evicts exactly the pages a reverse sweep needs next), inflating
        fault counts ~5x beyond what the paper measured.
    content_mode:
        When True, pages carry real bytes and every pagein is verified
        against the last paged-out version (end-to-end integrity check).
    init_time:
        Program startup cost (the paper's ``inittime``; 0.21 s for FFT).
    max_cpu_chunk:
        Longest single stretch of simulated compute between event-loop
        visits; keeps co-simulated activity interleaved.
    pageout_window:
        Maximum pageouts in flight.  Evicted dirty pages are written back
        *asynchronously* (the OSF/1 pageout daemon clusters swap writes;
        §4.7's "writes are performed in large chunks" depends on this);
        the faulting process only blocks when the window is full.  Set to
        1 for fully synchronous pageouts.
    free_batch:
        When the free-frame pool is empty, the paging daemon evicts this
        many frames at once (OSF/1's free-page target).  Batching is what
        lets consecutive dirty writebacks land adjacently in the disk
        queue and stream at media rate instead of paying a rotation each.
    compile_schedules:
        Trace compilation (see ``repro.compile``): True (default) takes
        the batch-replay path where eligible, False forces interpreted
        execution.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        pager: Pager,
        replacement: Optional[ReplacementPolicy] = None,
        content_mode: bool = False,
        init_time: float = 0.21,
        max_cpu_chunk: float = 0.25,
        pageout_window: int = 16,
        free_batch: int = 16,
        compile_schedules: bool = True,
        name: str = "client",
    ):
        if init_time < 0 or max_cpu_chunk <= 0:
            raise ValueError("init_time must be >= 0 and max_cpu_chunk > 0")
        if pageout_window < 1 or free_batch < 1:
            raise ValueError("pageout_window and free_batch must be >= 1")
        self.sim = sim
        self.spec = spec
        self.pager = pager
        self.replacement = replacement if replacement is not None else LruReplacement()
        self.page_table = PageTable()
        self.versioner = PageVersioner(spec.page_size, content_mode=content_mode)
        self.content_mode = content_mode
        self.init_time = init_time
        self.max_cpu_chunk = max_cpu_chunk
        self.name = name
        self.counters = Counter()
        self.pageout_window = pageout_window
        self.free_batch = free_batch
        #: Consulted by the compile planner at Cluster.run time.
        self.compile_schedules = compile_schedules
        self._utime = 0.0
        self._systime = 0.0
        self._inflight_slots = 0
        self._inflight_by_page: dict = {}
        self._inflight_tokens: dict = {}
        self._window_waiters: list = []

    # ------------------------------------------------------------ interface
    def run(self, trace: Iterable[Ref], name: str = "workload") -> Process:
        """Start executing ``trace``; returns the process (fires with a
        :class:`CompletionReport`)."""
        return self.sim.process(self._execute(trace, name), name=f"run:{name}")

    def run_to_completion(self, trace: Iterable[Ref], name: str = "workload") -> CompletionReport:
        """Convenience: run ``trace`` and drive the simulator to its end."""
        return self.sim.run_until_complete(self.run(trace, name))

    def run_plan(self, workload, schedule=None, name: Optional[str] = None) -> Process:
        """Start ``workload``: replay ``schedule`` when the planner
        produced one (see ``repro.compile``), else interpret its trace.

        Replay issues *exactly* the simulation-event sequence of
        :meth:`run` on the schedule's source trace — the same CPU-flush
        timeouts and the same :meth:`_service_fault` calls, in the same
        order — so every report field, counter, metric, and downstream
        RNG draw is bit-identical.  What it skips is the per-reference
        Python between those events (page-table lookups and
        replacement-policy touches for resident hits), making sim work
        O(faults) instead of O(references).  N machines on one kernel
        (:func:`repro.compile.plan_fleet`) each replay their own
        reliability-blind schedule, reconciling only where they meet —
        the shared fabric's ports and the donor servers.
        """
        label = name if name is not None else getattr(workload, "name", "workload")
        if schedule is None:
            return self.run(workload.trace(), name=label)
        return self.sim.process(
            self._execute_schedule(schedule, label), name=f"run:{label}"
        )

    @property
    def resident_count(self) -> int:
        return len(self.replacement)

    @property
    def inflight_pageouts(self) -> int:
        """Asynchronous pageouts currently occupying window slots — the
        synchronous datapath's write-behind depth, probed by telemetry."""
        return self._inflight_slots

    # ------------------------------------------------------------ internals
    def _execute(self, trace: Iterable[Ref], name: str):
        spec = self.spec
        user_frames = spec.user_frames
        if user_frames < 1:
            raise PagingError(f"machine {self.name!r} has no user frames")
        page_table = self.page_table
        policy = self.replacement
        versioner = self.versioner
        speed = spec.cpu_speed
        max_chunk = self.max_cpu_chunk
        start = self.sim.now

        yield self.sim.timeout(self.init_time)

        # Resident-hit touches are buffered and applied as one batch
        # before every simulation yield (and before every eviction
        # decision), so nothing that runs while this process is parked
        # (a probe, a concurrent machine) sees a half-applied touch
        # sequence.  The net policy state is exactly that of
        # per-reference touching; this is the same batch-step API the
        # trace compiler replays off-line.
        touches: list = []
        touch_append = touches.append

        pending_cpu = 0.0
        for page_id, is_write, cpu in trace:
            pending_cpu += cpu / speed
            pte = page_table.entry(page_id)
            if pte.resident:
                pte.referenced = True
                if is_write and not pte.dirty:
                    pte.dirty = True
                    versioner.bump(page_id)
                touch_append(page_id)
                if pending_cpu >= max_chunk:
                    if touches:
                        policy.touch_batch(touches)
                        touches.clear()
                    self._utime += pending_cpu
                    yield self.sim.timeout(pending_cpu)
                    pending_cpu = 0.0
                continue

            # Page fault: flush accumulated compute, then service it.
            if touches:
                policy.touch_batch(touches)
                touches.clear()
            if pending_cpu > 0.0:
                self._utime += pending_cpu
                yield self.sim.timeout(pending_cpu)
                pending_cpu = 0.0
            yield from self._service_fault(
                page_id, is_write, self._evict_batch(user_frames), pte.on_backing_store
            )
            # A non-resident entry is always clean, so a write only needs
            # the dirty bit here; _service_fault already bumped the version.
            pte.resident = True
            policy.insert(page_id)
            pte.referenced = True
            if is_write:
                pte.dirty = True

        if touches:
            policy.touch_batch(touches)
            touches.clear()
        if pending_cpu > 0.0:
            self._utime += pending_cpu
            yield self.sim.timeout(pending_cpu)

        yield from self._drain_tail()
        return self._report(name, start)

    def _execute_schedule(self, schedule, name: str):
        spec = self.spec
        if spec.user_frames < 1:
            raise PagingError(f"machine {self.name!r} has no user frames")
        sim = self.sim
        start = sim.now
        replay_span = sim.tracer.span("replay", component="compile")

        yield sim.timeout(self.init_time)

        timeout = sim.timeout
        bump = self.versioner.bump
        chunk_cpu = schedule.chunk_cpu
        seg_bumps = schedule.seg_bumps
        bump_pages = schedule.bump_pages
        fault_page = schedule.fault_page
        fault_flags = schedule.fault_flags
        victim_lens = schedule.victim_lens
        victims = schedule.victims
        n_faults = schedule.n_faults
        ci = bi = vi = 0
        for s, nc in enumerate(schedule.seg_chunks):
            if nc == 1:
                amount = chunk_cpu[ci]
                ci += 1
                self._utime += amount
                yield timeout(amount)
            elif nc:
                # Merge the segment's hit-span flushes into ONE kernel
                # event at the final wake instant.  The instant must be
                # the exact float the interpreted loop's chained
                # timeouts reach, so it accumulates chunk-by-chunk in
                # the same order/association — never via np.cumsum,
                # whose pairwise association differs in the last ulp.
                at = sim.now
                for j in range(ci, ci + nc):
                    amount = chunk_cpu[j]
                    self._utime += amount
                    at += amount
                ci += nc
                yield sim.at(at)
            nb = seg_bumps[s]
            if nb:
                # Version bumps from first writes in the hit span.
                for page_id in bump_pages[bi:bi + nb]:
                    bump(page_id)
                bi += nb
            if s < n_faults:
                flags = fault_flags[s]
                nv = victim_lens[s]
                yield from self._service_fault(
                    fault_page[s], flags & 1, victims[vi:vi + nv], flags & 2
                )
                vi += nv

        self._restore_schedule_state(schedule)
        yield from self._drain_tail()
        replay_span.end("ok", faults=schedule.n_faults, refs=schedule.n_refs)
        return self._report(name, start)

    def _restore_schedule_state(self, schedule) -> None:
        """Leave the machine exactly as interpreted execution would have:
        the replacement policy's internal order and every touched page's
        table entry (the replay skips their per-reference upkeep)."""
        self.replacement.restore_state(schedule.policy_state)
        page_table = self.page_table
        for page_id, resident, dirty, referenced, on_backing_store in schedule.final_ptes:
            pte = page_table.entry(page_id)
            pte.resident = bool(resident)
            pte.dirty = bool(dirty)
            pte.referenced = bool(referenced)
            pte.on_backing_store = bool(on_backing_store)

    def _drain_tail(self):
        """Drain outstanding asynchronous pageouts before declaring done —
        both the machine's in-flight pageout processes and anything the
        pager itself buffers (the PR 4 write-behind queue / prefetch
        cache settle behind Pager.drain())."""
        if self._inflight_by_page or self.pager.pending_drain:
            span = self.sim.tracer.span("drain", component="machine")
            span.phase("drain")
            while self._inflight_by_page:
                yield self.sim.any_of(list(self._inflight_by_page.values()))
            yield from self.pager.drain()
            span.end("ok")

    def _evict_batch(self, user_frames: int):
        """Generator: when the free-page pool is empty, the paging daemon
        evicts a batch so dirty writebacks cluster in the device queue;
        yields each dirty victim (already marked non-resident and on
        backing store) for :meth:`_service_fault` to page out.  Lazy, so
        each eviction happens only after the previous victim's pageout
        has claimed a window slot."""
        policy = self.replacement
        if len(policy) < user_frames:
            return
        page_table = self.page_table
        for _ in range(min(self.free_batch, len(policy))):
            victim_id = policy.evict()
            victim = page_table.entry(victim_id)
            victim.resident = False
            if victim.dirty:
                victim.dirty = False
                victim.on_backing_store = True
                yield victim_id

    def _service_fault(self, page_id: int, is_write, dirty_victims, needs_pagein):
        """Fault path: page out ``dirty_victims`` (async, window
        permitting), then page in or zero-fill ``page_id``.

        The one fault service both execution paths share: the interpreted
        loop passes :meth:`_evict_batch`'s live evictions and keeps the
        faulting page's table entry and replacement position itself;
        compiled replay passes the recorded victim batch.  A write bumps
        the page's version (its entry is clean on arrival).
        """
        sim = self.sim
        fault_start = sim.now
        self.counters.add("faults")
        fault_cpu = self.spec.fault_service_cpu / self.spec.cpu_speed
        self._systime += fault_cpu
        yield sim.timeout(fault_cpu)

        # The fault span opens AFTER the fault-service CPU charge, so it
        # covers exactly the time the machine stalls on the paging device
        # (neither utime nor systime).  The machine runs one sequential
        # reference stream, so the fault spans plus the end-of-run drain
        # span partition the run's measured paging time (ptime) exactly.
        span = sim.tracer.span("fault", page_id, component="machine")
        span.phase("evict")
        for victim_id in dirty_victims:
            contents = self.versioner.contents(victim_id)
            yield from self._start_pageout(victim_id, contents, span)
            self.counters.add("pageouts")

        # A fault on a page whose pageout is still in flight must wait for
        # the write-back to land (the backing store does not hold it yet).
        inflight = self._inflight_by_page.get(page_id)
        if inflight is not None:
            span.phase("writeback_wait")
            yield inflight

        if needs_pagein:
            span.phase("pagein")
            contents = yield from self.pager.pagein(page_id)
            self.counters.add("pageins")
            if self.content_mode:
                self._verify(page_id, contents)
        else:
            # First touch: zero-filled, no backing-store traffic.
            self.counters.add("zero_fills")
        span.end("ok")

        if is_write:
            self.versioner.bump(page_id)
        # Per-fault service latency for the telemetry histogram; the
        # kernel's NullSampler makes this free when telemetry is off.
        sim.sampler.observe_fault(sim.now - fault_start)

    def _start_pageout(self, page_id: int, contents, span=None):
        """Launch an asynchronous pageout, respecting the in-flight window.

        Generator: blocks only while the window is full.  Within-page
        ordering is preserved by chaining: a new pageout of a page whose
        previous pageout is still in flight waits for it first.
        """
        if span is not None and self._inflight_slots >= self.pageout_window:
            span.phase("window_wait")
        while self._inflight_slots >= self.pageout_window:
            waiter = self.sim.event()
            self._window_waiters.append(waiter)
            yield waiter
        if span is not None:
            span.phase("evict")
        previous = self._inflight_by_page.get(page_id)
        token = object()
        self._inflight_tokens[page_id] = token
        self._inflight_slots += 1
        done = self.sim.process(
            self._do_pageout(page_id, contents, previous, token),
            name=f"pageout:{page_id}",
        )
        self._inflight_by_page[page_id] = done

    def _do_pageout(self, page_id: int, contents, previous, token):
        if previous is not None and not previous.processed:
            yield previous
        try:
            yield from self.pager.pageout(page_id, contents)
        finally:
            self._inflight_slots -= 1
            if self._inflight_tokens.get(page_id) is token:
                del self._inflight_tokens[page_id]
                del self._inflight_by_page[page_id]
            if self._window_waiters:
                self._window_waiters.pop(0).succeed()

    def _verify(self, page_id: int, contents: Optional[bytes]) -> None:
        expected = self.versioner.contents(page_id)
        if contents != expected:
            raise PagingError(
                f"pagein of page {page_id} returned corrupt contents "
                f"(version {self.versioner.version_of(page_id)})"
            )

    def _report(self, name: str, start: float) -> CompletionReport:
        return CompletionReport(
            name=name,
            etime=self.sim.now - start,
            utime=self._utime,
            systime=self._systime,
            inittime=self.init_time,
            pageins=self.counters["pageins"],
            pageouts=self.counters["pageouts"],
            faults=self.counters["faults"],
            zero_fills=self.counters["zero_fills"],
            page_transfers=self.pager.transfers,
            counters=self.counters.as_dict(),
        )
