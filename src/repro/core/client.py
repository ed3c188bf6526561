"""The Remote Memory Pager — the client-side block device driver (§3.1).

:class:`RemoteMemoryPager` implements the :class:`~repro.vm.Pager`
interface the VM machine pages against, and composes everything the
paper's driver does:

* forwards pageins/pageouts to the reliability policy's servers;
* falls back to the **local disk** when no server can absorb a page
  ("When no server can be found in order to satisfy the client's
  requests, paging to local disk is used");
* **migrates** pages away from servers that advise overload, and
  **re-replicates** disk-fallback pages to servers when memory frees up
  (§2.1);
* detects server **crashes** mid-request, runs the policy's recovery,
  and retries — the application never sees the failure;
* optionally applies the §5 *network-load threshold*: when recent
  transfer times degrade past a threshold, new pageouts are routed to
  the local disk until the network recovers.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..cluster.registry import ServerRegistry
from ..disk.backend import PartitionBackend
from ..errors import (
    PageCorrupted,
    PageNotFound,
    PagingError,
    RecoveryError,
    RequestTimeout,
    ServerCrashed,
    ServerUnavailable,
    SwapSpaceExhausted,
)
from ..log import get_logger
from ..pipeline import PagingPipeline, PipelineSpec
from ..sim import NULL_SPAN, Resource, Simulator, Tally
from ..vm.page import page_checksum
from ..vm.pager import Pager
from .policies.base import ReliabilityPolicy
from .server import MemoryServer

__all__ = ["RemoteMemoryPager"]

log = get_logger(__name__)

#: Sentinel for "the pipeline could not serve this pagein locally".
_MISS = object()


class RemoteMemoryPager(Pager):
    """The paper's RMP: policy-driven remote paging with disk fallback."""

    name = "rmp"
    #: Transfers averaged by the §5 network-load threshold check.
    THRESHOLD_WINDOW = 16

    def __init__(
        self,
        policy: ReliabilityPolicy,
        disk_backend: Optional[PartitionBackend] = None,
        registry: Optional[ServerRegistry] = None,
        network_threshold: Optional[float] = None,
        pipeline: Optional[PipelineSpec] = None,
    ):
        super().__init__()
        self.policy = policy
        self.sim: Simulator = policy.sim
        self.disk_backend = disk_backend
        self.registry = registry
        self.network_threshold = network_threshold
        #: The pipelined datapath (PR 4), or None for the paper's
        #: synchronous path.  A disabled spec (window=1, prefetch=0)
        #: also means None: the synchronous code below runs untouched,
        #: which is what makes the window=1 baseline bit-identical.
        self.pipeline: Optional[PagingPipeline] = (
            PagingPipeline(self, pipeline)
            if pipeline is not None and pipeline.enabled
            else None
        )
        self._pageout_queue = self.pipeline.queue if self.pipeline else None
        self._on_disk: Set[int] = set()
        self._disk_contents: Dict[int, Optional[bytes]] = {}
        self._recent_transfer_times: list = []
        self._disk_routed_streak = 0
        self._recovering = False
        self._recovery_done = None
        #: End-to-end integrity ledger: page_id -> CRC recorded at pageout
        #: (content mode only).  Verified on every pagein; a mismatch
        #: triggers the policy's scrub path (DESIGN.md "Fault model").
        self.checksums: Dict[int, int] = {}
        # Recovery verifies what it re-protects against this same ledger
        # (pages with no recorded checksum pass unchecked).
        policy.page_verifier = self._checksum_ok
        #: page_id -> previous checksum, present only while an overwrite
        #: is in flight: recovery interrupting that pageout may find the
        #: redundancy still holding the previous version legitimately.
        self._inflight_previous: Dict[int, int] = {}
        #: Pages whose pageout transmission is in flight *right now*.  A
        #: crash mid-transmission can leave the redundancy holding any
        #: prefix of the multi-transfer protocol (e.g. parity's member
        #: update without the parity fold), so recovery must not judge
        #: what it reconstructs for these pages — the client still holds
        #: the definitive bytes and retries the pageout after recovery.
        self._inflight_pageouts: set = set()
        #: Callbacks invoked with the crashed server when recovery starts
        #: (fault-injection hook: lets a chaos plan crash a second server
        #: *during* recovery, Hydra-style composed faults).
        self.recovery_watchers: list = []
        #: Servers retired by recovery, kept findable so a crash that
        #: cascades onto an already-retired name resolves cleanly.
        self._dead_servers: Dict[str, MemoryServer] = {}
        # "One dedicated paging daemon issues pagein and pageout requests"
        # (§3.1): pageouts are serialised through the daemon, so policy
        # state (round-robin order, open parity group) never interleaves.
        self._daemon = Resource(self.sim, capacity=1)
        self.recovery_times = Tally()
        if registry is not None:
            for server in policy.servers:
                registry.register(server)
            provider = getattr(policy, "replacement_provider", "missing")
            if provider is None:
                policy.replacement_provider = self._replacement_server

    # ----------------------------------------------------------- interface
    def pageout(self, page_id: int, contents: Optional[bytes] = None):
        pipe = self.pipeline
        if pipe is not None:
            if pipe.prefetcher is not None:
                # Any pageout supersedes whatever the prefetcher fetched.
                pipe.prefetcher.invalidate(page_id)
            if pipe.queue is not None:
                yield from self._pipelined_pageout(page_id, contents, pipe)
                return
        self.counters.add("pageouts")
        # The request span: phases follow the lifecycle enqueue (waiting
        # for the paging daemon) -> dispatch (policy chose placement) ->
        # per-server transfer/parity phases (marked inside the policy and
        # protocol stack) -> ack, or disk on fallback.
        span = self.sim.tracer.span("pageout", page_id)
        span.phase("enqueue")
        try:
            yield self._daemon.acquire()
            try:
                if contents is not None:
                    new = page_checksum(contents)
                    old = self.checksums.get(page_id)
                    if old is not None and old != new:
                        self._inflight_previous[page_id] = old
                    self.checksums[page_id] = new
                yield from self._place_pageout(page_id, contents, span)
            finally:
                self._inflight_previous.pop(page_id, None)
                self._daemon.release()
        finally:
            span.end("error")  # no-op unless an exception escaped

    def _pipelined_pageout(self, page_id: int, contents, pipe):
        """Generator: write-behind pageout — commit to the queue, return.

        The ledger is updated *now* (the page is committed the moment the
        queue admits it); transmission, fallbacks, and recovery happen in
        the queue's drainer, which places each entry through the same
        :meth:`_place_pageout` as the synchronous path.
        """
        self.counters.add("pageouts")
        if contents is not None:
            new = page_checksum(contents)
            old = self.checksums.get(page_id)
            if old is not None and old != new and page_id not in self._inflight_previous:
                # The redundancy legitimately holds the last *transmitted*
                # version until this entry settles (see _pageout_settled).
                self._inflight_previous[page_id] = old
            self.checksums[page_id] = new
        yield from pipe.queue.enqueue(page_id, contents)

    def _place_pageout(self, page_id: int, contents, span):
        """Generator: place one pageout — the one placement routine the
        paging daemon and the write-behind queue's drainer share.

        Routes to the local disk when the §5 network threshold says the
        network is degraded, when no server has room (§2.1), or when the
        request path times out; otherwise the policy places the page
        (recovering crashes inside :meth:`_policy_pageout`) and the ack
        drops any older disk copy.  Ends ``span`` on every normal exit.
        """
        if self._network_degraded():
            span.phase("disk")
            yield from self._disk_pageout(page_id, contents)
            span.end("disk-fallback", reason="network-degraded")
            return
        start = self.sim.now
        span.phase("dispatch")
        try:
            yield from self._policy_pageout(page_id, contents, span=span)
        except (ServerUnavailable, SwapSpaceExhausted):
            # §2.1: no server has room — the disk absorbs the page.
            reason = "no-server-room"
        except RequestTimeout as timeout:
            # The path (not the peer) failed: keep a definitive copy on
            # the local disk.  Any half-finished remote placement is
            # abandoned; the disk copy wins on the next pagein.
            self.counters.add("timeout_fallback_pageouts")
            self.sim.tracer.emit(
                "pager", "pageout_timeout",
                page_id=page_id, dst=timeout.dst, attempts=timeout.attempts,
            )
            reason = "request-timeout"
        else:
            span.phase("ack")
            self._observe_transfer(self.sim.now - start)
            self._on_disk.discard(page_id)
            self._disk_contents.pop(page_id, None)
            span.end("ok")
            return
        span.phase("disk")
        yield from self._disk_pageout(page_id, contents)
        span.end("disk-fallback", reason=reason)

    def _pageout_settled(self, page_id: int, contents) -> None:
        """Queue callback: one write-behind entry finished transmitting."""
        if self._pageout_queue is None:
            return
        if self._pageout_queue.lookup(page_id) is not None:
            # A newer version is still pending; the servers now hold the
            # version just transmitted — that is the checksum recovery
            # may legitimately encounter until the newer entry settles.
            if contents is not None:
                self._inflight_previous[page_id] = page_checksum(contents)
            return
        self._inflight_previous.pop(page_id, None)

    def pagein(self, page_id: int):
        self.counters.add("pageins")
        span = self.sim.tracer.span("pagein", page_id)
        start = self.sim.now
        try:
            pipe = self.pipeline
            if pipe is not None:
                contents = yield from self._pipelined_pagein(page_id, pipe, span)
                if contents is not _MISS:
                    span.end("ok")
                    self.sim.sampler.observe("pager.pagein", self.sim.now - start)
                    return contents
            if page_id in self._on_disk:
                span.phase("disk")
                contents = yield from self._disk_pagein(page_id)
                span.end("disk-fallback")
                self.sim.sampler.observe("pager.pagein", self.sim.now - start)
                return contents
            span.phase("dispatch")
            try:
                contents = yield from self._retry_crashes(
                    self.policy.pagein, span, "dispatch", page_id
                )
            except RequestTimeout as timeout:
                # Unlike a crash there is nothing to recover — the server
                # may be fine behind a lossy path.  Surface it; the VM (or
                # the campaign's invariant replay) retries later.
                self.counters.add("timeout_pageins")
                self.sim.tracer.emit(
                    "pager", "pagein_timeout",
                    page_id=page_id, dst=timeout.dst, attempts=timeout.attempts,
                )
                raise
            contents = yield from self._verified(page_id, contents, span=span)
            span.end("ok")
            # Per-pagein latency histogram (telemetry-gated: the default
            # NullSampler makes this a no-op) — the paper-scale spectrum
            # reads its percentiles per policy.
            self.sim.sampler.observe("pager.pagein", self.sim.now - start)
            return contents
        finally:
            span.end("error")

    def _pipelined_pagein(self, page_id: int, pipe, span):
        """Generator: try the local pipeline (write-back queue, prefetch
        cache) before any remote traffic; returns ``_MISS`` on a miss.

        Queue hits return the queued bytes directly — they are the
        newest committed version and never left the client, so there is
        nothing to verify.  Prefetch-cache hits were checksum-verified
        on arrival (`AdaptivePrefetcher._fetch`).
        """
        prefetcher = pipe.prefetcher
        if prefetcher is not None:
            # Feed the detector the true demand-fault stream, whatever
            # source ends up serving the fault.
            prefetcher.observe_fault(page_id)
        if pipe.queue is not None:
            entry = pipe.queue.lookup(page_id)
            if entry is not None:
                pipe.counters.add("writeback_hits")
                span.phase("writeback-hit")
                self.sim.tracer.emit("pipeline", "writeback_hit", page_id=page_id)
                return entry.contents
        if prefetcher is not None:
            waiter = prefetcher.inflight_event(page_id)
            if waiter is not None:
                # The predicted fault arrived before its prefetch landed:
                # ride the in-flight fetch instead of issuing a second one.
                span.phase("prefetch-wait")
                yield waiter
            hit, contents = prefetcher.take(page_id)
            if hit:
                pipe.counters.add("prefetch_hits")
                if waiter is not None:
                    pipe.counters.add("prefetch_late_hits")
                span.phase("prefetch-hit")
                self.sim.tracer.emit("pipeline", "prefetch_hit", page_id=page_id)
                return contents
        return _MISS

    def _checksum_ok(self, page_id: int, contents) -> bool:
        """Does ``contents`` match the pageout checksum for ``page_id``?

        True when no checksum was recorded (metadata mode, or the page
        never left through our pageout path).  Installed on the policy as
        ``page_verifier`` so recovery never re-protects rotted bytes.
        """
        expected = self.checksums.get(page_id)
        if expected is None:
            return True
        if page_id in self._inflight_pageouts:
            # Mid-pageout: the redundancy may hold any prefix of the
            # transfer protocol (a first placement may have reached the
            # data server but not the parity fold).  Whatever recovery
            # re-protects is overwritten by the post-recovery retry.
            return True
        actual = page_checksum(contents)
        return actual == expected or actual == self._inflight_previous.get(page_id)

    def _verified(self, page_id: int, contents, span=NULL_SPAN):
        """Generator: end-to-end checksum check + policy scrub on mismatch.

        Returns clean contents, possibly reconstructed from the policy's
        redundancy; raises :class:`~repro.errors.PageCorrupted` when no
        redundant copy can produce bytes matching the pageout checksum.
        """
        expected = self.checksums.get(page_id)
        if (
            contents is None  # metadata mode: nothing to verify
            or expected is None  # never left through our pageout path
            or page_checksum(contents) == expected
        ):
            return contents
        self.counters.add("corrupt_pageins")
        self.sim.tracer.emit(
            "pager", "corrupt_detected",
            page_id=page_id, policy=getattr(self.policy, "name", "unknown"),
        )
        span.phase("scrub")

        def verify(candidate: bytes) -> bool:
            return page_checksum(candidate) == expected

        # A crash in the page's redundancy group surfaces here as an
        # undetected crash: recover it, then scrub again.
        clean = yield from self._retry_crashes(
            self.policy.scrub_page, span, "scrub", page_id, verify
        )
        if clean is None:
            self.counters.add("corrupt_unrepaired")
            raise PageCorrupted(page_id, getattr(self.policy, "name", "unknown"))
        self.counters.add("scrub_recoveries")
        self.sim.tracer.emit("pager", "scrub_recovered", page_id=page_id)
        return clean

    def release(self, page_id: int) -> None:
        if self.pipeline is not None:
            if self.pipeline.queue is not None:
                self.pipeline.queue.release(page_id)
            if self.pipeline.prefetcher is not None:
                self.pipeline.prefetcher.invalidate(page_id)
            self._inflight_previous.pop(page_id, None)
        self.policy.release(page_id)
        if page_id in self._on_disk and self.disk_backend is not None:
            self.disk_backend.release_page(page_id)
        self._on_disk.discard(page_id)
        self._disk_contents.pop(page_id, None)
        self.checksums.pop(page_id, None)

    @property
    def pending_drain(self) -> bool:
        """Does the machine's end-of-run barrier need to call drain()?"""
        return self.pipeline is not None

    def drain(self):
        """Generator: settle the write-behind queue, quiesce prefetching."""
        if self.pipeline is not None:
            yield from self.pipeline.drain()

    @property
    def transfers(self) -> int:
        """Network page transfers (the §4.3 extrapolation input)."""
        return self.policy.transfers

    @property
    def pages_on_local_disk(self) -> int:
        return len(self._on_disk)

    # ------------------------------------------------------ policy wrapper
    def _policy_pageout(self, page_id: int, contents, span=NULL_SPAN):
        self._inflight_pageouts.add(page_id)
        try:
            yield from self._retry_crashes(
                self.policy.pageout, span, "dispatch", page_id, contents
            )
        finally:
            self._inflight_pageouts.discard(page_id)

    def _retry_crashes(self, request, span, phase: str, *args):
        """Generator: ``request(*args, span=span)``, recovering each
        distinct crash it surfaces once and retrying.

        Multi-failure campaigns can surface a *different* crash on each
        retry (erasure placements span k+m servers); a repeating name
        means recovery cannot close the hole — the fault exceeds what
        recovery can fix and escapes.  ``span`` shows ``recovery``, then
        ``phase`` again for the retry.
        """
        crashed_seen: Set[str] = set()
        while True:
            try:
                return (yield from request(*args, span=span))
            except ServerCrashed as crash:
                if crash.server_name in crashed_seen:
                    raise
                crashed_seen.add(crash.server_name)
                span.phase("recovery")
                yield from self._handle_crash(crash)
                span.phase(phase)

    def _handle_crash(self, crash: ServerCrashed):
        """Run the policy's recovery exactly once per crash event.

        Concurrent requests (async pageouts, the faulting pagein) may all
        trip over the same dead server; the first runs recovery and the
        rest wait for it, then retry their operation.

        Composed faults (Hydra-style): if *another* server dies while
        recovery is copying pages around, ``policy.recover`` surfaces a
        fresh :class:`ServerCrashed`.  The loop retires the first victim
        and restarts recovery for the second.  A name repeating within
        one cascade means recovery keeps tripping over the same hole —
        the fault exceeds the policy's tolerance and becomes a
        :class:`RecoveryError` instead of an infinite ping-pong.
        """
        if self._recovering:
            while self._recovering:
                yield self._recovery_done
            # The recovery we waited on may have *failed* (aborted on a
            # lossy path, exceeded the policy's tolerance).  If the
            # server that faulted us is still dead-and-active the hole
            # is still open: fall through and run recovery ourselves.
            if not self._still_dead(crash.server_name):
                return
        seen = set()
        self._recovering = True
        self._recovery_done = self.sim.event()
        try:
            while True:
                name = crash.server_name
                if name in seen:
                    raise RecoveryError(
                        f"cascading crashes exceed the policy's fault "
                        f"tolerance: {sorted(seen)} then {name!r} again"
                    )
                seen.add(name)
                crashed = self._find_crashed(name)
                if crashed is None:
                    raise RecoveryError(f"unknown crashed server {name!r}")
                started = self.sim.now
                self.sim.tracer.emit(
                    "pager", "recovery_start", server=crashed.name
                )
                log.info(
                    "server %s crashed at t=%.3f; recovering",
                    crashed.name, started,
                )
                for watcher in list(self.recovery_watchers):
                    watcher(crashed)
                try:
                    yield from self.policy.recover(crashed)
                except ServerCrashed as second:
                    # Another victim mid-recovery: retire the first (its
                    # pages are still being re-protected — the next pass
                    # finishes the job) and recover the new one.  Waiters
                    # stay parked: the overall recovery isn't done.
                    self._retire(crashed)
                    self.counters.add("cascaded_recoveries")
                    self.sim.tracer.emit(
                        "pager", "recovery_cascade",
                        first=crashed.name, then=second.server_name,
                    )
                    crash = second
                    continue
                self.recovery_times.observe(self.sim.now - started)
                self.counters.add("recoveries")
                self.sim.tracer.emit(
                    "pager", "recovery_done",
                    server=crashed.name, duration=self.sim.now - started,
                )
                log.info(
                    "recovered from %s crash in %.3f simulated seconds",
                    crashed.name, self.sim.now - started,
                )
                # The crashed workstation is gone: drop it from the
                # rotation so placement never aims at it again.
                self._retire(crashed)
                return
        finally:
            # Terminal either way — success or an escaping failure.
            # Waiters wake exactly once and re-check the server's state.
            self._recovering = False
            self._recovery_done.succeed()

    def _active_server(self, name: str) -> Optional[MemoryServer]:
        """The policy's server (data or parity) called ``name``, if any."""
        for server in self.policy.servers:
            if server.name == name:
                return server
        parity = getattr(self.policy, "parity_server", None)
        if parity is not None and parity.name == name:
            return parity
        return None

    def _still_dead(self, name: str) -> bool:
        """Is ``name`` still in the active set yet not alive?

        True means a finished recovery pass did *not* resolve this
        crash (it failed before retiring the server); False means the
        server was retired/re-homed or was never this policy's problem.
        """
        server = self._active_server(name)
        return server is not None and not server.is_alive

    def _find_crashed(self, name: str) -> Optional[MemoryServer]:
        server = self._active_server(name)
        return server if server is not None else self._dead_servers.get(name)

    def _retire(self, crashed: MemoryServer) -> None:
        self._dead_servers[crashed.name] = crashed
        self.policy.servers = [s for s in self.policy.servers if s is not crashed]
        if self.registry is not None:
            self.registry.unregister(crashed.name)

    def _replacement_server(self) -> Optional[MemoryServer]:
        if self.registry is None:
            return None
        exclude = {s.name for s in self.policy.servers}
        parity = getattr(self.policy, "parity_server", None)
        if parity is not None:
            exclude.add(parity.name)
        return self.registry.best(exclude=exclude)

    # ------------------------------------------------------- disk fallback
    def _disk_pageout(self, page_id: int, contents):
        if self.disk_backend is None:
            raise SwapSpaceExhausted(
                "no server has free memory and no local-disk fallback is configured"
            )
        yield from self.disk_backend.write_page(page_id)
        self._on_disk.add(page_id)
        self._disk_contents[page_id] = contents
        self.counters.add("disk_fallback_pageouts")

    def _disk_pagein(self, page_id: int):
        yield from self.disk_backend.read_page(page_id)
        self.counters.add("disk_fallback_pageins")
        return self._disk_contents.get(page_id)

    # ------------------------------------------------- migration (§2.1)
    def migrate_from(self, server: MemoryServer, limit: Optional[int] = None):
        """Generator: move pages off an advising/overloaded server.

        Pages move *directly* from the loaded server to the best other
        server (§2.1's migration, one server-to-server transfer each),
        falling back through the client to the local disk when no server
        has room.  Returns the number moved.  Only placement-mapped
        policies (no-reliability, write-through) migrate page-by-page;
        redundant policies already tolerate losing the server and are
        rebalanced by their own recovery paths.
        """
        placement = getattr(self.policy, "_placement", None)
        if placement is None:
            return 0
        victims = [p for p, s in placement.items() if s is server]
        if limit is not None:
            victims = victims[:limit]
        moved = 0
        for page_id in victims:
            target = None
            if self.registry is not None:
                target = self.registry.best(exclude={server.name})
            if (
                target is not None
                and target in self.policy.servers
                and getattr(target, "is_alive", False)
            ):
                transferred = yield from server.transfer_to(target, [page_id])
                if transferred:
                    placement[page_id] = target
                    self.policy.counters.add("transfers")
                    moved += 1
                    continue
            # No server has room: bounce through the client to the disk.
            contents = yield from self.policy.pagein(page_id)
            yield from self._disk_pageout(page_id, contents)
            placement.pop(page_id, None)
            server.free([page_id])
            moved += 1
        self.counters.add("migrated_pages", moved)
        if moved:
            self.sim.tracer.emit("pager", "migration", server=server.name, moved=moved)
        return moved

    def start_housekeeping(
        self,
        interval: float = 10.0,
        migrate_batch: int = 64,
        replicate_batch: int = 64,
    ):
        """§2.1's periodic client maintenance, as a background process.

        "Whenever the client's local disk is used to store some of its
        paged out pages, the client periodically checks the memory load
        of all possible remote memory servers" — every ``interval``
        seconds, migrate pages off advising servers and replicate
        disk-fallback pages back to freed remote memory.
        """
        if interval <= 0:
            raise ValueError(f"housekeeping interval must be positive: {interval}")
        process = self.sim.process(
            self._housekeep(interval, migrate_batch, replicate_batch),
            name="rmp-housekeeping",
        )
        self._housekeeping = process
        return process

    def stop_housekeeping(self) -> None:
        """Cancel the background housekeeping process, if running."""
        process = getattr(self, "_housekeeping", None)
        if process is not None and process.is_alive:
            process.interrupt("housekeeping-stop")

    def _housekeep(self, interval: float, migrate_batch: int, replicate_batch: int):
        from ..sim import Interrupt

        try:
            while True:
                yield self.sim.timeout(interval)
                for server in list(self.policy.servers):
                    if server.is_alive and getattr(server, "advising", False):
                        yield from self.migrate_from(server, limit=migrate_batch)
                if self._on_disk:
                    yield from self.replicate_disk_pages_back(limit=replicate_batch)
        except Interrupt:
            return

    def replicate_disk_pages_back(self, limit: Optional[int] = None):
        """Generator: §2.1's re-replication of disk-fallback pages.

        "If a server having enough free memory is found, some of the
        pages stored at the local disk are replicated to this server."
        """
        candidates = list(self._on_disk)[:limit] if limit else list(self._on_disk)
        moved = 0
        for page_id in candidates:
            contents = yield from self._disk_pagein(page_id)
            try:
                yield from self._policy_pageout(page_id, contents)
            except (ServerUnavailable, SwapSpaceExhausted):
                break  # still no room; try again later
            self._on_disk.discard(page_id)
            self._disk_contents.pop(page_id, None)
            if self.disk_backend is not None:
                self.disk_backend.release_page(page_id)
            moved += 1
        self.counters.add("replicated_back", moved)
        if moved:
            self.sim.tracer.emit("pager", "replicated_back", moved=moved)
        return moved

    # ------------------------------------- network-load threshold (§5)
    def _observe_transfer(self, elapsed: float) -> None:
        if self.network_threshold is None:
            return
        self._recent_transfer_times.append(elapsed)
        if len(self._recent_transfer_times) > self.THRESHOLD_WINDOW:
            self._recent_transfer_times.pop(0)

    def _network_degraded(self) -> bool:
        """§5: route pageouts to disk when the network is congested.

        After ``2 * THRESHOLD_WINDOW`` consecutive disk-routed pageouts the
        measurement window is cleared, forcing a fresh probe of the
        network — so the pager returns to remote memory once congestion
        clears instead of sticking to the disk forever.
        """
        if self.network_threshold is None or self.disk_backend is None:
            return False
        window = self._recent_transfer_times
        if len(window) < self.THRESHOLD_WINDOW:
            return False
        degraded = sum(window) / len(window) > self.network_threshold
        if degraded:
            self._disk_routed_streak += 1
            if self._disk_routed_streak >= 2 * self.THRESHOLD_WINDOW:
                self._recent_transfer_times.clear()
                self._disk_routed_streak = 0
        else:
            self._disk_routed_streak = 0
        return degraded
