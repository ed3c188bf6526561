"""PARITY LOGGING — the paper's novel reliability policy (§2.2).

"The key idea is that a given page need not be bound to a particular
server or parity group.  Instead, every time a page is paged out, a new
server and a new parity group may be used to host the page."

Mechanics:

* The client keeps a page-sized parity **buffer** (initially zero).  Each
  paged-out page is XORed into the buffer and shipped to the next server
  *round robin*; after ``S`` pageouts the buffer is shipped to the parity
  server and a fresh group opens — so the steady-state cost is
  ``1 + 1/S`` transfers per pageout, with no server-to-server traffic and
  no waiting for acknowledgements (footnote 2: the client computed the
  parity itself).
* A re-paged-out page's previous incarnation is marked **inactive** in its
  old group, but *not* deleted (footnote 3: deleting would force a parity
  update).  When every member of a sealed group is inactive, the group's
  server slots and parity page are reused.
* Superseded incarnations pile up, so each server devotes **overflow
  memory** (the paper used 10% with 4 servers and "never had to perform
  garbage collection").  If a server does fill, the client **garbage
  collects**: it re-pageouts the active members of fragmented groups into
  the current group, emptying — and thus freeing — the old ones.

Crash recovery XORs each affected group's surviving members with its
parity page; for the still-open group, the client's own buffer *is* the
parity.  Recovered active pages are re-homed on surviving servers; lost
inactive incarnations are cancelled out of their group's parity instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ...errors import PageNotFound, RecoveryError, ServerCrashed, ServerUnavailable
from ...sim import NULL_SPAN, Tally
from ...units import microseconds
from ...vm.page import xor_all, xor_bytes, zero_page
from ..server import MemoryServer
from .base import ReliabilityPolicy

__all__ = ["ParityLogging", "GroupMember", "ParityGroup"]

#: Client CPU to XOR one 8 KB page into the parity buffer.
CLIENT_XOR_CPU = microseconds(80)


class GroupMember:
    """One logged page version inside a parity group."""

    __slots__ = ("page_id", "incarnation", "server", "key", "active", "group")

    def __init__(self, page_id: int, incarnation: int, server: MemoryServer, group: "ParityGroup"):
        self.page_id = page_id
        self.incarnation = incarnation
        self.server = server
        self.key = (page_id, incarnation)
        self.active = True
        self.group = group


class ParityGroup:
    """Up to S members (one per server, by round robin) plus one parity.

    While the group is open (and while its seal is in flight), ``buffer``
    holds the running XOR of its members — the client-side parity the
    paper's footnote 2 relies on for recovery without server acks.
    """

    __slots__ = ("gid", "members", "sealed", "buffer")

    def __init__(self, gid: int, page_size: int, content_mode: bool):
        self.gid = gid
        self.members: List[GroupMember] = []
        self.sealed = False
        self.buffer: Optional[bytes] = zero_page(page_size) if content_mode else None

    @property
    def parity_key(self):
        return ("parity", self.gid)

    @property
    def all_inactive(self) -> bool:
        return all(not m.active for m in self.members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "sealed" if self.sealed else "open"
        live = sum(m.active for m in self.members)
        return f"<ParityGroup {self.gid} {state} {live}/{len(self.members)} active>"


class ParityLogging(ReliabilityPolicy):
    """The paper's parity-logging reliability policy."""

    name = "parity-logging"

    def __init__(
        self,
        client_host,
        stack,
        servers,
        parity_server: MemoryServer,
        content_mode: bool = False,
        **kwargs,
    ):
        super().__init__(client_host, stack, servers, **kwargs)
        self.parity_server = parity_server
        self.content_mode = content_mode
        self._rr = 0
        self._next_gid = 0
        self._groups: Dict[int, ParityGroup] = {}
        self._current = self._open_group()
        self._location: Dict[int, GroupMember] = {}
        #: Monotonic per-page incarnation counter.  Never reset — a key
        #: (page_id, incarnation) must be unique forever, or a released
        #: page's group reuse could free a *new* incarnation's storage.
        self._incarnations: Dict[int, int] = {}
        #: Detached, full groups whose parity store failed (e.g. the
        #: parity server crashed mid-seal); retried before new pageouts.
        self._pending_seals: List[ParityGroup] = []
        #: Hook the client installs to supply replacement servers.
        self.replacement_provider: Optional[Callable[[], Optional[MemoryServer]]] = None
        self.gc_runs = 0
        self._in_gc = False

    @property
    def memory_overhead_factor(self) -> float:
        return 1.0 + 1.0 / len(self.servers)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    # ------------------------------------------------------------- pageout
    def _open_group(self) -> ParityGroup:
        group = ParityGroup(self._next_gid, self.page_size, self.content_mode)
        self._next_gid += 1
        self._groups[group.gid] = group
        return group

    def _xor_into_buffer(self, group: ParityGroup, contents: Optional[bytes]):
        """Generator: fold a page into the group's client-side parity.

        ``buffer_xors`` counts every full-page fold.  With the PR 4
        write-behind queue, a page re-dirtied while queued is coalesced
        *before* it reaches this policy, so a superseded version is never
        folded in (and never has to be folded out again) — the counter is
        how tests pin that the wasted XOR actually disappears.
        """
        self.counters.add("buffer_xors")
        yield self.sim.timeout(CLIENT_XOR_CPU)
        if self.content_mode and contents is not None:
            group.buffer = xor_bytes(group.buffer, contents)

    def _retire(self, member: GroupMember) -> None:
        """Mark a superseded incarnation inactive; reuse emptied groups."""
        member.active = False
        group = member.group
        if group.gid not in self._groups:
            return  # group already dissolved by the garbage collector
        if group.sealed and group.all_inactive:
            for m in group.members:
                m.server.free([m.key])
            self.parity_server.free([group.parity_key])
            del self._groups[group.gid]
            self.counters.add("groups_reused")

    def pageout(self, page_id: int, contents: Optional[bytes], span=NULL_SPAN):
        # First, finish any seal that previously failed (a parity-server
        # crash mid-seal leaves the group buffered and recoverable; once
        # the client has installed a replacement, the seal must land).
        # Concurrent pipelined pageouts may retry the same group, so the
        # one that finishes second finds it already removed.
        while self._pending_seals:
            group = self._pending_seals[0]
            yield from self._seal(group, span=span)  # on failure: stays pending
            if group in self._pending_seals:
                self._pending_seals.remove(group)

        previous = self._location.get(page_id)
        incarnation = self._incarnations.get(page_id, 0) + 1
        self._incarnations[page_id] = incarnation
        server = self.servers[self._rr % len(self.servers)]
        self._require_live(server)
        key = (page_id, incarnation)
        try:
            yield from self._send_page(server, key, contents, span=span)
        except ServerUnavailable:
            if self._in_gc:
                raise  # GC itself ran out of room: surface to the client
            # Overflow memory exhausted: reclaim superseded versions, retry.
            yield from self.garbage_collect()
            yield from self._send_page(server, key, contents, span=span)
        # Resolve the target group only now: a crash mid-send aborts the
        # pageout before any parity bookkeeping (the retry must not fold
        # the page into a buffer twice), and garbage collection triggered
        # during the send may have sealed what used to be the open group.
        group = self._current
        if any(m.server.name == server.name for m in group.members):
            # The rotation shrank (crash recovery removed a server), so
            # the open group would take a second member from one server —
            # which would break single-crash recoverability.  Seal it
            # early (groups may be smaller than S) and start fresh.
            self._current = self._open_group()
            yield from self._seal_detached(group, span=span)
            group = self._current
        member = GroupMember(page_id, incarnation, server, group)
        span.phase("parity.xor")
        yield from self._xor_into_buffer(group, contents)
        self._rr += 1
        group.members.append(member)
        if previous is not None:
            self._retire(previous)
        self._location[page_id] = member
        self.counters.add("pageouts")
        if group is self._current and len(group.members) >= len(self.servers):
            # Detach the full group first: GC triggered by the seal (or
            # concurrent recovery) must log into a fresh group.
            self._current = self._open_group()
            yield from self._seal_detached(group, span=span)

    def _seal_detached(self, group: ParityGroup, span=NULL_SPAN):
        """Seal a detached group; on crash it stays pending (and remains
        recoverable through its client-side buffer meanwhile)."""
        self._pending_seals.append(group)
        yield from self._seal(group, span=span)
        if group in self._pending_seals:
            self._pending_seals.remove(group)

    def _seal(self, group: ParityGroup, span=NULL_SPAN):
        """Ship the group's parity buffer to the parity server.

        Idempotent: reentrant callers (GC inside a pending-seal retry)
        may race to seal the same group; only the first transfer runs.
        """
        if group.sealed:
            return
        yield from self.stack.send_page(
            self.client_host, self.parity_server.host.name, self.page_size,
            span=span, label="parity",
        )
        self.counters.add("transfers")
        self.counters.add("parity_transfers")
        span.phase("server")
        try:
            yield from self.parity_server.store(group.parity_key, group.buffer)
        except ServerUnavailable:
            if self._in_gc:
                raise
            # Parity server out of room: compact, then retry the seal.
            yield from self.garbage_collect()
            yield from self.parity_server.store(group.parity_key, group.buffer)
        self.sim.tracer.emit(
            "policy", "group_seal", gid=group.gid, members=len(group.members)
        )
        group.sealed = True
        group.buffer = None  # the parity server holds it now
        if group.all_inactive:
            # Every member was superseded before the seal; reuse at once.
            for m in group.members:
                m.server.free([m.key])
            self.parity_server.free([group.parity_key])
            del self._groups[group.gid]
            self.counters.add("groups_reused")

    # -------------------------------------------------------------- pagein
    def pagein(self, page_id: int, span=NULL_SPAN):
        member = self._location.get(page_id)
        if member is None:
            raise PageNotFound(page_id, where=self.name)
        self._require_live(member.server)
        contents = yield from self._fetch_page(member.server, member.key, span=span)
        self.counters.add("pageins")
        return contents

    def holds(self, page_id: int) -> bool:
        member = self._location.get(page_id)
        return (
            member is not None
            and member.server.is_alive
            and member.server.holds(member.key)
        )

    def release(self, page_id: int) -> None:
        member = self._location.pop(page_id, None)
        if member is not None:
            self._retire(member)

    def scrub_page(self, page_id: int, verify, span=NULL_SPAN):
        """Repair at-rest bit-rot from the page's log group.

        XORs the group's other members with its parity — the parity
        server's page for a sealed group, the client's own buffer for the
        open one (footnote 2) — verifies against the pageout checksum,
        and re-stores the clean bytes over the rotted incarnation.
        """
        member = self._location.get(page_id)
        if member is None or not member.server.is_alive:
            return None
        group = member.group
        pieces = []
        for other in group.members:
            if other is member:
                continue
            if not other.server.is_alive:
                # An undetected crash in the group: surface it so the
                # pager recovers, then retries this scrub.
                raise ServerCrashed(other.server.name)
            piece = yield from self._fetch_page(
                other.server, other.key, span=span, label="scrub"
            )
            pieces.append(piece)
        if group.sealed:
            if not self.parity_server.is_alive:
                return None
            parity = yield from self._fetch_page(
                self.parity_server, group.parity_key, span=span, label="scrub"
            )
            pieces.append(parity)
        else:
            pieces.append(group.buffer)
        contents = xor_all(pieces)
        if contents is None or not verify(contents):
            return None
        yield from self._send_page(
            member.server, member.key, contents, span=span, label="scrub"
        )
        self.counters.add("scrub_repairs")
        return contents

    # ---------------------------------------------------- garbage collection
    def garbage_collect(self):
        """Generator: compact fragmented groups (§2.2).

        Re-pageouts the *active* members of the most-fragmented sealed
        groups into the current group; once a victim group is fully
        inactive it is freed.  Each moved page costs one fetch plus one
        normal (logged) pageout.
        """
        self.gc_runs += 1
        self._in_gc = True
        self.sim.tracer.emit("policy", "gc_start", groups=len(self._groups))
        try:
            yield from self._collect()
        finally:
            self._in_gc = False
            self.sim.tracer.emit(
                "policy", "gc_done", moved=self.counters["gc_moved_pages"]
            )

    def _collect(self):
        """Compact the most-fragmented sealed groups.

        For each victim group: fetch its live members into client memory,
        dissolve the whole group (freeing every member slot *and* the
        parity page — safe, because the live data is now client-held),
        then re-log the live pages into the current group.  Fetch-first
        ordering is what lets cleaning make progress on a full server: a
        log cleaner cannot require free space before it frees space.
        """
        fragmented = sorted(
            (
                g
                for g in self._groups.values()
                if g.sealed and not g.all_inactive
                and any(not m.active for m in g.members)
            ),
            key=lambda g: sum(m.active for m in g.members),
        )
        if not fragmented:
            raise ServerUnavailable("any", reason="GC found nothing to reclaim")
        moved = 0
        for group in fragmented[: max(1, len(fragmented) // 2)]:
            live = []
            for member in group.members:
                if member.active and member.server.is_alive:
                    contents = yield from self._fetch_page(member.server, member.key)
                    self.counters.add("gc_transfers")
                    live.append((member.page_id, contents))
            for member in group.members:
                member.server.free([member.key])
            self.parity_server.free([group.parity_key])
            del self._groups[group.gid]
            self.counters.add("groups_reused")
            for page_id, contents in live:
                yield from self.pageout(page_id, contents)
                self.counters.add("gc_transfers")
                moved += 1
        self.counters.add("gc_moved_pages", moved)

    # -------------------------------------------------------------- recovery
    def recover(self, crashed: MemoryServer):
        """Reconstruct everything lost on ``crashed`` (§2.2).

        Each group holds at most one member per server (round-robin
        placement guarantees it), so a single crash costs one XOR
        reconstruction per affected group.  The reconstructed page is
        *cancelled out* of its old group's parity and, if still active,
        **re-logged as a fresh pageout** — the log-structured move, which
        keeps every group one-member-per-server and therefore keeps the
        system single-crash tolerant after recovery.
        """
        if crashed is self.parity_server:
            restored = yield from self._recover_parity_server()
            return restored
        # Drop the dead server from the rotation first so the re-logging
        # pageouts below never aim at it.
        self.servers = [s for s in self.servers if s is not crashed]
        if not self.servers:
            raise RecoveryError("no surviving data servers")
        restored = 0
        for group in list(self._groups.values()):
            lost = [m for m in group.members if m.server is crashed]
            if not lost:
                continue
            if len(lost) > 1:
                raise RecoveryError(
                    f"group {group.gid} lost {len(lost)} members; round-robin "
                    "placement should make this impossible"
                )
            member = lost[0]
            pieces = []
            for other in group.members:
                if other is member:
                    continue
                piece = yield from self._fetch_page(other.server, other.key)
                pieces.append(piece)
            if group.sealed:
                parity = yield from self._fetch_page(
                    self.parity_server, group.parity_key
                )
                pieces.append(parity)
            else:
                # An unsealed group's parity is the client's own buffer.
                pieces.append(group.buffer)
            contents = xor_all(pieces)
            # Stale incarnations reconstruct to *old* bytes by design —
            # only the active copy must match the pageout checksum.
            if member.active:
                self._recovery_verify(member.page_id, contents)
            # Cancel the lost member's contribution to its group's parity
            # and drop it from the group.
            group.members.remove(member)
            if group.sealed:
                yield from self.stack.send_page(
                    self.client_host, self.parity_server.host.name, self.page_size
                )
                self.counters.add("transfers")
                yield from self.parity_server.xor_into(group.parity_key, contents)
            else:
                yield from self._xor_into_buffer(group, contents)
            if group.gid in self._groups and group.sealed and group.all_inactive:
                # Removing the member may have emptied the group.
                for m in group.members:
                    m.server.free([m.key])
                self.parity_server.free([group.parity_key])
                del self._groups[group.gid]
                self.counters.add("groups_reused")
            if member.active:
                self._location.pop(member.page_id, None)
                yield from self.pageout(member.page_id, contents)
                restored += 1
        self.counters.add("recovered_pages", restored)
        return restored

    def _recover_parity_server(self):
        """Parity server died: data is intact; rebuild parity pages."""
        replacement = self.replacement_provider() if self.replacement_provider else None
        if replacement is None:
            raise RecoveryError("no replacement available for the parity server")
        rebuilt = 0
        for group in self._groups.values():
            if not group.sealed:
                continue
            pieces = []
            for member in group.members:
                piece = yield from self._fetch_page(member.server, member.key)
                pieces.append(piece)
            parity = xor_all(pieces)
            yield from self.stack.send_page(
                self.client_host, replacement.host.name, self.page_size
            )
            self.counters.add("transfers")
            yield from replacement.store(group.parity_key, parity)
            rebuilt += 1
        self.parity_server = replacement
        self.counters.add("recovered_parity_pages", rebuilt)
        return rebuilt
