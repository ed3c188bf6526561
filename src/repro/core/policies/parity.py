"""Basic PARITY: RAID-style fixed parity groups (§2.2).

Page ``(i, j)`` is the j-th page on server ``i``; parity page ``j`` is
the XOR of the j-th page of every server.  A pageout updates parity *in
place*:

1. the client sends the new page to its server, which XORs old and new;
2. the server forwards that delta to the parity server, which folds it
   into the old parity.

Memory overhead is only ``1 + 1/S``, but every pageout costs **two** page
transfers — the shortcoming the paper's parity *logging* removes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...errors import PageNotFound, RecoveryError, ServerCrashed, ServerUnavailable
from ...sim import NULL_SPAN
from ...vm.page import xor_all
from ..server import MemoryServer
from .base import ReliabilityPolicy

__all__ = ["BasicParity"]


class BasicParity(ReliabilityPolicy):
    """Fixed-placement parity over S data servers + one parity server."""

    name = "parity"

    def __init__(self, client_host, stack, servers, parity_server: MemoryServer, **kwargs):
        super().__init__(client_host, stack, servers, **kwargs)
        self.parity_server = parity_server
        #: page_id -> (server, slot)
        self._placement: Dict[int, Tuple[MemoryServer, int]] = {}
        self._slots: Dict[str, int] = {s.name: 0 for s in self.servers}
        self._next = 0

    @property
    def memory_overhead_factor(self) -> float:
        return 1.0 + 1.0 / len(self.servers)

    def _parity_key(self, slot: int) -> Tuple[str, int]:
        return ("parity", slot)

    def _place(self, page_id: int) -> Tuple[MemoryServer, int]:
        placed = self._placement.get(page_id)
        if placed is not None:
            return placed
        candidates = [s for s in self._live_servers() if s.free_pages > 0]
        if not candidates:
            raise ServerUnavailable("any", reason="all parity-group servers full")
        server = candidates[self._next % len(candidates)]
        self._next += 1
        slot = self._slots[server.name]
        self._slots[server.name] = slot + 1
        placed = (server, slot)
        self._placement[page_id] = placed
        return placed

    def pageout(self, page_id: int, contents: Optional[bytes], span=NULL_SPAN):
        server, slot = self._place(page_id)
        self._require_live(server)
        key = (page_id, slot)
        first_time = not server.holds(key)
        # Transfer 1: client -> data server.
        yield from self.stack.send_page(
            self.client_host, server.host.name, self.page_size, span=span
        )
        self.counters.add("transfers")
        span.phase("server")
        if first_time:
            yield from server.store(key, contents)
            delta = contents  # old contents were (implicitly) zero
        else:
            delta = yield from server.xor_update(key, contents)
        # Transfer 2: data server -> parity server (the in-place update's
        # extra cost; the client must keep the page until this lands).
        yield from self.stack.send_page(
            server.host.name, self.parity_server.host.name, self.page_size,
            span=span, label="parity",
        )
        self.counters.add("transfers")
        self.counters.add("parity_transfers")
        span.phase("server")
        yield from self.parity_server.xor_into(self._parity_key(slot), delta)
        self.counters.add("pageouts")

    def pagein(self, page_id: int, span=NULL_SPAN):
        placed = self._placement.get(page_id)
        if placed is None:
            raise PageNotFound(page_id, where=self.name)
        server, slot = placed
        self._require_live(server)
        contents = yield from self._fetch_page(server, (page_id, slot), span=span)
        self.counters.add("pageins")
        return contents

    def holds(self, page_id: int) -> bool:
        placed = self._placement.get(page_id)
        if placed is None:
            return False
        server, slot = placed
        return server.is_alive and server.holds((page_id, slot))

    def release(self, page_id: int) -> None:
        # The parity contribution stays (removing it would cost a
        # transfer); the slot is simply retired with its page.
        placed = self._placement.pop(page_id, None)
        if placed is not None:
            server, slot = placed
            server.free([(page_id, slot)])

    def scrub_page(self, page_id: int, verify, span=NULL_SPAN):
        """Repair at-rest bit-rot by reconstructing from the parity group.

        XORs every *other* same-slot page with the group's parity — the
        same math as crash recovery, applied to one page — verifies the
        result against the pageout checksum, and re-stores the clean
        bytes over the rotted copy.
        """
        placed = self._placement.get(page_id)
        if placed is None:
            return None
        server, slot = placed
        if not (server.is_alive and self.parity_server.is_alive):
            return None
        pieces = []
        for (pid, (srv, sl)) in list(self._placement.items()):
            if sl != slot or pid == page_id:
                continue
            if not srv.is_alive:
                # An undetected crash in the group: surface it so the
                # pager recovers (re-homing the member), then retries
                # this scrub against the repaired group.
                raise ServerCrashed(srv.name)
            piece = yield from self._fetch_page(
                srv, (pid, sl), span=span, label="scrub"
            )
            pieces.append(piece)
        parity = yield from self._fetch_page(
            self.parity_server, self._parity_key(slot), span=span, label="scrub"
        )
        pieces.append(parity)
        contents = xor_all(pieces)
        if contents is None or not verify(contents):
            return None
        yield from self._send_page(
            server, (page_id, slot), contents, span=span, label="scrub"
        )
        self.counters.add("scrub_repairs")
        return contents

    def recover(self, crashed: MemoryServer):
        """Rebuild every lost page: XOR its parity group (§2.2)."""
        lost = [
            (page_id, slot)
            for page_id, (server, slot) in self._placement.items()
            if server is crashed
        ]
        survivors = [s for s in self._live_servers() if s is not crashed]
        if not self.parity_server.is_alive:
            raise RecoveryError("parity server crashed too (double failure)")
        restored = 0
        for page_id, slot in lost:
            pieces = []
            # Fetch every same-slot page from the surviving servers.  A
            # same-slot page on a *second* dead server means this parity
            # group has lost two members; silently reconstructing without
            # its contribution would XOR garbage into the rebuilt page,
            # so surface the second crash — the client's cascade handler
            # either recovers it first or reports the double failure.
            for (pid, (srv, sl)) in list(self._placement.items()):
                if sl != slot or srv is crashed:
                    continue
                if not srv.is_alive:
                    raise ServerCrashed(srv.name)
                piece = yield from self._fetch_page(srv, (pid, sl))
                pieces.append(piece)
            parity = yield from self._fetch_page(
                self.parity_server, self._parity_key(slot)
            )
            pieces.append(parity)
            contents = xor_all(pieces)
            self._recovery_verify(page_id, contents)
            # Re-home the page as a fresh pageout on a surviving server.
            target = max(
                (s for s in survivors if s.free_pages > 0),
                key=lambda s: s.free_pages,
                default=None,
            )
            if target is None:
                raise RecoveryError("no surviving server with free memory")
            new_slot = self._slots[target.name]
            self._slots[target.name] = new_slot + 1
            self._placement[page_id] = (target, new_slot)
            yield from self._send_page(target, (page_id, new_slot), contents)
            yield from self.stack.send_page(
                target.host.name, self.parity_server.host.name, self.page_size
            )
            self.counters.add("transfers")
            yield from self.parity_server.xor_into(self._parity_key(new_slot), contents)
            # Cancel the lost page's contribution to its old parity group.
            yield from self.stack.send_page(
                self.client_host, self.parity_server.host.name, self.page_size
            )
            self.counters.add("transfers")
            yield from self.parity_server.xor_into(self._parity_key(slot), contents)
            restored += 1
        self.counters.add("recovered_pages", restored)
        return restored
