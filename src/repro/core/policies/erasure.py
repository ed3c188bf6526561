"""ERASURE CODING (k, m): Reed–Solomon fragments across placement groups.

The Hydra/Carbink-style generalisation of the paper's §2.2 spectrum:
each 8 KB pageout splits into ``k`` data fragments plus ``m`` parity
fragments (GF(256) Reed–Solomon, :mod:`.gf256`), placed on ``k + m``
distinct servers.  A pagein needs any ``k`` fragments, so up to ``m``
servers can be crashed, amnesiac, or timing out and the page is still
served — *degraded* but correct — while recovery re-protects lost
fragments onto replacement servers in the background.

Cost shape, between parity logging and mirroring:

* transfer overhead per pageout is ``(k + m) / k`` page-equivalents
  (EC(4,2) = 1.5x vs. mirroring's 2.0x) while tolerating ``m`` crashes
  to mirroring's one;
* memory overhead is the same ``(k + m) / k`` factor (mirroring: 2.0);
* the price is client CPU for the GF(256) algebra and fragment-level
  bookkeeping on ``k + m`` servers per page.

**Placement groups** (Carbink's CodingSets): servers are partitioned
into groups of ``k + m``; each page's fragments stay inside one group,
so a correlated failure (a rack, a power domain) taking out servers in
*different* groups costs every group at most one fragment — blast
radius is bounded by construction instead of averaged away.  Groups
erode as crashed servers retire; placement borrows live servers from
other groups before giving up (disk fallback via
:class:`~repro.errors.ServerUnavailable`).

Counters (auto-attached as ``policy.*`` in the MetricsRegistry):
``degraded_reads``, ``fragments_rebuilt``, ``reconstruct_cpu_us``,
``fragment_transfers``, ``unrecoverable_pages``, plus the family-wide
``pageouts`` / ``pageins`` / ``recovered_pages`` / ``scrub_repairs``.
Reconstruction activity is mirrored to the tracer under component
``recovery`` so the trace-summary fault timeline shows degraded reads
and rebuilds next to the faults that caused them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence

from ...errors import (
    PageNotFound,
    RequestTimeout,
    ServerCrashed,
    ServerUnavailable,
)
from ...sim import NULL_SPAN
from ...units import microseconds
from ..server import MemoryServer
from .base import ReliabilityPolicy
from .gf256 import ReedSolomon, join_fragments, split_page

__all__ = ["ErasureCoding", "PlacementGroupManager", "parse_ec_policy"]

#: One GF(256) multiply-accumulate pass over a full 8 KB page of data
#: (two table lookups per byte vs. the plain XOR's one word op — about
#: twice parity logging's CLIENT_XOR_CPU).  Encode touches each data
#: fragment once per parity fragment; degraded decode touches each
#: surviving fragment once per missing one.  Charged pro rata by bytes.
GF_PASS_CPU_PER_PAGE = microseconds(160)

#: Bound the scrub's consistent-subset search: with rot in at most a
#: couple of fragments the clean subset is found in the first few
#: combinations; an adversarial pattern beyond this cap is reported as
#: unrepairable rather than searched exhaustively.
_MAX_SCRUB_SUBSETS = 64


def parse_ec_policy(name: str) -> Optional[tuple]:
    """``"ec-K-M"`` -> ``(k, m)``; None when the name is not EC-shaped."""
    parts = name.split("-")
    if len(parts) != 3 or parts[0] != "ec":
        return None
    try:
        k, m = int(parts[1]), int(parts[2])
    except ValueError:
        return None
    return (k, m)


class PlacementGroupManager:
    """CodingSets-style partition of the server pool into coding groups.

    Groups are contiguous ``width``-sized slices of the initial server
    order (the rack model: adjacency is the correlation domain).  Pages
    hash onto groups by ``page_id % n_groups`` — deterministic, stateless
    and uniform for sequential page ids.  Retired servers leave their
    group; replacement servers join the most-depleted group, keeping the
    partition meaningful as the pool churns.
    """

    def __init__(self, servers: Sequence[MemoryServer], width: int):
        if width < 1:
            raise ValueError(f"group width must be positive: {width}")
        self.width = width
        pool = list(servers)
        # As many groups as ``width`` allows, with the whole pool spread
        # evenly across them (contiguous near-equal chunks, the rack
        # model).  Groups therefore carry ``len(pool) // n_groups - width``
        # servers of *slack*: a crashed member's fragments can be rebuilt
        # inside the group, which is what keeps a page's blast radius in
        # one group instead of leaking across groups on every repair.
        n_groups = max(1, len(pool) // width)
        base, extra = divmod(len(pool), n_groups)
        self.groups = []
        cursor = 0
        for index in range(n_groups):
            size = base + (1 if index < extra else 0)
            self.groups.append(pool[cursor : cursor + size])
            cursor += size

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_of(self, page_id: int) -> int:
        return page_id % len(self.groups)

    def members(self, group: int) -> List[MemoryServer]:
        return list(self.groups[group])

    def retire(self, server: MemoryServer) -> None:
        for members in self.groups:
            if server in members:
                members.remove(server)
                return

    def adopt(self, server: MemoryServer, prefer: Optional[int] = None) -> None:
        """Add a replacement server, preferring ``prefer`` then the most
        depleted group (keeps groups near ``width`` as the pool churns)."""
        if any(server in members for members in self.groups):
            return
        if prefer is not None and len(self.groups[prefer]) < self.width:
            self.groups[prefer].append(server)
            return
        target = min(self.groups, key=len)
        target.append(server)


class ErasureCoding(ReliabilityPolicy):
    """RS(k, m) fragments on ``k + m`` distinct servers per page."""

    def __init__(
        self,
        client_host: str,
        stack,
        servers: Sequence[MemoryServer],
        k: int = 4,
        m: int = 2,
        page_size: int = 8192,
    ):
        super().__init__(client_host, stack, servers, page_size=page_size)
        self.rs = ReedSolomon(k, m)
        # Surface the codec's deterministic per-instance reconstruction
        # row hit/miss stream as policy.codec_row_{hits,misses} metrics.
        self.rs.stats = self.counters
        self.k = k
        self.m = m
        self.width = k + m
        if len(self.servers) < self.width:
            raise ValueError(
                f"ec-{k}-{m} needs at least {self.width} servers, "
                f"got {len(self.servers)}"
            )
        self.name = f"ec-{k}-{m}"
        self.memory_overhead_factor = self.width / k
        #: ceil so k fragments always cover the page; the tail fragment
        #: is zero-padded (gf256.split_page / join_fragments).
        self.fragment_size = -(-page_size // k)
        self.groups = PlacementGroupManager(self.servers, self.width)
        #: page_id -> list of k+m servers; list index == fragment index.
        #: (Deliberately NOT named ``_placement``: the pager's migration
        #: path assumes that name maps pages to single whole-page homes.)
        self._fragments: Dict[int, List[MemoryServer]] = {}
        #: Filled by the pager when a ServerRegistry is present — lets
        #: recovery recruit spare donors once a group runs dry.
        self.replacement_provider: Optional[
            Callable[[], Optional[MemoryServer]]
        ] = None

    # ------------------------------------------------------------ helpers
    def _key(self, page_id: int, index: int) -> tuple:
        return (page_id, index)

    def _gf_cpu(self, passes: int, counter: str = "reconstruct_cpu_us"):
        """Charge ``passes`` fragment-sized GF(256) passes of client CPU."""
        cost = passes * GF_PASS_CPU_PER_PAGE * self.fragment_size / self.page_size
        self.counters.add(counter, int(cost * 1e6))
        return self.sim.timeout(cost)

    def _send_fragment(
        self, server: MemoryServer, key: tuple, payload, span=NULL_SPAN,
        label: str = "transfer",
    ):
        """Generator: one fragment-sized client->server transfer + store."""
        yield from self.stack.send_page(
            self.client_host, server.host.name, self.fragment_size,
            span=span, label=label,
        )
        self.counters.add("fragment_transfers")
        span.phase("server")
        yield from server.store(key, payload)

    def _fetch_fragment(
        self, server: MemoryServer, key: tuple, span=NULL_SPAN,
        label: str = "transfer",
    ):
        """Generator: one fragment-sized server->client transfer."""
        span.phase("server")
        try:
            payload = yield from server.fetch(key)
        except PageNotFound:
            # Post-reboot amnesia: alive but empty (see base._fetch_page).
            raise ServerCrashed(server.name) from None
        yield from self.stack.fetch_page(
            self.client_host, server.host.name, self.fragment_size,
            span=span, label=label,
        )
        self.counters.add("fragment_transfers")
        return payload

    @property
    def transfers(self) -> float:
        """Page-equivalent network movements (the §4.3 model input).

        Fragment transfers are booked pro rata — an EC(4,2) pageout
        moves 6 fragments of 1/4 page = 1.5 page-equivalents, which is
        exactly the overhead the redundancy-spectrum figure compares
        against mirroring's 2.0.
        """
        whole = self.counters["transfers"]
        fractional = (
            self.counters["fragment_transfers"] * self.fragment_size
            / self.page_size
        )
        return round(whole + fractional, 6)

    def _encode(self, contents: Optional[bytes]) -> List[Optional[bytes]]:
        if contents is None:  # metadata mode: no bytes, no parity algebra
            return [None] * self.width
        data = split_page(contents, self.k, self.fragment_size)
        return data + self.rs.encode(data)

    # ---------------------------------------------------------- placement
    def _usable(self, server: MemoryServer) -> bool:
        return server.is_alive and server.free_pages > 0

    def _place(self, page_id: int) -> List[MemoryServer]:
        placed = self._fragments.get(page_id)
        if placed is not None:
            return placed
        group = self.groups.group_of(page_id)
        chosen = [s for s in self.groups.members(group) if self._usable(s)]
        if len(chosen) > self.width:
            # Rotate the surplus group deterministically so fragment
            # roles (data vs. parity load) spread across its members.
            start = page_id % len(chosen)
            chosen = (chosen + chosen)[start : start + self.width]
        elif len(chosen) < self.width:
            # The group eroded (crashes, flaps): borrow live servers
            # from other groups in pool order before giving up.
            have = set(id(s) for s in chosen)
            for server in self.servers:
                if len(chosen) == self.width:
                    break
                if id(server) not in have and self._usable(server):
                    chosen.append(server)
                    have.add(id(server))
        if len(chosen) < self.width:
            # Fewer than k+m usable servers anywhere: the pager's disk
            # fallback absorbs the page (§2.1) rather than storing it
            # under-protected.
            raise ServerUnavailable(
                "any", reason=f"fewer than {self.width} usable servers"
            )
        self._fragments[page_id] = chosen
        return chosen

    # ------------------------------------------------------ the interface
    def pageout(self, page_id: int, contents: Optional[bytes], span=NULL_SPAN):
        placement = self._place(page_id)
        stale = [s for s in placement if not s.is_alive]
        if stale:
            for server in stale:
                if any(server is s for s in self.servers):
                    # A fresh, undeclared crash: surface it *before*
                    # transmitting anything so recovery re-protects the
                    # whole cohort, then the pager retries this pageout.
                    raise ServerCrashed(server.name)
            # Every dead member was already retired and recovery could
            # not re-home it (pool exhausted at the time).  The client
            # holds the definitive bytes: re-place from scratch.
            self.release(page_id)
            placement = self._place(page_id)
        span.phase("ec.encode")
        yield self._gf_cpu(self.k * self.m, counter="encode_cpu_us")
        fragments = self._encode(contents)
        # Scatter: all k+m fragment sends issued concurrently, framed as
        # one protocol cluster (the head pays the full per-page protocol
        # CPU, the rest the batched fraction — OSF/1-style, and nested
        # safely inside a pipeline drain cluster when one is open).  On
        # the switched full-duplex network the fragment wire times
        # overlap; on shared Ethernet the frames serialise on the medium
        # but the per-fragment protocol/server work still interleaves.
        # Workers trap their own failures: every send runs to completion
        # (or failure) before the first failure — lowest fragment index,
        # for determinism — is re-raised for the pager's crash handling.
        failures: Dict[int, BaseException] = {}

        def send_worker(index: int, server: MemoryServer, payload):
            label = "transfer" if index < self.k else "ec-parity"
            try:
                yield from self._send_fragment(
                    server, self._key(page_id, index), payload,
                    span=span, label=label,
                )
            except (ServerCrashed, ServerUnavailable, RequestTimeout) as exc:
                failures[index] = exc

        self.stack.begin_cluster(self.client_host)
        try:
            yield self.sim.all_of(
                [
                    self.sim.process(send_worker(index, server, payload))
                    for index, (server, payload) in enumerate(
                        zip(placement, fragments)
                    )
                ]
            )
        finally:
            self.stack.end_cluster()
        if failures:
            raise failures[min(failures)]
        self.counters.add("pageouts")

    def pagein(self, page_id: int, span=NULL_SPAN):
        placement = self._fragments.get(page_id)
        if placement is None:
            raise PageNotFound(page_id, where=self.name)
        collected: Dict[int, Optional[bytes]] = {}
        failed: List[str] = []
        # Data fragments first (no algebra on the clean path), parity as
        # substitutes when a data server is crashed, amnesiac, or timing
        # out behind a bad path — Hydra's degraded read.  Servers the
        # pager has already declared dead or retired from the pool are
        # skipped up front: no RPC round is wasted re-discovering a
        # known crash on every degraded read.
        pool_ids = {id(server) for server in self.servers}
        order = sorted(range(self.width), key=lambda i: (i >= self.k, i))
        candidates: List[int] = []
        for index in order:
            server = placement[index]
            if not server.is_alive or id(server) not in pool_ids:
                failed.append(server.name)
                self.counters.add("fetches_skipped")
            else:
                candidates.append(index)
        # Gather: fetch the first k candidates concurrently; a degraded
        # read tops up with exactly as many extra parity fetches as
        # fragments just failed (minimal waves, Hydra-style), never the
        # whole stripe.
        cursor = 0
        while len(collected) < self.k and cursor < len(candidates):
            wave = candidates[cursor : cursor + self.k - len(collected)]
            cursor += len(wave)
            results: Dict[int, object] = {}

            def fetch_worker(index: int):
                server = placement[index]
                try:
                    payload = yield from self._fetch_fragment(
                        server, self._key(page_id, index), span=span
                    )
                except (ServerCrashed, RequestTimeout) as exc:
                    results[index] = (
                        None, getattr(exc, "server_name", server.name)
                    )
                else:
                    results[index] = (True, payload)

            yield self.sim.all_of(
                [self.sim.process(fetch_worker(index)) for index in wave]
            )
            for index in wave:
                ok, value = results[index]
                if ok:
                    collected[index] = value
                else:
                    failed.append(value)
        if len(collected) < self.k:
            # Beyond tolerance *right now*: surface crash semantics so
            # the pager runs (or waits out) recovery and retries.
            raise ServerCrashed(failed[0] if failed else placement[0].name)
        self.counters.add("pageins")
        if any(payload is None for payload in collected.values()):
            return None  # metadata mode
        if sorted(collected) == list(range(self.k)):
            return join_fragments(
                [collected[i] for i in range(self.k)], self.page_size
            )
        # Degraded read: reconstruct the missing data fragments.
        missing = self.k - sum(1 for i in collected if i < self.k)
        span.phase("ec.decode")
        yield self._gf_cpu(missing * self.k)
        data = self.rs.data_from(collected)
        self.counters.add("degraded_reads")
        self.sim.tracer.emit(
            "recovery", "degraded_read",
            page_id=page_id, policy=self.name,
            missing_fragments=missing, failed=sorted(set(failed)),
        )
        return join_fragments(data, self.page_size)

    def holds(self, page_id: int) -> bool:
        placement = self._fragments.get(page_id)
        if placement is None:
            return False
        live = sum(
            1
            for index, server in enumerate(placement)
            if server.is_alive and server.holds(self._key(page_id, index))
        )
        return live >= self.k

    def release(self, page_id: int) -> None:
        placement = self._fragments.pop(page_id, None)
        if placement is None:
            return
        for index, server in enumerate(placement):
            if server.is_alive:
                server.free([self._key(page_id, index)])

    # --------------------------------------------------------------- scrub
    def scrub_page(self, page_id: int, verify, span=NULL_SPAN):
        """Repair at-rest rot by finding a consistent fragment subset.

        Fetches every reachable fragment, then searches k-subsets
        (data-first, deterministic order) for one whose decoded page
        passes ``verify``.  The winning bytes are re-encoded and any
        fragment that disagrees with the clean encoding is overwritten
        in place — rot in data *and* parity fragments both heal.
        """
        placement = self._fragments.get(page_id)
        if placement is None:
            return None
        available: Dict[int, bytes] = {}
        for index, server in enumerate(placement):
            key = self._key(page_id, index)
            if not (server.is_alive and server.holds(key)):
                if not server.is_alive:
                    # An undetected crash in the page's group: let the
                    # pager recover it, then scrub again.
                    raise ServerCrashed(server.name)
                continue
            payload = yield from self._fetch_fragment(
                server, key, span=span, label="scrub"
            )
            if payload is not None:
                available[index] = payload
        if len(available) < self.k:
            return None
        clean: Optional[bytes] = None
        indices = sorted(available, key=lambda i: (i >= self.k, i))
        for subset in _bounded_combinations(indices, self.k):
            yield self._gf_cpu(self.k)
            candidate = join_fragments(
                self.rs.data_from({i: available[i] for i in subset}),
                self.page_size,
            )
            if verify(candidate):
                clean = candidate
                break
        if clean is None:
            return None
        expected = self._encode(clean)
        repaired = 0
        for index, payload in available.items():
            if payload == expected[index]:
                continue
            yield from self._send_fragment(
                placement[index], self._key(page_id, index), expected[index],
                span=span, label="scrub",
            )
            repaired += 1
        if repaired:
            self.counters.add("scrub_repairs", repaired)
            self.sim.tracer.emit(
                "recovery", "fragments_scrubbed",
                page_id=page_id, policy=self.name, repaired=repaired,
            )
        return clean

    # ------------------------------------------------------------ recovery
    def _replacement_for(
        self, page_id: int, exclude: set
    ) -> Optional[MemoryServer]:
        """A live server for a rebuilt fragment: same group first (keeps
        the blast-radius invariant), then any live server, then a spare
        from the registry."""
        group = self.groups.group_of(page_id)
        candidates = [
            s
            for s in self.groups.members(group)
            if self._usable(s) and id(s) not in exclude
        ]
        if not candidates:
            candidates = [
                s for s in self.servers if self._usable(s) and id(s) not in exclude
            ]
        if candidates:
            return max(candidates, key=lambda s: s.free_pages)
        if self.replacement_provider is not None:
            spare = self.replacement_provider()
            if spare is not None and self._usable(spare) and id(spare) not in exclude:
                self.servers.append(spare)
                self.groups.adopt(spare, prefer=group)
                return spare
        return None

    def recover(self, crashed: MemoryServer):
        """Re-protect every page that lost a fragment with ``crashed``.

        For each affected page, *all* dead or amnesiac members are
        rebuilt in one pass (so cascaded recoveries converge instead of
        ping-ponging), from any ``k`` surviving fragments, onto
        replacement servers chosen group-first.  A page with fewer than
        ``k`` survivors and another not-yet-retired dead server raises
        :class:`ServerCrashed` for the pager's cascade handler; with no
        such server left the page is genuinely beyond tolerance — it is
        dropped loudly (``unrecoverable_pages``) so the rest of the
        recovery still completes and the integrity checker reports the
        loss per page instead of the whole run dying.

        ``crashed`` stays in ``self.servers`` until the pager retires it
        (``_usable`` already refuses dead servers): recovery may abort
        mid-pass and the pager's crash bookkeeping must still be able to
        find the name.
        """
        self.groups.retire(crashed)
        restored = 0
        rebuilt_total = 0
        for page_id in sorted(self._fragments):
            placement = self._fragments[page_id]
            if all(s is not crashed for s in placement):
                continue
            alive: Dict[int, MemoryServer] = {}
            dead_indices: List[int] = []
            for index, server in enumerate(placement):
                if server.is_alive and server.holds(self._key(page_id, index)):
                    alive[index] = server
                else:
                    dead_indices.append(index)
            if len(alive) < self.k:
                cascade = next(
                    (
                        s
                        for s in placement
                        if not s.is_alive and s is not crashed
                        and any(s is live for live in self.servers)
                    ),
                    None,
                )
                if cascade is not None:
                    # A second undetected crash holds this page hostage:
                    # hand it to the pager's cascade handler; the next
                    # recovery pass finishes this page.
                    raise ServerCrashed(cascade.name)
                self._fragments.pop(page_id, None)
                self.counters.add("unrecoverable_pages")
                self.sim.tracer.emit(
                    "recovery", "page_beyond_tolerance",
                    page_id=page_id, policy=self.name,
                    survivors=len(alive), needed=self.k,
                    members=[
                        f"{s.name}:{'up' if s.is_alive else 'down'}"
                        for s in placement
                    ],
                )
                continue
            # Fetch k survivors (data-first), decode, verify, re-encode.
            src = sorted(alive, key=lambda i: (i >= self.k, i))[: self.k]
            collected: Dict[int, Optional[bytes]] = {}
            for index in src:
                payload = yield from self._fetch_fragment(
                    alive[index], self._key(page_id, index), label="recovery"
                )
                collected[index] = payload
            if any(payload is None for payload in collected.values()):
                contents = None
                fragments: List[Optional[bytes]] = [None] * self.width
            else:
                # Each rebuilt fragment is one k-term GF combination of
                # the survivors (decode and re-encode alike).
                yield self._gf_cpu(len(dead_indices) * self.k)
                contents = join_fragments(
                    self.rs.data_from(collected), self.page_size
                )
                self._recovery_verify(page_id, contents)
                fragments = self._encode(contents)
            exclude = {id(server) for server in alive.values()}
            for index in dead_indices:
                target = self._replacement_for(page_id, exclude)
                if target is None:
                    # Every usable server already holds a fragment of
                    # this page: it stays *degraded* (>= k survivors, so
                    # pageins still reconstruct) rather than aborting the
                    # whole recovery — loud, and repairable once the
                    # pool regains a server.
                    self.counters.add("underprotected_fragments")
                    self.sim.tracer.emit(
                        "recovery", "fragment_unplaced",
                        page_id=page_id, policy=self.name, fragment=index,
                    )
                    continue
                yield from self._send_fragment(
                    target, self._key(page_id, index), fragments[index],
                    label="recovery",
                )
                placement[index] = target
                exclude.add(id(target))
                rebuilt_total += 1
            restored += 1
        self.counters.add("recovered_pages", restored)
        self.counters.add("fragments_rebuilt", rebuilt_total)
        if restored:
            self.sim.tracer.emit(
                "recovery", "fragments_rebuilt",
                policy=self.name, server=crashed.name,
                pages=restored, fragments=rebuilt_total,
            )
        return restored


def _bounded_combinations(indices: Sequence[int], k: int):
    """First ``_MAX_SCRUB_SUBSETS`` k-subsets in deterministic order."""
    for count, subset in enumerate(combinations(indices, k)):
        if count >= _MAX_SCRUB_SUBSETS:
            return
        yield subset
