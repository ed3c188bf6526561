"""Remote *disk* paging — the Comer & Griffioen comparison point.

Related work (§6): "Comer and Griffioen have implemented and compared
remote memory paging vs. remote disk paging, over NFS, on an environment
with diskless workstations.  Their results suggest that remote memory
paging can be 20% to 100% faster than remote disk paging, depending on
the disk access pattern."

:class:`RemoteDiskPager` reproduces the remote-disk side: pages travel
the same network to a server, but the server stores them on *its* disk
instead of in DRAM — so every pagein pays wire time *plus* a disk
access, and every pageout lands on a device with seek/rotation physics.
Comparing it against :class:`~repro.core.NoReliability` regenerates the
20-100% claim (gated in ``tests/experiments/test_paper_claims.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.workstation import Workstation
from ..config import DEC_RZ55, DiskSpec
from ..disk.backend import PartitionBackend
from ..disk.model import Disk
from ..errors import PageNotFound, ServerCrashed
from ..net.protocol import ProtocolStack
from ..sim import Counter, Simulator
from ..units import milliseconds
from ..vm.pager import Pager

__all__ = ["RemoteDiskServer", "RemoteDiskPager"]


class RemoteDiskServer:
    """A diskful server: requests served from its local disk, not DRAM."""

    #: Server CPU per request (socket handling + block layer entry).
    CPU_PER_REQUEST = milliseconds(0.3)

    def __init__(
        self,
        host: Workstation,
        stack: ProtocolStack,
        n_slots: int = 8192,
        disk_spec: DiskSpec = DEC_RZ55,
        name: Optional[str] = None,
    ):
        self.host = host
        self.stack = stack
        self.sim: Simulator = host.sim
        self.name = name or f"disk-server@{host.name}"
        self.disk = Disk(self.sim, disk_spec)
        self.backend = PartitionBackend(self.disk, host.spec.page_size, n_slots)
        self._contents: Dict[int, Optional[bytes]] = {}
        self._crashed = False
        self.counters = Counter()
        if not stack.network.is_attached(host.name):
            stack.network.attach(host.name)

    @property
    def is_alive(self) -> bool:
        return not self._crashed

    def holds(self, page_id: int) -> bool:
        """Whether this server stores ``page_id`` on its disk."""
        return self.backend.holds(page_id)

    def store(self, page_id: int, contents: Optional[bytes]):
        """Generator: write the page to the server's disk."""
        if self._crashed:
            raise ServerCrashed(self.name)
        yield from self.host.cpu_time(self.CPU_PER_REQUEST)
        yield from self.backend.write_page(page_id)
        self._contents[page_id] = contents
        self.counters.add("stores")

    def fetch(self, page_id: int):
        """Generator: read the page back off the server's disk."""
        if self._crashed:
            raise ServerCrashed(self.name)
        yield from self.host.cpu_time(self.CPU_PER_REQUEST)
        yield from self.backend.read_page(page_id)
        self.counters.add("fetches")
        return self._contents.get(page_id)

    def crash(self) -> None:
        """The server workstation dies (its disk contents go with it)."""
        self._crashed = True


class RemoteDiskPager(Pager):
    """Page to remote servers' *disks* over the network.

    Placement is round robin across servers, sticky per page — the same
    layout the remote-memory pager uses, so the only difference in any
    comparison is DRAM vs platter at the far end.
    """

    name = "remote-disk"

    def __init__(self, client_host: str, stack: ProtocolStack, servers: List[RemoteDiskServer]):
        super().__init__()
        if not servers:
            raise ValueError("remote disk paging needs at least one server")
        self.client_host = client_host
        self.stack = stack
        self.sim: Simulator = stack.sim
        self.servers = list(servers)
        self._placement: Dict[int, RemoteDiskServer] = {}
        self._next = 0

    def _place(self, page_id: int) -> RemoteDiskServer:
        server = self._placement.get(page_id)
        if server is None:
            server = self.servers[self._next % len(self.servers)]
            self._next += 1
            self._placement[page_id] = server
        return server

    def pageout(self, page_id: int, contents: Optional[bytes] = None):
        server = self._place(page_id)
        page_size = server.host.spec.page_size
        yield from self.stack.send_page(self.client_host, server.host.name, page_size)
        self.counters.add("transfers")
        yield from server.store(page_id, contents)
        self.counters.add("pageouts")

    def pagein(self, page_id: int):
        server = self._placement.get(page_id)
        if server is None:
            raise PageNotFound(page_id, where=self.name)
        contents = yield from server.fetch(page_id)
        page_size = server.host.spec.page_size
        yield from self.stack.fetch_page(self.client_host, server.host.name, page_size)
        self.counters.add("transfers")
        self.counters.add("pageins")
        return contents

    def release(self, page_id: int) -> None:
        server = self._placement.pop(page_id, None)
        if server is not None and server.backend.holds(page_id):
            server.backend.release_page(page_id)
