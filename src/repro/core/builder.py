"""One-call construction of a complete remote-memory-paging testbed.

Every experiment needs the same assembly: a simulator, a network, a
client workstation, donor workstations running memory servers, a
reliability policy, the RMP, and a VM machine to drive it.
:func:`build_cluster` wires all of that, parameterised the way the
paper's experiments are ("4 servers plus a parity server, all devoting
10% overflow memory").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..cluster.registry import ServerRegistry
from ..cluster.workstation import Workstation
from ..config import (
    DEC_ALPHA_3000_300,
    DEC_RZ55,
    TCP_IP_1996,
    MachineSpec,
    ProtocolSpec,
    SwitchedNetworkSpec,
)
from ..disk.backend import PartitionBackend
from ..disk.model import Disk
from ..errors import ConfigurationError
from ..net.base import Network
from ..net.ethernet import EthernetCsmaCd
from ..net.protocol import ProtocolStack
from ..net.switched import SwitchedNetwork
from ..net.token_ring import TokenRing, TokenRingSpec
from ..obs.health import HealthMonitor, HealthSpec
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import LogHistogram, TelemetrySampler
from ..obs.trace import current_tracer
from ..pipeline import PipelineSpec
from ..sim import RngRegistry, Simulator
from ..vm.machine import Machine
from ..vm.pager import LocalDiskPager, Pager
from ..vm.replacement import ReplacementPolicy
from .client import RemoteMemoryPager
from .policies.base import ReliabilityPolicy
from .policies.erasure import ErasureCoding, parse_ec_policy
from .policies.mirroring import Mirroring
from .policies.none import NoReliability
from .policies.parity import BasicParity
from .policies.parity_logging import ParityLogging
from .policies.write_through import WriteThrough
from .server import MemoryServer

__all__ = ["Cluster", "build_cluster", "POLICY_NAMES"]

POLICY_NAMES = (
    "disk",
    "no-reliability",
    "mirroring",
    "parity",
    "parity-logging",
    "write-through",
)

#: Generous default server capacity: enough for any paper workload.
_DEFAULT_SERVER_CAPACITY = 4096
_SWAP_SLOTS = 8192


@dataclass
class Cluster:
    """Everything :func:`build_cluster` assembled, ready to run."""

    sim: Simulator
    network: Network
    stack: ProtocolStack
    client_host: Workstation
    machine: Machine
    pager: Pager
    policy: Optional[ReliabilityPolicy]
    servers: List[MemoryServer]
    parity_server: Optional[MemoryServer]
    registry: ServerRegistry
    local_disk: Disk
    server_hosts: List[Workstation] = field(default_factory=list)
    #: Every component's instruments behind dotted names (``pager.*``,
    #: ``server.<id>.*``, ``net.*``, ``policy.*``); snapshots ride in
    #: ``CompletionReport.meta["metrics"]``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: The seeded stream registry the cluster was built with: fault
    #: injectors draw their dedicated ``faults.*`` streams from it so
    #: chaos never perturbs workload determinism.
    rngs: Optional[RngRegistry] = None
    #: The sim-clock telemetry sampler and its health monitor; both None
    #: unless the cluster was built with ``telemetry_interval > 0``.
    telemetry: Optional[TelemetrySampler] = None
    health: Optional[HealthMonitor] = None

    def run(self, workload, name: Optional[str] = None):
        """Run ``workload`` to completion; returns its CompletionReport.

        When the run is eligible (deterministic workload, batch-capable
        replacement policy, no speculative prefetching — see
        ``repro.compile.plan``), the reference stream is compiled to a
        fault schedule and replayed in O(faults); otherwise it executes
        interpretively.  Both paths produce bit-identical reports.
        """
        from ..compile import plan_run

        run_name = name or workload.name
        if self.telemetry is not None:
            # The kernel Periodic retires when the heap drains; re-arm
            # for this run phase so sampling spans the whole workload.
            self.telemetry.ensure_running()
        plan = plan_run(self, workload)
        report = self.sim.run_until_complete(
            self.machine.run_plan(workload, plan.schedule, name=run_name)
        )
        if self.telemetry is not None:
            # Close out telemetry: final sample, and the health digest in
            # ``meta["health"]`` so it survives the runner's process pool
            # and the result cache exactly like ``meta["metrics"]`` does.
            self.telemetry.finalize()
            if self.health is not None:
                report.meta["health"] = self.health.summary()
        return report

    def add_spare_server(self, capacity_pages: Optional[int] = None) -> MemoryServer:
        """Register an extra idle donor the pager can recruit (for
        migration targets and crash replacements)."""
        if capacity_pages is None:
            capacity_pages = (
                self.servers[0].capacity_pages if self.servers else _DEFAULT_SERVER_CAPACITY
            )
        index = len(self.server_hosts)
        spec = self.server_hosts[0].spec if self.server_hosts else self.client_host.spec
        host = Workstation(self.sim, f"spare-{index}", spec)
        self.network.attach(host.name)
        server = MemoryServer(
            host, self.stack, capacity_pages=capacity_pages, name=f"spare-{index}"
        )
        self.server_hosts.append(host)
        self.registry.register(server)
        return server


def build_cluster(
    policy: str = "no-reliability",
    n_servers: int = 2,
    seed: int = 0,
    machine_spec: MachineSpec = DEC_ALPHA_3000_300,
    server_spec: Optional[MachineSpec] = None,
    protocol_spec: ProtocolSpec = TCP_IP_1996,
    switched_spec: Optional[SwitchedNetworkSpec] = None,
    token_ring_spec: Optional["TokenRingSpec"] = None,
    overflow_fraction: float = 0.0,
    server_capacity_pages: int = _DEFAULT_SERVER_CAPACITY,
    content_mode: bool = False,
    replacement: Optional[ReplacementPolicy] = None,
    pageout_window: int = 16,
    free_batch: int = 16,
    network_threshold: Optional[float] = None,
    pipeline_window: int = 1,
    pipeline_prefetch: int = 0,
    compile_schedules: bool = True,
    analytic_ethernet: bool = True,
    analytic_switched: bool = True,
    telemetry_interval: float = 0.0,
    telemetry_capacity: int = 512,
    health_warn_load: float = 0.70,
    health_crit_load: float = 0.90,
) -> Cluster:
    """Assemble a paper-style testbed.

    ``policy`` selects the paging configuration (the Fig 2 legend):

    * ``"disk"`` — the DISK baseline: requests go straight to the local
      RZ55, no remote pager involved;
    * ``"no-reliability"`` — ``n_servers`` plain memory servers;
    * ``"mirroring"`` — primary + mirror copies (needs >= 2 servers);
    * ``"parity"`` — basic in-place parity, ``n_servers`` + parity server;
    * ``"parity-logging"`` — the paper's policy, ``n_servers`` + parity
      server, all with ``overflow_fraction`` extra memory;
    * ``"write-through"`` — remote copy + parallel local-disk copy;
    * ``"ec-K-M"`` (e.g. ``"ec-4-2"``) — Reed–Solomon erasure coding:
      k data + m parity fragments per page on k+m distinct servers,
      tolerating m crashes at ``(k+m)/k`` overhead.

    ``switched_spec`` replaces the shared Ethernet with a full-duplex
    switched network (the Fig 4 "faster network" configurations).

    ``pageout_window`` and ``free_batch`` are the machine's
    asynchronous write-back depth and paging-daemon reclaim batch (see
    :class:`~repro.vm.machine.Machine`); ``repro ablate`` sweeps both.

    ``pipeline_window``/``pipeline_prefetch`` configure the pipelined
    datapath (write-behind pageout queue, adaptive prefetcher); the
    defaults (1, 0) keep the paper's synchronous datapath
    bit-identically.

    The engine keywords pick the fast tiers, all on by default; results
    are byte-identical either way, so False is an A/B switch.  They are
    the only way to choose a tier: as ``RunSpec`` overrides they enter
    the result-cache fingerprint.  ``compile_schedules`` enables trace
    compilation for this cluster's machine.  ``analytic_ethernet``
    enables the shared Ethernet's uncontended-medium analytic service
    path (ignored for other networks); ``analytic_switched`` is the same
    switch for the switched fabric's per-port-pair fast path (ignored
    for other networks).

    ``telemetry_interval`` (simulated seconds) > 0 installs a
    :class:`~repro.obs.telemetry.TelemetrySampler` that records
    per-server utilisation, wire utilisation, queue depth/delay, the
    idle-memory pool, fault/retry rates and a per-fault latency
    histogram into ``telemetry_capacity``-sample ring buffers, plus a
    :class:`~repro.obs.health.HealthMonitor` with the given
    ``health_warn_load``/``health_crit_load`` utilisation thresholds
    (the delay thresholds are :class:`~repro.obs.health.HealthSpec`'s).
    Sampling pins the run to interpreted execution (``compile.bypass
    reason=telemetry``) so the series are identical across ``--jobs``
    and cache replay.  All telemetry knobs are plain scalars on purpose:
    they travel through ``RunSpec`` overrides and participate in the
    result-cache fingerprint.
    """
    ec_shape = parse_ec_policy(policy)
    if policy not in POLICY_NAMES and ec_shape is None:
        raise ConfigurationError(
            f"unknown policy {policy!r}; choose from {POLICY_NAMES} "
            "or an erasure-coded 'ec-K-M' (e.g. 'ec-4-2')"
        )
    if n_servers < 1:
        raise ConfigurationError("need at least one server")
    if policy == "mirroring" and n_servers < 2:
        raise ConfigurationError("mirroring needs at least two servers")
    if ec_shape is not None:
        ec_k, ec_m = ec_shape
        if ec_k < 1 or ec_m < 1:
            raise ConfigurationError(
                f"erasure coding needs k >= 1 and m >= 1: {policy!r}"
            )
        if n_servers < ec_k + ec_m:
            raise ConfigurationError(
                f"{policy} needs at least {ec_k + ec_m} servers "
                f"(k + m fragments on distinct servers), got {n_servers}"
            )

    if switched_spec is not None and token_ring_spec is not None:
        raise ConfigurationError("choose one of switched_spec / token_ring_spec")
    sim = Simulator()
    rngs = RngRegistry(seed=seed)
    if switched_spec is not None:
        network: Network = SwitchedNetwork(
            sim, spec=switched_spec, analytic=analytic_switched
        )
    elif token_ring_spec is not None:
        network = TokenRing(sim, spec=token_ring_spec)
    else:
        network = EthernetCsmaCd(sim, rngs=rngs, analytic=analytic_ethernet)
    stack = ProtocolStack(network, spec=protocol_spec)
    registry = ServerRegistry()

    client_host = Workstation(sim, "client", machine_spec)
    network.attach(client_host.name)
    local_disk = Disk(sim, DEC_RZ55)
    disk_backend = PartitionBackend(local_disk, machine_spec.page_size, _SWAP_SLOTS)

    spec = server_spec or machine_spec
    # Donor hosts are dedicated to serving here; give them headroom so a
    # server can claim the configured capacity (plus overflow and the
    # parity server's share).
    donor_spec = MachineSpec(
        name=f"{spec.name}-donor",
        ram_bytes=max(
            spec.ram_bytes,
            int((server_capacity_pages * (1 + overflow_fraction) + 1024)
                * spec.page_size) + spec.kernel_resident_bytes,
        ),
        kernel_resident_bytes=spec.kernel_resident_bytes,
        cpu_speed=spec.cpu_speed,
        page_size=spec.page_size,
    )

    def make_server(index: int, label: str) -> MemoryServer:
        host = Workstation(sim, f"{label}-{index}", donor_spec)
        network.attach(host.name)
        server = MemoryServer(
            host,
            stack,
            capacity_pages=server_capacity_pages,
            overflow_fraction=overflow_fraction,
            name=f"{label}-{index}",
        )
        server_hosts.append(host)
        return server

    server_hosts: List[Workstation] = []
    servers: List[MemoryServer] = []
    parity_server: Optional[MemoryServer] = None
    policy_obj: Optional[ReliabilityPolicy] = None
    page_size = machine_spec.page_size

    if policy == "disk":
        pager: Pager = LocalDiskPager(disk_backend)
    else:
        servers = [make_server(i, "server") for i in range(n_servers)]
        if policy in ("parity", "parity-logging"):
            parity_server = make_server(0, "parity")
        if policy == "no-reliability":
            policy_obj = NoReliability(
                client_host.name, stack, servers, page_size=page_size
            )
        elif policy == "mirroring":
            policy_obj = Mirroring(
                client_host.name, stack, servers, page_size=page_size
            )
        elif policy == "parity":
            policy_obj = BasicParity(
                client_host.name, stack, servers, parity_server, page_size=page_size
            )
        elif policy == "parity-logging":
            policy_obj = ParityLogging(
                client_host.name,
                stack,
                servers,
                parity_server,
                content_mode=content_mode,
                page_size=page_size,
            )
        elif policy == "write-through":
            wt_backend = PartitionBackend(local_disk, page_size, _SWAP_SLOTS)
            policy_obj = WriteThrough(
                client_host.name, stack, servers, wt_backend, page_size=page_size
            )
        elif ec_shape is not None:
            policy_obj = ErasureCoding(
                client_host.name, stack, servers,
                k=ec_shape[0], m=ec_shape[1], page_size=page_size,
            )
        pipeline_spec = PipelineSpec(
            window=pipeline_window, prefetch=pipeline_prefetch
        )
        pager = RemoteMemoryPager(
            policy_obj,
            disk_backend=disk_backend,
            registry=registry,
            network_threshold=network_threshold,
            pipeline=pipeline_spec if pipeline_spec.enabled else None,
        )

    machine = Machine(
        sim,
        machine_spec,
        pager,
        replacement=replacement,
        content_mode=content_mode,
        pageout_window=pageout_window,
        free_batch=free_batch,
        compile_schedules=compile_schedules,
        name="client",
    )

    # Unify every component's ad-hoc instruments behind dotted names so
    # one snapshot captures the whole cluster's telemetry.
    metrics = MetricsRegistry()
    metrics.attach("machine", machine.counters)
    metrics.attach("pager", pager.counters)
    if isinstance(pager, RemoteMemoryPager):
        metrics.attach("pager.recovery_time", pager.recovery_times)
        if pager.pipeline is not None:
            metrics.attach("pipeline", pager.pipeline.counters)
            metrics.attach("pipeline.queue_depth", pager.pipeline.queue_depth)
            metrics.attach("pipeline.queue_delay", pager.pipeline.queue_delay)
    if policy_obj is not None:
        metrics.attach("policy", policy_obj.counters)
    for server in servers + ([parity_server] if parity_server else []):
        metrics.attach(f"server.{server.name}", server.counters)
        metrics.gauge(f"server.{server.name}.cpu_utilization", server.cpu_utilization)
    metrics.attach("net", network.stats.counters)
    metrics.attach("net.message_latency", network.stats.message_latency)
    metrics.gauge("net.utilization", network.stats.utilization)
    metrics.attach("net.protocol", stack.counters)

    # A process-wide tracer (the CLI's --trace flag) attaches to every
    # new cluster; without one, sim.tracer stays the zero-cost no-op.
    tracer = current_tracer()
    if tracer is not None:
        sim.set_tracer(tracer)

    telemetry: Optional[TelemetrySampler] = None
    health: Optional[HealthMonitor] = None
    if telemetry_interval > 0.0:
        telemetry = TelemetrySampler(
            telemetry_interval, capacity=telemetry_capacity
        )
        sim.set_sampler(telemetry)
        all_servers = servers + ([parity_server] if parity_server else [])
        # Windowed per-server CPU utilisation: differentiate the
        # cumulative cpu_us counter (microseconds -> busy fraction).
        for server in all_servers:
            telemetry.add_probe(
                f"util.server.{server.name}",
                (lambda c=server.counters: c["cpu_us"]),
                mode="rate",
                scale=1e-6,
            )
        # Windowed wire utilisation (settles lazy analytic accounting).
        telemetry.add_probe(
            "util.wire", network.stats.busy_seconds, mode="rate"
        )
        # Windowed mean message latency, in milliseconds.
        latency = network.stats.message_latency
        telemetry.add_probe(
            "net.latency_ms",
            (lambda t=latency: (t.total, t.count)),
            mode="mean",
            scale=1e3,
        )
        # Pageout / write-behind queue depth and queueing delay.
        if isinstance(pager, RemoteMemoryPager) and pager.pipeline is not None:
            pipeline = pager.pipeline
            telemetry.add_probe("queue.depth", lambda p=pipeline: p.pending)
            delay = pipeline.queue_delay
            telemetry.add_probe(
                "queue.delay_ms",
                (lambda t=delay: (t.total, t.count)),
                mode="mean",
                scale=1e3,
            )
        else:
            telemetry.add_probe(
                "queue.depth", lambda m=machine: m.inflight_pageouts
            )
        # Idle-memory pool: free donated pages across every server.
        if all_servers:
            telemetry.add_probe(
                "pool.free_pages",
                lambda ss=tuple(all_servers): sum(s.free_pages for s in ss),
            )
        # Fault and retry pressure, per simulated second.
        telemetry.add_probe(
            "rate.faults", (lambda c=machine.counters: c["faults"]), mode="rate"
        )
        telemetry.add_probe(
            "rate.retries",
            (lambda c=stack.counters: c["rpc_retries"]),
            mode="rate",
        )
        for series_name, series in telemetry.series.items():
            metrics.attach(f"telemetry.{series_name}", series)
        metrics.attach("telemetry.fault_latency", telemetry.fault_latency)
        # Per-pagein latency histogram (fed by the pager's sampler hook;
        # pre-created so it lands in every snapshot, samples or not).
        pagein_hist = telemetry.extra.get("pager.pagein")
        if pagein_hist is None:
            pagein_hist = telemetry.extra["pager.pagein"] = LogHistogram(
                growth=telemetry.fault_latency.growth
            )
        metrics.attach("telemetry.pager.pagein", pagein_hist)
        health = HealthMonitor(
            telemetry,
            HealthSpec(warn_load=health_warn_load, crit_load=health_crit_load),
        )
        health.bind(sim)

    return Cluster(
        sim=sim,
        network=network,
        stack=stack,
        client_host=client_host,
        machine=machine,
        pager=pager,
        policy=policy_obj,
        servers=servers,
        parity_server=parity_server,
        registry=registry,
        local_disk=local_disk,
        server_hosts=server_hosts,
        metrics=metrics,
        rngs=rngs,
        telemetry=telemetry,
        health=health,
    )
