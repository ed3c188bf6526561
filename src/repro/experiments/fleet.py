"""Fleet-scale multi-client campaigns: N clients × M donors, one kernel.

ROADMAP item 1 asks for the paper's §3.2/§6 multi-client story at
*fleet* scale — hundreds of paging clients, reported the way rack-scale
remote-memory systems (Hydra, Leap in PAPERS.md) report themselves:
cluster-wide throughput, fairness across tenants, and tail latency.
This experiment is the assembly point for the three engines that make
that affordable:

* the **analytic switched fabric** (``net/switched.py``): disjoint
  port pairs hold analytically, so an uncontended page transfer costs
  one kernel event instead of a five-step resource walk;
* **multi-machine compiled replay** (``compile.plan_fleet`` +
  ``Machine.run_plan``): each client compiles its own reliability-blind
  fault schedule and replays it as interleaved merged-chunk segments,
  reconciling only at the shared donors and fabric ports;
* per-client **server instances** on shared donor workstations — "a
  new instance of the server" per client (§3.2), "clients never share
  their swap spaces" (§6) — which is exactly the isolation that makes
  the independent compilation sound.

Reported metrics: cluster throughput (sum of per-client pagein rates),
Jain's fairness index over those rates, makespan, and — with telemetry
on — p50/p95/p99 pagein latency pooled across every client from the
``telemetry.pager.pagein`` log-histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..cluster.workstation import Workstation
from ..config import DEC_ALPHA_3000_300, MachineSpec, SwitchedNetworkSpec
from ..core.client import RemoteMemoryPager
from ..core.policies.none import NoReliability
from ..core.server import MemoryServer
from ..net.ethernet import EthernetCsmaCd
from ..net.protocol import ProtocolStack
from ..net.switched import SwitchedNetwork
from ..obs.telemetry import LogHistogram, TelemetrySampler
from ..sim import RngRegistry, Simulator
from ..vm.machine import CompletionReport, Machine

__all__ = [
    "Fleet",
    "build_fleet",
    "run_fleet",
    "render_fleet",
    "jain_fairness",
]

#: Deterministic per-client start stagger (seconds).  Identical clients
#: replaying identical schedules would otherwise hit every shared port
#: at the same instant forever; the stagger is applied identically in
#: interpreted and replay paths (it is part of ``Machine.init_time``),
#: so byte-identity across execution modes is preserved.
_DEFAULT_STAGGER = 0.003


@dataclass
class Fleet:
    """N paging clients × M donor workstations on one simulator."""

    sim: Simulator
    network: object
    stack: ProtocolStack
    donors: List[Workstation]
    machines: List[Machine]
    pagers: List[RemoteMemoryPager]
    telemetry: Optional[TelemetrySampler] = None
    reports: List[CompletionReport] = field(default_factory=list)

    @property
    def n_clients(self) -> int:
        return len(self.machines)


def build_fleet(
    n_clients: int = 8,
    n_donors: int = 4,
    capacity_per_client: int = 2048,
    seed: int = 0,
    network: str = "switched",
    switched_spec: Optional[SwitchedNetworkSpec] = None,
    machine_spec: MachineSpec = DEC_ALPHA_3000_300,
    telemetry_interval: float = 0.0,
    stagger: float = _DEFAULT_STAGGER,
    analytic: bool = True,
    compile_schedules: bool = True,
) -> Fleet:
    """Assemble the fleet testbed.

    ``network`` selects the fabric: ``"switched"`` (the scalable
    default — per-port full-duplex links, replay- and analytic-eligible)
    or ``"ethernet"`` (the paper's shared 10 Mbit segment, for §6-style
    contention studies; pins interpreted fleet execution).  Each client
    gets its own :class:`MemoryServer` instances on every shared donor —
    separate grants, fully isolated swap spaces — and its own machine,
    whose startup is the paper's 0.21 s ``inittime`` plus ``stagger``
    seconds per client index.

    ``telemetry_interval`` > 0 attaches one :class:`TelemetrySampler`
    shared by the whole fleet: every client's pagein latency pools into
    a single ``pager.pagein`` histogram (the fleet's tail is a property
    of the cluster, not of one tenant).  Sampling pins interpreted
    execution exactly as it does for single-client clusters.

    ``analytic`` enables the fabric's analytic fast path and
    ``compile_schedules`` each client's trace compilation, as the
    same-named :func:`~repro.core.builder.build_cluster` keywords do.
    """
    if n_clients < 1 or n_donors < 1:
        raise ValueError("need at least one client and one donor")
    if network not in ("switched", "ethernet"):
        raise ValueError(f"unknown fleet network {network!r}")
    sim = Simulator()
    if network == "switched":
        fabric: object = SwitchedNetwork(
            sim, spec=switched_spec or SwitchedNetworkSpec(), analytic=analytic
        )
    else:
        fabric = EthernetCsmaCd(sim, rngs=RngRegistry(seed=seed), analytic=analytic)
    stack = ProtocolStack(fabric)

    # Size donor hosts to hold every client's grant plus slack.
    donor_spec = MachineSpec(
        name="fleet-donor",
        ram_bytes=(n_clients * capacity_per_client + 2048) * 8192
        + DEC_ALPHA_3000_300.kernel_resident_bytes,
        kernel_resident_bytes=DEC_ALPHA_3000_300.kernel_resident_bytes,
    )
    donors = []
    for d in range(n_donors):
        host = Workstation(sim, f"donor-{d}", donor_spec)
        fabric.attach(host.name)
        donors.append(host)

    machines: List[Machine] = []
    pagers: List[RemoteMemoryPager] = []
    for c in range(n_clients):
        client_name = f"client-{c}"
        fabric.attach(client_name)
        servers = [
            MemoryServer(
                host,
                stack,
                capacity_pages=capacity_per_client,
                name=f"server-{c}-{d}",
            )
            for d, host in enumerate(donors)
        ]
        policy = NoReliability(client_name, stack, servers)
        pager = RemoteMemoryPager(policy)
        pagers.append(pager)
        machines.append(
            Machine(
                sim,
                machine_spec,
                pager,
                init_time=0.21 + stagger * c,
                compile_schedules=compile_schedules,
                name=client_name,
            )
        )

    # A process-wide tracer (the CLI's --trace flag) attaches to every
    # new fleet, exactly as it does to single-client clusters.
    from ..obs.trace import current_tracer

    tracer = current_tracer()
    if tracer is not None:
        sim.set_tracer(tracer)

    telemetry: Optional[TelemetrySampler] = None
    if telemetry_interval > 0.0:
        telemetry = TelemetrySampler(telemetry_interval)
        sim.set_sampler(telemetry)
        telemetry.add_probe("util.wire", fabric.stats.busy_seconds, mode="rate")
        latency = fabric.stats.message_latency
        telemetry.add_probe(
            "net.latency_ms",
            (lambda t=latency: (t.total, t.count)),
            mode="mean",
            scale=1e3,
        )
        # Pooled per-pagein latency histogram (fed by every client's
        # pager sampler hook; pre-created so it always snapshots).
        if "pager.pagein" not in telemetry.extra:
            telemetry.extra["pager.pagein"] = LogHistogram(
                growth=telemetry.fault_latency.growth
            )
    return Fleet(
        sim=sim,
        network=fabric,
        stack=stack,
        donors=donors,
        machines=machines,
        pagers=pagers,
        telemetry=telemetry,
    )


def jain_fairness(rates: List[float]) -> float:
    """Jain's index ``(Σx)² / (N·Σx²)`` — 1.0 is perfectly fair."""
    if not rates:
        return 0.0
    square_sum = sum(x * x for x in rates)
    if square_sum == 0.0:
        return 1.0
    total = sum(rates)
    return (total * total) / (len(rates) * square_sum)


def run_fleet(
    workload: Tuple[str, dict] = ("gauss", {}),
    n_clients: int = 8,
    n_donors: int = 4,
    capacity_per_client: int = 2048,
    seed: int = 0,
    network: str = "switched",
    switched_spec: Optional[SwitchedNetworkSpec] = None,
    machine_spec: MachineSpec = DEC_ALPHA_3000_300,
    telemetry_interval: float = 0.0,
    stagger: float = _DEFAULT_STAGGER,
    analytic: bool = True,
    compile_schedules: bool = True,
) -> Dict[str, object]:
    """One fleet campaign: every client runs ``workload`` concurrently.

    ``workload`` is a registry name plus factory kwargs (e.g.
    ``("gauss", {"n": 400})``).  Returns per-client reports plus the
    cluster-wide scoreboard.  :func:`repro.compile.plan_fleet` decides
    per client (couplings fall back with traced reasons) and every
    client starts through :meth:`Machine.run_plan` — replaying its
    compiled schedule or interpreting its trace through the same fault
    service, exactly as ``Cluster.run`` does for one machine.
    """
    from ..compile import plan_fleet
    from ..runner.registry import make_workload

    name, kwargs = workload
    fleet = build_fleet(
        n_clients=n_clients,
        n_donors=n_donors,
        capacity_per_client=capacity_per_client,
        seed=seed,
        network=network,
        switched_spec=switched_spec,
        machine_spec=machine_spec,
        telemetry_interval=telemetry_interval,
        stagger=stagger,
        analytic=analytic,
        compile_schedules=compile_schedules,
    )
    workloads = [make_workload(name, dict(kwargs)) for _ in fleet.machines]
    schedules = plan_fleet(
        list(zip(fleet.machines, fleet.pagers, workloads)),
        network=fleet.network,
    )
    processes = [
        machine.run_plan(wl, schedule, name=f"{name}@{machine.name}")
        for machine, wl, schedule in zip(fleet.machines, workloads, schedules)
    ]
    reports = [fleet.sim.run_until_complete(p) for p in processes]
    fleet.reports = reports

    rates = [r.pageins / r.etime if r.etime > 0 else 0.0 for r in reports]
    results: Dict[str, object] = {
        "workload": name,
        "n_clients": n_clients,
        "n_donors": n_donors,
        "network": network,
        "compiled_clients": sum(1 for s in schedules if s is not None),
        "clients": [
            {
                "name": machine.name,
                "etime": r.etime,
                "pageins": r.pageins,
                "pageouts": r.pageouts,
                "rate": rate,
            }
            for machine, r, rate in zip(fleet.machines, reports, rates)
        ],
        "cluster_throughput": sum(rates),
        "jain_fairness": jain_fairness(rates),
        "makespan": max((r.etime for r in reports), default=0.0),
        "wire_utilization": fleet.network.stats.utilization(),
    }
    if fleet.telemetry is not None:
        hist = fleet.telemetry.extra["pager.pagein"]
        results["pagein_latency"] = {
            "count": hist.count,
            # Histogram samples are simulated seconds; report ms.
            "p50_ms": round(hist.percentile(50.0) * 1e3, 3),
            "p95_ms": round(hist.percentile(95.0) * 1e3, 3),
            "p99_ms": round(hist.percentile(99.0) * 1e3, 3),
        }
    return results


def render_fleet(results: Dict[str, object]) -> str:
    """Cluster scoreboard plus the per-client breakdown table."""
    clients = results["clients"]
    rows = [
        [
            cell["name"],
            f"{cell['etime']:.2f}",
            str(cell["pageins"]),
            str(cell["pageouts"]),
            f"{cell['rate']:.1f}",
        ]
        for cell in clients
    ]
    table = format_table(
        ["client", "etime (s)", "pageins", "pageouts", "pageins/s"],
        rows,
        title=(
            f"Fleet campaign: {results['n_clients']} clients x "
            f"{results['n_donors']} donors, {results['workload']} on the "
            f"{results['network']} fabric"
        ),
    )
    lines = [
        table,
        (
            f"cluster throughput: {results['cluster_throughput']:.1f} "
            f"pageins/s, Jain fairness: {results['jain_fairness']:.4f}, "
            f"makespan: {results['makespan']:.2f} s"
        ),
        (
            f"wire busy: {results['wire_utilization']:.0%}, compiled "
            f"clients: {results['compiled_clients']}/{results['n_clients']}"
        ),
    ]
    latency = results.get("pagein_latency")
    if latency:
        lines.append(
            f"pagein latency (pooled, {latency['count']} samples): "
            f"p50 {latency['p50_ms']:.2f} ms, p95 {latency['p95_ms']:.2f} "
            f"ms, p99 {latency['p99_ms']:.2f} ms"
        )
    return "\n".join(lines)
