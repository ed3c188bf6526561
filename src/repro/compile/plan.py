"""Eligibility and dispatch for compiled replay.

:func:`plan_run` is the single integration point ``Cluster.run``
consults before executing a workload: it decides whether the run may
use the batch-replay fast path, compiles the fault schedule, and emits
``compile.*`` trace events so every decision is visible in a
``--trace`` recording.  :func:`plan_fleet` makes the same decision for
each client of a co-simulated fleet; every client compiles its own
schedule.

Compilation is on unless the machine was built with
``compile_schedules=False``, and it is **strictly conservative** — it
engages only when the resident set is a pure function of the reference
stream:

* the workload declares itself deterministic (every ``trace()`` call
  yields the same stream);
* no speculative fetch can perturb residency: a run with the pipeline's
  adaptive prefetcher bypasses to interpreted execution, with a
  ``compile.bypass`` event.

Anything that only acts *pager-side* — write-behind windows, chaos
fault injection, RPC retries, background load — cannot change which
references fault, so those runs stay compiled (and stay byte-identical;
``tests/compile`` pins the chaos campaigns).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from .compiler import compile_trace
from .schedule import FaultSchedule

__all__ = [
    "ReplayPlan",
    "plan_run",
    "plan_fleet",
    "fleet_bypass_reason",
]


@dataclass
class ReplayPlan:
    """How ``Cluster.run`` should execute one workload: replay
    ``schedule`` per fault, or interpret the reference stream when it
    is None."""

    schedule: Optional[FaultSchedule] = None


def _bypass_reason(machine, pager, workload) -> Optional[str]:
    """Why this run must stay interpreted, or None when eligible."""
    if getattr(machine.sim.sampler, "enabled", False):
        # Telemetry sampling wants the real event-by-event timeline:
        # merged-chunk replay lumps utime between fault boundaries and
        # would distort mid-run samples, so sampled runs pin themselves
        # to interpreted execution (and thereby stay deterministic
        # across --jobs and cache replay).
        return "telemetry"
    if not getattr(workload, "deterministic", False):
        return "nondeterministic-workload"
    pipeline = getattr(pager, "pipeline", None)
    if pipeline is not None and getattr(pipeline, "prefetcher", None) is not None:
        return "pipeline-prefetch"
    if machine.spec.user_frames < 1:
        # Let the interpreted path raise its configuration error.
        return "no-user-frames"
    return None


def _plan_machine_schedule(machine, pager, workload):
    """Schedule decision for one (machine, pager, workload) triple: the
    schedule to replay, or None to interpret.  Emits bypass/compiled."""
    tracer = machine.sim.tracer

    if not machine.compile_schedules:
        tracer.emit("compile", "bypass", reason="disabled")
        return None

    reason = _bypass_reason(machine, pager, workload)
    if reason is not None:
        tracer.emit("compile", "bypass", reason=reason)
        return None

    started = perf_counter()
    schedule = compile_trace(
        workload.trace(),
        user_frames=machine.spec.user_frames,
        policy=type(machine.replacement)(),
        cpu_speed=machine.spec.cpu_speed,
        max_cpu_chunk=machine.max_cpu_chunk,
        free_batch=machine.free_batch,
    )
    wall_ms = (perf_counter() - started) * 1e3
    tracer.emit(
        "compile", "compiled",
        faults=schedule.n_faults, refs=schedule.n_refs,
        ops=schedule.n_ops, wall_ms=round(wall_ms, 3),
    )
    return schedule


def fleet_bypass_reason(clients, network=None) -> Optional[str]:
    """Why a whole fleet must stay interpreted, or None when eligible.

    Per-client schedules are *reliability- and network-blind* (a fault
    sequence in CPU time), so N replays on one kernel reconcile shared
    contention exactly — **when** contention resolves without randomness
    and the clients are truly isolated (§6: "clients never share their
    swap spaces").  Two fleet-level couplings break that:

    * ``shared-ethernet`` — a collision medium resolves cross-client
      contention through per-station backoff RNG; the draw interleaving
      depends on kernel event ordering that merged-chunk replay does
      not reproduce.  Only the switched fabric (per-port full-duplex
      resources, no RNG) is replay-safe.
    * ``cross-client-coupling`` — a :class:`MemoryServer` instance (or
      parity server) serving two pagers couples their replacement state;
      schedules compiled in isolation would be wrong.
    """
    from ..net.switched import SwitchedNetwork

    if network is not None and not isinstance(network, SwitchedNetwork):
        return "shared-ethernet"
    owners: dict = {}
    for _, pager, _ in clients:
        policy = pager.policy
        servers = list(getattr(policy, "servers", ()))
        parity = getattr(policy, "parity_server", None)
        if parity is not None:
            servers.append(parity)
        for server in servers:
            owner = owners.setdefault(id(server), pager)
            if owner is not pager:
                return "cross-client-coupling"
    return None


def plan_fleet(clients, network=None):
    """Schedule decisions for N co-simulated clients.

    ``clients`` is a sequence of ``(machine, pager, workload)`` triples
    sharing one kernel; ``network`` is the fabric they page over.
    Returns a list of per-client :class:`FaultSchedule`\\ s (``None`` =
    interpret that client), aligned with ``clients``.  A fleet-level
    coupling (see :func:`fleet_bypass_reason`) pins *every* client to
    interpreted execution; otherwise each client is planned and compiled
    independently, exactly as :func:`plan_run` plans a lone machine."""
    clients = list(clients)
    if not clients:
        return []
    reason = fleet_bypass_reason(clients, network)
    if reason is not None:
        tracer = clients[0][0].sim.tracer
        tracer.emit("compile", "bypass", reason=reason, scope="fleet")
        return [None] * len(clients)
    return [
        _plan_machine_schedule(machine, pager, workload)
        for machine, pager, workload in clients
    ]


def plan_run(cluster, workload) -> ReplayPlan:
    """The decision ``Cluster.run`` consults before executing a workload."""
    return ReplayPlan(
        schedule=_plan_machine_schedule(cluster.machine, cluster.pager, workload)
    )
