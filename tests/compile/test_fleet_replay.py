"""Multi-machine compiled replay == interpreted fleet, byte-identically.

N clients on the switched fabric each replay an independently compiled,
reliability-blind fault schedule; the kernel reconciles them wherever
they actually meet (donor servers, fabric ports).  These tests pin the
contract: every per-client report field matches interpreted execution
exactly, each client compiles its own schedule, and fleet-level couplings
(shared Ethernet, shared server instances) bypass with traced reasons.
"""

import dataclasses

import pytest

from repro.compile import fleet_bypass_reason, plan_fleet
from repro.config import MachineSpec
from repro.experiments.fleet import build_fleet, render_fleet, run_fleet
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.runner.registry import make_workload

_SMALL = MachineSpec(
    name="fleet-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)

_WORKLOAD = ("sequential-scan", {"n_pages": 400, "passes": 3, "write": True})


@pytest.fixture()
def tracer():
    tracer = Tracer()
    install_tracer(tracer)
    yield tracer
    uninstall_tracer()


def _compile_events(tracer):
    return [
        (record["event"], record.get("attrs", {}))
        for record in tracer.events
        if record["component"] == "compile"
    ]


def _run(compile_schedules, n_clients=3, **kwargs):
    results = run_fleet(
        workload=_WORKLOAD,
        n_clients=n_clients,
        n_donors=2,
        machine_spec=_SMALL,
        compile_schedules=compile_schedules,
        **kwargs,
    )
    return results


def _fleet_reports(compile_schedules, **kwargs):
    """(results, reports-as-dicts) for one fleet run."""
    from repro.experiments import fleet as fleet_mod

    captured = {}
    original = fleet_mod.build_fleet

    def capture(*args, **kw):
        built = original(*args, **kw)
        captured["fleet"] = built
        return built

    fleet_mod.build_fleet = capture
    try:
        results = _run(compile_schedules, **kwargs)
    finally:
        fleet_mod.build_fleet = original
    reports = [dataclasses.asdict(r) for r in captured["fleet"].reports]
    return results, reports


def test_fleet_compiled_matches_interpreted_byte_identically():
    fast, fast_reports = _fleet_reports(True)
    slow, slow_reports = _fleet_reports(False)
    assert fast["compiled_clients"] == 3
    assert slow["compiled_clients"] == 0
    assert fast_reports == slow_reports
    # The scoreboard derives from the reports, so it matches too.
    assert fast == dict(slow, compiled_clients=3)


def test_fleet_compiled_matches_on_ethernet_fabric_bypass(tracer):
    """Shared Ethernet pins the whole fleet interpreted — and says so."""
    results = _run(True, network="ethernet", n_clients=2)
    assert results["compiled_clients"] == 0
    assert (
        "bypass", {"reason": "shared-ethernet", "scope": "fleet"}
    ) in _compile_events(tracer)


def test_identical_clients_compile_their_own_schedules(tracer):
    fleet = build_fleet(n_clients=3, n_donors=2, machine_spec=_SMALL)
    clients = [
        (machine, pager, make_workload(_WORKLOAD[0], dict(_WORKLOAD[1])))
        for machine, pager in zip(fleet.machines, fleet.pagers)
    ]
    schedules = plan_fleet(clients, network=fleet.network)
    assert all(s is not None for s in schedules)
    assert len({id(s) for s in schedules}) == 3
    events = _compile_events(tracer)
    assert [e for e, _ in events] == ["compiled"] * 3


def test_cross_client_server_sharing_bypasses(tracer):
    fleet = build_fleet(n_clients=2, n_donors=2, machine_spec=_SMALL)
    # Violate §6 on purpose: point client 1 at client 0's servers.
    fleet.pagers[1].policy.servers = fleet.pagers[0].policy.servers
    clients = [
        (machine, pager, make_workload(_WORKLOAD[0], dict(_WORKLOAD[1])))
        for machine, pager in zip(fleet.machines, fleet.pagers)
    ]
    assert fleet_bypass_reason(clients, fleet.network) == "cross-client-coupling"
    schedules = plan_fleet(clients, network=fleet.network)
    assert schedules == [None, None]
    assert (
        "bypass", {"reason": "cross-client-coupling", "scope": "fleet"}
    ) in _compile_events(tracer)


def test_telemetry_pins_fleet_interpreted():
    """Sampling wants the real event timeline: every client bypasses
    (reason=telemetry), and the scoreboard still matches the compiled
    run on every derived metric."""
    fast, fast_reports = _fleet_reports(True)
    slow, slow_reports = _fleet_reports(True, telemetry_interval=1.0)
    assert slow["compiled_clients"] == 0
    assert "pagein_latency" in slow and slow["pagein_latency"]["count"] > 0
    assert fast_reports == slow_reports


def test_staggered_starts_are_part_of_both_paths():
    """The deterministic client stagger lands in init_time, so compiled
    and interpreted fleets agree on every completion time — but clients
    do not finish at identical instants."""
    _, reports = _fleet_reports(True)
    inits = [r["inittime"] for r in reports]
    assert len(set(inits)) == len(inits)


def test_fleet_analytic_fabric_matches_event_driven_at_high_contention():
    """8 clients on 2 donors is the shape that once exposed boundary-tie
    divergences between analytic port-pair holds and the event-driven
    walk (two chains hitting one downlink boundary at the same instant):
    the rendered scoreboard must not depend on the fabric tier."""

    def render(analytic):
        return render_fleet(
            run_fleet(
                n_clients=8, n_donors=2, telemetry_interval=2.0, analytic=analytic
            )
        )

    assert render(True) == render(False)
