"""Compiled replay is byte-identical to interpreted execution.

The acceptance bar for the trace compiler: for every experiment x
policy x application cell, `CompletionReport` — every field, every
counter, the full metrics snapshot — must match the interpreted path
*exactly* (float-for-float), and the chaos campaigns must stay CLEAN
and identical.
"""

import dataclasses
import json

import pytest

from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.faults import FaultPlan
from repro.runner import ExperimentRunner, RunSpec
from repro.vm.replacement import make_replacement
from repro.workloads import Fft, Gauss, HotCold, Mvec, Qsort

_SMALL = MachineSpec(
    name="compile-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)

#: Shrunk paper applications: same page-level structure, test-sized.
_APPS = {
    "mvec": lambda: Mvec(n=500),
    "gauss": lambda: Gauss(n=400, passes=2),
    "qsort": lambda: Qsort(records=200_000),
    "fft": lambda: Fft(elements=40_000, passes=2),
    "hot-cold": lambda: HotCold(
        hot_pages=96, cold_pages=400, n_refs=6_000, hot_fraction=0.95, seed=11
    ),
}

_POLICIES = ("disk", "no-reliability", "mirroring", "parity-logging", "write-through")


def _run(policy, workload_factory, replacement="lru", compile_on=True, **overrides):
    cluster = build_cluster(
        policy=policy,
        n_servers=2,
        seed=7,
        machine_spec=_SMALL,
        content_mode=True,
        replacement=make_replacement(replacement),
        compile_schedules=compile_on,
        **overrides,
    )
    report = cluster.run(workload_factory())
    return dataclasses.asdict(report), cluster.metrics.snapshot(), cluster


def _identical(policy, workload_factory, replacement="lru", **overrides):
    compiled, metrics_c, cluster_c = _run(
        policy, workload_factory, replacement, True, **overrides
    )
    interpreted, metrics_i, cluster_i = _run(
        policy, workload_factory, replacement, False, **overrides
    )
    assert compiled == interpreted
    assert metrics_c == metrics_i
    # The replayed machine ends in the interpreted machine's exact state.
    assert cluster_c.machine.resident_count == cluster_i.machine.resident_count
    assert (
        cluster_c.machine.replacement.export_state()
        == cluster_i.machine.replacement.export_state()
    )
    assert len(cluster_c.machine.page_table) == len(cluster_i.machine.page_table)
    for page_id in range(len(cluster_i.machine.page_table)):
        pte_i = cluster_i.machine.page_table.get(page_id)
        if pte_i is None:
            continue
        pte_c = cluster_c.machine.page_table.get(page_id)
        assert (pte_c.resident, pte_c.dirty, pte_c.referenced, pte_c.on_backing_store) == (
            pte_i.resident, pte_i.dirty, pte_i.referenced, pte_i.on_backing_store
        ), f"page {page_id} state diverged"
    return compiled


@pytest.mark.parametrize("policy", _POLICIES)
def test_every_policy_byte_identical(policy):
    report = _identical(policy, _APPS["gauss"])
    assert report["faults"] > 0  # the cell actually paged


@pytest.mark.parametrize("app", sorted(_APPS))
def test_every_app_byte_identical(app):
    report = _identical("parity-logging", _APPS[app])
    assert report["faults"] > 0


@pytest.mark.parametrize("replacement", ("fifo", "lru", "clock"))
def test_every_replacement_byte_identical(replacement):
    _identical("no-reliability", _APPS["hot-cold"], replacement=replacement)


def test_write_behind_window_byte_identical():
    """The PR 4 write-behind queue (no prefetch) is pager-side only, so
    pipelined runs stay compiled — and stay identical."""
    _identical("parity-logging", _APPS["gauss"], pipeline_window=4)


def test_traced_compiled_replay_byte_identical():
    """A live tracer records per-fault spans during compiled replay
    without changing a single report field or metric."""
    from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

    tracer = Tracer()
    install_tracer(tracer)
    try:
        traced, metrics_t, _ = _run("mirroring", _APPS["gauss"])
    finally:
        uninstall_tracer()
    interpreted, metrics_i, _ = _run("mirroring", _APPS["gauss"], compile_on=False)
    assert traced == interpreted
    assert metrics_t == metrics_i
    assert [s.kind for s in tracer.spans if s.component == "compile"] == ["replay"]


def test_chaos_campaign_clean_and_identical():
    """PR 3 chaos (crash + loss + rot) under compiled replay: identical
    reports, identical fault traces, and the same CLEAN verdicts."""
    plan = FaultPlan.standard_campaign()

    def digest(compile_on):
        specs = [
            RunSpec.make(
                "sequential-scan",
                policy,
                workload_kwargs=dict(n_pages=400, passes=3, write=True),
                overrides=dict(
                    machine_spec=_SMALL,
                    content_mode=True,
                    seed=3,
                    n_servers=4,
                    server_capacity_pages=600,
                    compile_schedules=compile_on,
                ),
                hook="chaos",
                hook_kwargs=plan.as_kwargs(),
                extract=("resilience",),
                label=f"{policy}/chaos",
            )
            for policy in ("parity-logging", "mirroring")
        ]
        results = ExperimentRunner(jobs=1, use_cache=False).run(specs)
        # report.meta records the overrides, compile_schedules included;
        # everything else must serialise byte-identically across arms.
        for r in results:
            assert r.report.meta.pop("overrides")["compile_schedules"] is compile_on
        return [
            json.dumps(
                {
                    "report": dataclasses.asdict(r.report),
                    "fault_trace": r.extras["fault_trace"],
                    "verdict": r.extras["verdict"],
                },
                sort_keys=True,
                default=list,
            )
            for r in results
        ]

    compiled = digest(True)
    interpreted = digest(False)
    assert compiled == interpreted
    assert all(json.loads(cell)["verdict"] == "CLEAN" for cell in compiled)
