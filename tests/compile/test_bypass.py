"""Eligibility gating: when compilation must stand down, visibly.

Speculative fetches perturb the resident set, so any prefetching run —
machine-level read-ahead or the PR 4 adaptive prefetcher — must execute
interpretively, announced by a ``compile.bypass`` trace event.
"""

import dataclasses

import pytest

from repro.compile import plan_run
from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.workloads import SequentialScan

_SMALL = MachineSpec(
    name="bypass-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


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


def _workload():
    return SequentialScan(n_pages=300, passes=2, write=True)


def _cluster(**overrides):
    return build_cluster(
        policy="no-reliability", n_servers=2, seed=1, machine_spec=_SMALL, **overrides
    )


def test_eligible_run_emits_compiled_event_and_replay_span(tracer):
    cluster = _cluster()
    report = cluster.run(_workload())
    events = _compile_events(tracer)
    assert events and events[0][0] == "compiled"
    assert events[0][1]["faults"] == report.faults
    assert events[0][1]["refs"] == 300 * 2
    replay_spans = [s for s in tracer.spans if s.component == "compile"]
    assert len(replay_spans) == 1 and replay_spans[0].kind == "replay"


def test_pipeline_prefetcher_bypasses_with_trace_event(tracer):
    cluster = _cluster(pipeline_window=4, pipeline_prefetch=4)
    cluster.run(_workload())
    assert ("bypass", {"reason": "pipeline-prefetch"}) in _compile_events(tracer)


def test_write_behind_alone_stays_compiled(tracer):
    """Window > 1 with no prefetcher is pager-side only: still compiled."""
    cluster = _cluster(pipeline_window=4)
    cluster.run(_workload())
    assert _compile_events(tracer)[0][0] == "compiled"


def test_nondeterministic_workload_bypasses(tracer):
    workload = _workload()
    workload.deterministic = False
    _cluster().run(workload)
    assert ("bypass", {"reason": "nondeterministic-workload"}) in _compile_events(tracer)


def test_cluster_override_and_process_default(tracer):
    """``compile_schedules=False`` is the one way to turn compilation
    off; without it a cluster compiles."""
    assert plan_run(_cluster(compile_schedules=False), _workload()).schedule is None
    assert ("bypass", {"reason": "disabled"}) in _compile_events(tracer)
    assert plan_run(_cluster(), _workload()).schedule is not None


def test_recorded_workload_compiled_matches_interpreted(tracer, tmp_path):
    """A recorded trace compiles, and its compiled report equals the
    interpreted one."""
    from repro.workloads import Gauss
    from repro.workloads.trace_io import RecordedWorkload, save_trace

    path = tmp_path / "wl.trace"
    save_trace(Gauss(n=300, passes=1), path)
    workload = RecordedWorkload(path)

    compiled = dataclasses.asdict(_cluster().run(workload))
    interpreted = dataclasses.asdict(
        _cluster(compile_schedules=False).run(workload)
    )
    assert compiled == interpreted
    assert _compile_events(tracer)[0][0] == "compiled"
