"""trace-summary must digest runs from every execution tier.

A traced run exercises the compiled batch-replay path; the planner's
decision trail reaches the summary as ``compile.*`` events.  Whatever
tier served the run, ``summarize`` + ``render_summary`` must produce a
valid, non-empty report.
"""

import pytest

from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.obs.summary import load_trace, render_summary, summarize
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.workloads import Gauss

_SMALL = MachineSpec(
    name="summary-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


def _traced_run(tmp_path, runs=1, n=300, **overrides):
    tracer = Tracer()
    install_tracer(tracer)
    try:
        for _ in range(runs):
            cluster = build_cluster(
                policy="mirroring", n_servers=2, seed=5,
                machine_spec=_SMALL, **overrides,
            )
            cluster.run(Gauss(n=n, passes=2))
    finally:
        uninstall_tracer()
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    return load_trace(str(path), validate=True)


def _assert_valid_nonempty(summary, text):
    assert summary.header is not None
    assert summary.header["spans"] >= 0
    assert summary.event_counts, "summary saw no events"
    assert text.strip(), "rendered summary is empty"


def test_summary_of_traced_compiled_run(tmp_path):
    records = _traced_run(tmp_path)
    summary = summarize(records)
    text = render_summary(summary)
    _assert_valid_nonempty(summary, text)
    # The run went through the compiled schedule tier and said so.
    kinds = {event["event"] for event in summary.compile_events}
    assert "compiled" in kinds
    assert "compile fast path" in text
    # Per-fault spans survive batch replay: the latency section exists.
    assert summary.latency, "no span latencies collected"
    assert summary.spans


def test_summary_of_telemetry_run_shows_bypass_and_health(tmp_path):
    # A Gauss big enough to spill (n=300 fits in the 1 MB of pageable
    # RAM and never touches the wire), thresholds floored so the tiny
    # run trips the load rule at the first sampled window.
    records = _traced_run(
        tmp_path,
        n=450,
        telemetry_interval=0.1,
        health_warn_load=0.01,
        health_crit_load=0.02,
    )
    summary = summarize(records)
    text = render_summary(summary)
    _assert_valid_nonempty(summary, text)
    reasons = [
        (event.get("attrs") or {}).get("reason")
        for event in summary.compile_events
        if event["event"] == "bypass"
    ]
    assert "telemetry" in reasons
    # The tiny machine thrashes: the health monitor has things to say,
    # and the summary renders them as a timeline.
    assert summary.health_events
    assert "health timeline" in text


def test_summary_of_vectorized_decision_trail():
    # A hand-assembled trace of planner events (one compiled schedule,
    # then two bypasses) summarizes with per-reason breakdowns.
    records = [
        {"type": "header", "schema": 1, "events": 3, "spans": 0},
        {
            "type": "event", "ts": 0.0, "component": "compile",
            "event": "compiled", "attrs": {},
        },
    ] + [
        {
            "type": "event", "ts": 0.0, "component": "compile",
            "event": "bypass", "attrs": {"reason": "telemetry"},
        }
    ] * 2
    summary = summarize(records)
    text = render_summary(summary)
    assert [e["event"] for e in summary.compile_events] == [
        "compiled", "bypass", "bypass",
    ]
    assert "bypass: 2  (telemetry=2)" in text
    assert "compiled: 1" in text
