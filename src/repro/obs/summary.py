"""Trace-file analysis: span-latency histograms and slowest requests.

Backs the ``repro trace-summary`` CLI command.  Loads a JSONL trace
written by :meth:`repro.obs.trace.Tracer.write_jsonl`, groups completed
spans by kind, folds per-kind latencies into
:class:`~repro.sim.monitor.Tally` objects (merged across runs with
:meth:`Tally.merge` when one trace file holds a whole suite), and
renders an ASCII latency histogram plus the top-N slowest requests with
their phase decompositions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.monitor import Tally

from .trace import validate_record

__all__ = ["load_trace", "summarize", "render_summary", "TraceSummary"]

#: Components whose point events mark an injected fault or its detection
#: (chaos harness, RPC retry machinery, partitions, the watchdog).  The
#: summary keeps their events on a timeline so latency spikes in the
#: slowest-request table can be attributed to what was going wrong on
#: the wire at that moment.
_FAULT_COMPONENTS = frozenset({"faults", "net.rpc", "net", "watchdog", "recovery"})


def load_trace(path: str, validate: bool = True) -> List[Dict[str, Any]]:
    """Parse (and by default validate) every record in a JSONL trace."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if validate:
                try:
                    validate_record(record)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    return records


class TraceSummary:
    """Aggregated view of one trace file."""

    def __init__(self) -> None:
        self.header: Optional[Dict[str, Any]] = None
        self.event_counts: Dict[str, int] = {}
        #: kind -> latency tally (keep_samples, for percentiles/histogram)
        self.latency: Dict[str, Tally] = {}
        #: kind -> phase name -> accumulated seconds across all spans
        self.phase_totals: Dict[str, Dict[str, float]] = {}
        #: Completed span records, for the slowest-request table.
        self.spans: List[Dict[str, Any]] = []
        #: Fault-ish events (see _FAULT_COMPONENTS), in timestamp order.
        self.fault_events: List[Dict[str, Any]] = []
        #: ``compile.*`` planner events (bypass/compiled),
        #: in order — which tier served each run, and why compilation
        #: was skipped when it was.
        self.compile_events: List[Dict[str, Any]] = []
        #: ``health.*`` saturation transitions (warn/critical/clear)
        #: from the telemetry health monitor, in timestamp order.
        self.health_events: List[Dict[str, Any]] = []
        self.open_spans = 0
        self.runs: List[str] = []

    def faults_during(self, start: float, end: float) -> List[Dict[str, Any]]:
        """Fault events whose timestamp falls inside ``[start, end]``."""
        return [e for e in self.fault_events if start <= e["ts"] <= end]


def summarize(records: List[Dict[str, Any]]) -> TraceSummary:
    """Aggregate parsed trace records into a :class:`TraceSummary`."""
    summary = TraceSummary()
    for record in records:
        kind = record.get("type")
        if kind == "header":
            summary.header = record
        elif kind == "event":
            key = f"{record['component']}.{record['event']}"
            summary.event_counts[key] = summary.event_counts.get(key, 0) + 1
            if record["event"] == "run" and record["component"] == "tracer":
                label = (record.get("attrs") or {}).get("label")
                if label:
                    summary.runs.append(label)
            if record["component"] in _FAULT_COMPONENTS:
                summary.fault_events.append(record)
            elif record["component"] == "compile":
                summary.compile_events.append(record)
            elif record["component"] == "health":
                summary.health_events.append(record)
        elif kind == "span":
            if record["end"] is None:
                summary.open_spans += 1
                continue
            span_kind = record["kind"]
            tally = summary.latency.get(span_kind)
            if tally is None:
                tally = summary.latency[span_kind] = Tally(keep_samples=True)
            tally.observe(record["end"] - record["start"])
            totals = summary.phase_totals.setdefault(span_kind, {})
            for phase, seconds in record["phases"].items():
                totals[phase] = totals.get(phase, 0.0) + seconds
            summary.spans.append(record)
    return summary


def merge_latency(summaries: List[TraceSummary]) -> Dict[str, Tally]:
    """Fold per-file latency tallies together (exact, via Tally.merge)."""
    merged: Dict[str, Tally] = {}
    for summary in summaries:
        for kind, tally in summary.latency.items():
            if kind in merged:
                merged[kind].merge(tally)
            else:
                merged[kind] = Tally(keep_samples=True).merge(tally)
    return merged


def _fault_label(event: Dict[str, Any]) -> str:
    return f"{event['component']}.{event['event']}"


def _attribution(events: List[Dict[str, Any]]) -> str:
    """Compact ``3x faults.drop, 1x faults.crash`` summary of events."""
    counts: Dict[str, int] = {}
    for event in events:
        key = _fault_label(event)
        counts[key] = counts.get(key, 0) + 1
    return ", ".join(
        f"{count}x {key}" if count > 1 else key
        for key, count in sorted(counts.items(), key=lambda item: -item[1])
    )


#: Timeline rows shown before eliding; steady-state loss alone can
#: contribute hundreds of drop events.
_TIMELINE_LIMIT = 20

#: Per-packet noise (and its RPC echoes) — shown after scheduled
#: campaign events like ``crash`` or ``corrupt_burst`` when the
#: timeline elides.
_NOISE_EVENTS = frozenset(
    {"drop", "duplicate", "delay", "corrupt", "retry", "timeout"}
)

_HIST_WIDTH = 40
_HIST_BINS = 12


def _histogram(samples: List[float], bins: int = _HIST_BINS) -> List[str]:
    """Fixed-width ASCII histogram of latencies (milliseconds)."""
    if not samples:
        return []
    low = min(samples)
    high = max(samples)
    if high <= low:
        return [f"  {low * 1e3:10.3f} ms  | {'#' * _HIST_WIDTH} {len(samples)}"]
    width = (high - low) / bins
    counts = [0] * bins
    for value in samples:
        index = min(int((value - low) / width), bins - 1)
        counts[index] += 1
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        lo = (low + index * width) * 1e3
        hi = (low + (index + 1) * width) * 1e3
        bar = "#" * max(1 if count else 0, round(count / peak * _HIST_WIDTH))
        lines.append(f"  {lo:10.3f}-{hi:10.3f} ms | {bar:<{_HIST_WIDTH}} {count}")
    return lines


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """Human-readable report: per-kind stats, histograms, slowest spans."""
    lines: List[str] = []
    if summary.header is not None:
        lines.append(
            f"trace: {summary.header['events']} events, "
            f"{summary.header['spans']} spans "
            f"(schema v{summary.header['schema']})"
        )
    if summary.runs:
        lines.append(f"runs: {', '.join(summary.runs)}")
    if summary.open_spans:
        lines.append(f"warning: {summary.open_spans} span(s) never ended")
    if summary.compile_events:
        lines.append("")
        lines.append("compile fast path:")
        # One line per decision kind; fallbacks and bypasses break down
        # by reason so a sweep that silently lost its compiled replays is
        # visible at a glance.
        by_kind: Dict[str, int] = {}
        reasons: Dict[str, Dict[str, int]] = {}
        for event in summary.compile_events:
            kind = event["event"]
            by_kind[kind] = by_kind.get(kind, 0) + 1
            reason = (event.get("attrs") or {}).get("reason")
            if reason:
                bucket = reasons.setdefault(kind, {})
                bucket[reason] = bucket.get(reason, 0) + 1
        for kind in sorted(by_kind):
            line = f"  {kind}: {by_kind[kind]}"
            if kind in reasons:
                detail = ", ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(
                        reasons[kind].items(), key=lambda item: -item[1]
                    )
                )
                line += f"  ({detail})"
            lines.append(line)
    if summary.health_events:
        lines.append("")
        worst = "ok"
        for event in summary.health_events:
            if event["event"] == "critical":
                worst = "critical"
            elif event["event"] == "warn" and worst != "critical":
                worst = "warn"
        lines.append(
            f"health timeline ({len(summary.health_events)} transitions, "
            f"worst={worst}):"
        )
        for event in summary.health_events[:_TIMELINE_LIMIT]:
            attrs = event.get("attrs") or {}
            lines.append(
                f"  @{event['ts']:10.6f}s {event['event']:<8} "
                f"{attrs.get('series', '?')} ({attrs.get('rule', '?')}): "
                f"{attrs.get('value', 0):.4g} vs {attrs.get('threshold', 0):.4g}"
            )
        if len(summary.health_events) > _TIMELINE_LIMIT:
            rest = summary.health_events[_TIMELINE_LIMIT:]
            lines.append(f"  ... {len(rest)} more ({_attribution(rest)})")
    if summary.fault_events:
        lines.append("")
        lines.append(f"fault timeline ({len(summary.fault_events)} events):")
        # Scheduled campaign events first, then steady-state noise: the
        # timeline elides, and a drop storm must not crowd out the crash.
        ordered = sorted(
            summary.fault_events,
            key=lambda e: (e["event"] in _NOISE_EVENTS, e["ts"]),
        )
        for event in ordered[:_TIMELINE_LIMIT]:
            attrs = event.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(
                f"  @{event['ts']:10.6f}s {_fault_label(event)}"
                + (f"  {detail}" if detail else "")
            )
        if len(ordered) > _TIMELINE_LIMIT:
            rest = ordered[_TIMELINE_LIMIT:]
            lines.append(
                f"  ... {len(rest)} more ({_attribution(rest)})"
            )
    for kind in sorted(summary.latency):
        tally = summary.latency[kind]
        lines.append("")
        lines.append(
            f"== {kind} ==  n={tally.count}  "
            f"mean={tally.mean * 1e3:.3f}ms  "
            f"p50={tally.percentile(50) * 1e3:.3f}ms  "
            f"p95={tally.percentile(95) * 1e3:.3f}ms  "
            f"max={tally.maximum * 1e3:.3f}ms"
        )
        totals = summary.phase_totals.get(kind, {})
        grand = sum(totals.values())
        if grand > 0:
            decomposition = "  ".join(
                f"{phase}={seconds / grand * 100:.1f}%"
                for phase, seconds in sorted(
                    totals.items(), key=lambda item: -item[1]
                )
            )
            lines.append(f"  phases: {decomposition}")
        lines.extend(_histogram(tally.samples))
    slowest = sorted(
        summary.spans, key=lambda s: s["end"] - s["start"], reverse=True
    )[:top]
    if slowest:
        lines.append("")
        lines.append(f"slowest {len(slowest)} request(s):")
        for span in slowest:
            duration = (span["end"] - span["start"]) * 1e3
            phases = "  ".join(
                f"{phase}={seconds * 1e3:.3f}ms"
                for phase, seconds in sorted(
                    span["phases"].items(), key=lambda item: -item[1]
                )
            )
            page = "" if span["page_id"] is None else f" page={span['page_id']}"
            lines.append(
                f"  {span['kind']}#{span['id']}{page} "
                f"@{span['start']:.6f}s {duration:.3f}ms [{span['status']}]"
            )
            if phases:
                lines.append(f"      {phases}")
            overlapping = summary.faults_during(span["start"], span["end"])
            if overlapping:
                lines.append(
                    f"      faults during span: {_attribution(overlapping)}"
                )
    if summary.event_counts:
        lines.append("")
        lines.append("events:")
        for key in sorted(summary.event_counts):
            lines.append(f"  {key}: {summary.event_counts[key]}")
    return "\n".join(lines)
