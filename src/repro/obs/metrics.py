"""A registry unifying the simulator's ad-hoc measurement objects.

Components measure themselves with :class:`~repro.sim.monitor.Counter`,
:class:`~repro.sim.monitor.Tally` and
:class:`~repro.sim.monitor.UtilizationTracker` instances scattered
through the pager, policies, servers and network.  The registry gives
each one a dotted name in a component namespace (``pager.*``,
``server.<id>.*``, ``net.*``, ``policy.*``) and renders them all into a
single flat, JSON-safe snapshot that rides in
``CompletionReport.meta["metrics"]`` — so cached runner results and
parallel workers carry full telemetry, and :func:`merge_snapshots` can
reassemble exact suite-level statistics from per-run snapshots.

Telemetry instruments (:class:`~repro.obs.telemetry.LogHistogram`
latency histograms and :class:`~repro.obs.telemetry.TimeSeries` ring
buffers) snapshot the same way, behind ``*.__hist__`` / ``*.__series__``
markers: histograms merge exactly (bucket counts sum), while series are
per-run timelines — a merged suite keeps the first run's series, the
same first-value rule float gauges follow.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.obs.telemetry import LogHistogram, TimeSeries
from repro.sim.monitor import Counter, Tally, TimeWeighted, UtilizationTracker

__all__ = ["MetricsRegistry", "merge_snapshots"]


class MetricsRegistry:
    """Named, snapshot-able view over live measurement objects.

    ``attach`` existing instruments (they keep being updated by their
    owners; the registry only reads them at snapshot time) and
    ``gauge`` computed values.  Snapshots are flat ``{name: value}``
    dicts with deterministic key order; tallies expand into a
    ``name.{count,total,mean,m2,stddev,min,max}`` sub-tree so they can
    be rebuilt and merged exactly (see :func:`merge_snapshots`).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    def attach(self, name: str, instrument: Any) -> Any:
        """Register a live instrument under ``name``; returns it.

        Accepts ``Counter``, ``Tally``, ``LogHistogram``, ``TimeSeries``,
        ``UtilizationTracker``, ``TimeWeighted``, or any object with an
        ``as_dict()`` method.
        """
        if name in self._instruments or name in self._gauges:
            raise ValueError(f"metric name already registered: {name}")
        self._instruments[name] = instrument
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a computed metric, evaluated at snapshot time."""
        if name in self._instruments or name in self._gauges:
            raise ValueError(f"metric name already registered: {name}")
        self._gauges[name] = fn

    def names(self) -> List[str]:
        """Every registered metric name, sorted."""
        return sorted(list(self._instruments) + list(self._gauges))

    def snapshot(self) -> Dict[str, Any]:
        """Flat, JSON-safe, deterministically ordered view of everything."""
        flat: Dict[str, Any] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                for key, value in instrument.as_dict().items():
                    flat[f"{name}.{key}"] = value
            elif isinstance(instrument, Tally):
                for key, value in instrument.as_dict().items():
                    flat[f"{name}.{key}"] = value
                # Mark the sub-tree so merge_snapshots can find tallies.
                flat[f"{name}.__tally__"] = True
            elif isinstance(instrument, LogHistogram):
                for key, value in instrument.as_dict().items():
                    flat[f"{name}.{key}"] = value
                flat[f"{name}.__hist__"] = True
            elif isinstance(instrument, TimeSeries):
                for key, value in instrument.as_dict().items():
                    flat[f"{name}.{key}"] = value
                flat[f"{name}.__series__"] = True
            elif isinstance(instrument, (TimeWeighted, UtilizationTracker)):
                # Utilisations need "now"; owners register these as
                # gauges instead, but accept the raw object defensively.
                flat[name] = None
            elif hasattr(instrument, "as_dict"):
                for key, value in instrument.as_dict().items():
                    flat[f"{name}.{key}"] = value
            else:
                flat[name] = instrument
        for name, fn in self._gauges.items():
            flat[name] = fn()
        return {key: flat[key] for key in sorted(flat)}


_TALLY_FIELDS = ("count", "total", "mean", "m2", "stddev", "min", "max")
_HIST_FIELDS = ("count", "zeros", "growth", "buckets", "p50", "p95", "p99", "p999")

#: Marker suffix -> instrument kind, for structured sub-trees in
#: snapshots.  Anything unmarked is a plain scalar (counter key, float
#: gauge, or string).
_MARKERS: Tuple[Tuple[str, str], ...] = (
    (".__tally__", "tally"),
    (".__hist__", "histogram"),
    (".__series__", "series"),
)

_SERIES_FIELDS = ("capacity", "dropped", "times", "values")

#: The structured sub-keys each instrument kind owns in a snapshot — a
#: plain value under one of these keys in an unmarked snapshot collides
#: with the structured merge and must fail loudly.
_KIND_FIELDS = {
    "tally": _TALLY_FIELDS,
    "histogram": _HIST_FIELDS,
    "series": _SERIES_FIELDS,
}


def _marked_prefixes(snapshot: Dict[str, Any]) -> Dict[str, str]:
    """Map structured-instrument prefix -> kind for one snapshot."""
    kinds: Dict[str, str] = {}
    for key in snapshot:
        for marker, kind in _MARKERS:
            if key.endswith(marker):
                prefix = key[: -len(marker)]
                if prefix in kinds:
                    raise ValueError(
                        f"snapshot marks {prefix!r} as both "
                        f"{kinds[prefix]} and {kind}"
                    )
                kinds[prefix] = kind
    return kinds


def _check_kinds(snapshots: List[Dict[str, Any]]) -> Dict[str, str]:
    """Instrument kinds across all snapshots; fail loudly on conflict.

    Two workers disagreeing on what lives under a dotted name (a tally
    here, a histogram or plain counter there) means their runs were not
    measuring the same thing — silently merging would corrupt the
    suite-level statistics, so this raises instead.
    """
    kinds: Dict[str, str] = {}
    for index, snapshot in enumerate(snapshots):
        for prefix, kind in _marked_prefixes(snapshot).items():
            seen = kinds.get(prefix)
            if seen is not None and seen != kind:
                raise ValueError(
                    f"instrument type conflict for {prefix!r}: "
                    f"{seen} in one snapshot, {kind} in snapshot {index}"
                )
            kinds[prefix] = kind
    for index, snapshot in enumerate(snapshots):
        marked = _marked_prefixes(snapshot)
        for prefix, kind in kinds.items():
            if prefix in marked:
                continue
            clashing = [
                key
                for key in [prefix]
                + [f"{prefix}.{field}" for field in _KIND_FIELDS[kind]]
                if key in snapshot
            ]
            if clashing:
                raise ValueError(
                    f"instrument type conflict for {prefix!r}: "
                    f"{kind} in one snapshot, plain value(s) "
                    f"{clashing} in snapshot {index}"
                )
    return kinds


def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-run metric snapshots into suite-level statistics.

    Integer metrics (counters) sum; ``*.__tally__`` sub-trees are
    rebuilt as :class:`~repro.sim.monitor.Tally` objects and folded
    together with :meth:`Tally.merge` (Chan's parallel Welford), so the
    merged mean and variance are exactly what one combined stream would
    have produced.  ``*.__hist__`` sub-trees are rebuilt as
    :class:`~repro.obs.telemetry.LogHistogram` objects and merged by
    summing bucket counts (percentiles recomputed from the merged
    buckets).  ``*.__series__`` timelines keep the first run's samples
    (per-run timelines do not concatenate meaningfully across seeds).
    Float gauges (utilisations and other instantaneous readings, which
    do not sum meaningfully across runs) and non-numeric values keep
    the first run's value.

    Raises :class:`ValueError` when two snapshots disagree on the
    instrument type under the same dotted name — a silent drop here
    would corrupt suite statistics.
    """
    if not snapshots:
        return {}
    kinds = _check_kinds(snapshots)
    merged: Dict[str, Any] = {}
    tallies: Dict[str, Tally] = {}
    hists: Dict[str, LogHistogram] = {}
    structured_keys: set = set()
    for snapshot in snapshots:
        for prefix, kind in _marked_prefixes(snapshot).items():
            if kind == "tally":
                payload = {
                    field: snapshot.get(f"{prefix}.{field}") for field in _TALLY_FIELDS
                }
                tally = tallies.get(prefix)
                if tally is None:
                    tallies[prefix] = Tally.from_dict(payload)
                else:
                    tally.merge(Tally.from_dict(payload))
                structured_keys.update(f"{prefix}.{field}" for field in _TALLY_FIELDS)
                structured_keys.add(f"{prefix}.__tally__")
            elif kind == "histogram":
                payload = {
                    "count": snapshot.get(f"{prefix}.count", 0),
                    "zeros": snapshot.get(f"{prefix}.zeros", 0),
                    "growth": snapshot.get(f"{prefix}.growth"),
                    "buckets": snapshot.get(f"{prefix}.buckets") or {},
                }
                hist = hists.get(prefix)
                if hist is None:
                    hists[prefix] = LogHistogram.from_dict(payload)
                else:
                    hist.merge(LogHistogram.from_dict(payload))
                structured_keys.update(
                    f"{prefix}.{field}" for field in _HIST_FIELDS
                )
                structured_keys.add(f"{prefix}.__hist__")
            else:  # series: first run's timeline wins, like float gauges
                for field in _SERIES_FIELDS:
                    key = f"{prefix}.{field}"
                    structured_keys.add(key)
                    if key in snapshot and key not in merged:
                        merged[key] = snapshot[key]
                structured_keys.add(f"{prefix}.__series__")
                merged[f"{prefix}.__series__"] = True
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key in structured_keys:
                continue
            if key not in merged:
                merged[key] = value
            elif (
                isinstance(value, int)
                and not isinstance(value, bool)
                and isinstance(merged[key], int)
                and not isinstance(merged[key], bool)
            ):
                merged[key] = merged[key] + value
    for prefix, tally in tallies.items():
        for field, value in tally.as_dict().items():
            merged[f"{prefix}.{field}"] = value
        merged[f"{prefix}.__tally__"] = True
    for prefix, hist in hists.items():
        for field, value in hist.as_dict().items():
            merged[f"{prefix}.{field}"] = value
        merged[f"{prefix}.__hist__"] = True
    return {key: merged[key] for key in sorted(merged)}
