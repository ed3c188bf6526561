"""Merge per-PR benchmark records into one performance trajectory.

Each optimisation PR commits a ``BENCH_pr*.json`` record.  This tool
folds them — and any freshly
regenerated copies — into a single ``BENCH_TRAJECTORY.json`` artifact
and, with ``--check``, fails if a gated metric fell more than
``TOLERANCE`` below the best value ever recorded.

Why the gate is ratio-only
--------------------------
CI runners vary far too much for absolute timings to be thresholds: the
same commit can post 2x different events/sec on two consecutive shared
runners.  Every gated metric is therefore a *dimensionless same-run
ratio* — two measurements taken back-to-back inside one process on one
host, divided::

    content_ab.speedup      content fast path on vs off, same run
    codec_ab.speedup        numpy GF(256) codec vs the per-byte
                            pure-Python reference
    fleet_ab.speedup        analytic + compiled fleet vs the identical
                            event-driven interpreted fleet

Host drift hits both sides of each ratio alike, so "dropped >10% vs
best recorded" means the *code* got slower, not the machine.  Absolute
rates (``events_per_sec.*``) ride along in the artifact as history but
are never enforced.

Best-ever is tracked per ``(record, metric)``, not per metric alone:
different records measure different code lineages, so a regenerated
record is gated against the best *that record* ever posted.

Some recorded ratios are retired (``RETIRED``): the tier or harness
that measured them was deleted, so the committed history keeps them
but nothing can post them again, and they are never enforced.

Usage::

    python benchmarks/trajectory.py --out benchmarks/BENCH_TRAJECTORY.json
    python benchmarks/trajectory.py --check            # gate, CI style
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Relative drop from the best recorded value that fails the gate.
TOLERANCE = 0.10

#: Metric paths whose tier or harness was deleted, and why they stay in
#: history.
RETIRED = {
    "paper_sweep.speedup": "tier deleted: effect capsules",
    "paper_sweep.cold_speedup": "tier deleted: effect capsules",
    "kernel.relay_path.speedup": (
        "frozen seed/PR-1 kernel copies deleted; perfbench gates "
        "end-to-end time instead"
    ),
    "kernel.timeout_chain.speedup": (
        "frozen seed/PR-1 kernel copies deleted; perfbench gates "
        "end-to-end time instead"
    ),
    "fig2_suite.speedup": (
        "harness deleted with the kernel benchmark; it measured parallel "
        "scaling, which tracks runner core count"
    ),
    "compile_ab.speedup": (
        "harness deleted: a warm on-disk schedule-cache sweep, and that "
        "cache was deleted"
    ),
    "compile_ab.cold_speedup": (
        "harness deleted with compile_ab; it included one-off compile cost"
    ),
    "paper_scale_ab.speedup": (
        "harness deleted with compile_ab; it was documented as "
        "unthresholded (wire simulation dominates the cell)"
    ),
}

#: Files folded into the trajectory, in PR order.
RECORD_GLOBS = ("BENCH_pr*.json",)


def _flatten(record, prefix=""):
    """Yield ``(dotted.path, value)`` for every numeric leaf."""
    for key in sorted(record):
        value = record[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flatten(value, f"{path}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, float(value)


def extract_ratios(record):
    """The dimensionless ratio metrics of one benchmark record."""
    return {
        path: value
        for path, value in _flatten(record)
        if path.rsplit(".", 1)[-1] in ("speedup", "cold_speedup")
    }


def collect(bench_dir):
    """Load every benchmark record under ``bench_dir``, in PR order."""
    records = {}
    for pattern in RECORD_GLOBS:
        for path in sorted(glob.glob(os.path.join(bench_dir, pattern))):
            name = os.path.basename(path)
            if name == "BENCH_TRAJECTORY.json":
                continue
            with open(path) as handle:
                records[name] = json.load(handle)
    return records


def build_trajectory(records, baseline=None):
    """Fold ``records`` (name -> record dict) into a trajectory.

    ``baseline`` is a previously written trajectory whose history is
    carried forward, so best-ever survives regeneration on a machine
    that never saw the old records.
    """
    history = dict((baseline or {}).get("history") or {})
    for name, record in records.items():
        history[name] = extract_ratios(record)
    # Best-ever per (record, metric): seed from the baseline's best so a
    # regenerated record cannot erase a high-water mark, then fold in
    # the merged history.
    best = {
        name: dict(metrics)
        for name, metrics in ((baseline or {}).get("best") or {}).items()
    }
    for name in sorted(history):
        marks = best.setdefault(name, {})
        for path, value in history[name].items():
            if path not in marks or value > marks[path]:
                marks[path] = value
    return {
        "schema": 1,
        "tolerance": TOLERANCE,
        "retired": dict(RETIRED),
        "history": history,
        "best": best,
    }


def check(trajectory, records):
    """Gate ``records`` against the trajectory's best-ever values.

    Returns a list of failure strings (empty = pass).  A record that
    *sets* a new best can never fail itself: fold it into the
    trajectory first, then gate.
    """
    failures = []
    best = trajectory["best"]
    for name in sorted(records):
        marks = best.get(name) or {}
        for path, value in extract_ratios(records[name]).items():
            if path in RETIRED or path not in marks:
                continue
            floor = marks[path] * (1.0 - TOLERANCE)
            if value < floor:
                failures.append(
                    f"{name}: {path} = {value:.4g} is more than "
                    f"{TOLERANCE:.0%} below best recorded "
                    f"{marks[path]:.4g} (floor {floor:.4g})"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        default=os.path.dirname(os.path.abspath(__file__)),
        help="directory holding BENCH_pr*.json records",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "prior BENCH_TRAJECTORY.json to carry history forward from "
            "(default: <bench-dir>/BENCH_TRAJECTORY.json if present)"
        ),
    )
    parser.add_argument(
        "--out", default=None, help="write the merged trajectory here"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any gated ratio dropped >10%% vs best recorded",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or os.path.join(
        args.bench_dir, "BENCH_TRAJECTORY.json"
    )
    baseline = None
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)

    records = collect(args.bench_dir)
    if not records:
        print(f"no benchmark records under {args.bench_dir}", file=sys.stderr)
        return 2

    trajectory = build_trajectory(records, baseline=baseline)
    for name in sorted(trajectory["best"]):
        for path in sorted(trajectory["best"][name]):
            tag = "[retired]" if path in RETIRED else "[gated]"
            value = trajectory["best"][name][path]
            print(f"{tag:<10}{name:<22} {path:<28} best {value:>8.4g}")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(trajectory, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = check(trajectory, records)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"trajectory gate passed ({len(records)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
