"""Trace-compiler benchmark: compiled replay vs interpreted A/B.

Three PR 5 measurements, one JSON summary (``BENCH_pr5.json``):

* **compile A/B** — a reference-dense paging workload (hot set sized to
  memory, long cold tail: every reference walks the MMU/replacement hot
  loop but only cold misses fault) swept across three reliability
  policies.  The schedule cache is warmed by the first cell — the
  remaining cells replay the *same* cached schedule, so the sweep is
  O(faults) instead of O(references).  Acceptance requires >= 3x
  end-to-end (warm sweep vs the identical sweep with ``--no-compile``
  semantics, i.e. ``compile_schedules=False``).
* **paper-scale A/B** — the fig2 GAUSS/parity-logging cell compiled vs
  interpreted, reported but *unthresholded*: at paper scale the wire
  simulation dominates wall-clock, so the per-reference savings are
  real but small — the honest number belongs in the record, not behind
  a gate.
* **kernel guard** — the events/sec microbenchmark from
  :mod:`bench_kernel` against the in-tree frozen seed and PR-1 kernels
  on the same machine in the same run; the < 3% regression budget
  guards the simulator core the replay path leans on.

Run as a script for the JSON record, ``--check`` to enforce the
acceptance thresholds (CI's bench-regression job does both)::

    PYTHONPATH=src python benchmarks/bench_compile.py --out BENCH_pr5.json --check

or under pytest for a smaller-sized smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_kernel import measure_kernels  # noqa: E402

#: PR 5 acceptance thresholds, enforced by ``--check``.
COMPILE_SPEEDUP_FLOOR = 3.0
KERNEL_REGRESSION_BUDGET = 0.03

#: The multi-policy sweep.  The schedule key is reliability-blind (the
#: policy changes how faults are *serviced*, never which references
#: fault), so all three cells share one cached schedule.
SWEEP_POLICIES = ("no-reliability", "mirroring", "parity-logging")


# --------------------------------------------------------------------------
# Compile A/B: reference-dense sweep, warm schedule cache.
# --------------------------------------------------------------------------

def _bench_spec():
    from repro.config import MachineSpec

    # 2 MB RAM / 1 MB kernel / 8 KB pages -> 128 user frames.
    return MachineSpec(
        name="bench-compile",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


def _bench_workload(n_refs: int):
    from repro.workloads import HotCold

    # Hot set just under the 128 user frames; the 0.05% cold tail misses
    # almost every time, so the run faults steadily (hundreds of faults)
    # while the vast majority of references exercise only the
    # per-reference hot loop the compiler eliminates.
    return HotCold(
        hot_pages=120, cold_pages=4096, n_refs=n_refs,
        hot_fraction=0.9995, cpu_per_page=1e-4, seed=42,
    )


def _run_sweep(n_refs: int, compile_on: bool) -> dict:
    from repro.core.builder import build_cluster

    spec = _bench_spec()
    reports = {}
    start = perf_counter()
    for policy in SWEEP_POLICIES:
        cluster = build_cluster(
            policy=policy, n_servers=2, seed=9, machine_spec=spec,
            compile_schedules=compile_on,
        )
        reports[policy] = cluster.run(_bench_workload(n_refs))
    wall = perf_counter() - start
    return {"wall_seconds": wall, "reports": reports}


def measure_compile_ab(n_refs: int = 400_000, repeats: int = 3) -> dict:
    """Warm-cache compiled sweep vs the identical interpreted sweep."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="bench-compile-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            # Cold: first-ever sweep pays one compilation, then two
            # cache hits.  Warm: every cell replays the cached schedule.
            cold = _run_sweep(n_refs, compile_on=True)
            warm_wall = min(
                _run_sweep(n_refs, compile_on=True)["wall_seconds"]
                for _ in range(repeats)
            )
            interpreted = min(
                _run_sweep(n_refs, compile_on=False)["wall_seconds"]
                for _ in range(repeats)
            )
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous

    reports = cold["reports"]
    sample = reports[SWEEP_POLICIES[0]]
    return {
        "workload": "hot-cold",
        "n_refs": n_refs,
        "faults": {name: r.faults for name, r in reports.items()},
        "etime": {name: round(r.etime, 4) for name, r in reports.items()},
        "sample_pageins": sample.pageins,
        "policies": list(SWEEP_POLICIES),
        "cold_seconds": round(cold["wall_seconds"], 4),
        "warm_seconds": round(warm_wall, 4),
        "interpreted_seconds": round(interpreted, 4),
        "cold_speedup": round(interpreted / cold["wall_seconds"], 2),
        "speedup": round(interpreted / warm_wall, 2),
    }


# --------------------------------------------------------------------------
# Paper-scale secondary: fig2 GAUSS cell, compiled vs interpreted.
# --------------------------------------------------------------------------

def _run_gauss(compile_on: bool) -> dict:
    from repro.core.builder import build_cluster
    from repro.workloads import Gauss

    cluster = build_cluster(
        policy="parity-logging", n_servers=4, overflow_fraction=0.10,
        compile_schedules=compile_on,
    )
    start = perf_counter()
    report = cluster.run(Gauss())
    wall = perf_counter() - start
    return {"wall_seconds": wall, "etime": report.etime, "faults": report.faults}


def measure_paper_scale_ab(repeats: int = 3) -> dict:
    previous = os.environ.get("REPRO_SCHEDULE_CACHE")
    os.environ["REPRO_SCHEDULE_CACHE"] = "0"  # measure compile + replay honestly
    try:
        compiled = min(
            _run_gauss(True)["wall_seconds"] for _ in range(repeats)
        )
        interp_run = _run_gauss(False)
        interpreted = min(
            [interp_run["wall_seconds"]]
            + [_run_gauss(False)["wall_seconds"] for _ in range(repeats - 1)]
        )
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCHEDULE_CACHE", None)
        else:
            os.environ["REPRO_SCHEDULE_CACHE"] = previous
    return {
        "app": "gauss",
        "policy": "parity-logging",
        "etime": round(interp_run["etime"], 4),
        "faults": interp_run["faults"],
        "compiled_seconds": round(compiled, 4),
        "interpreted_seconds": round(interpreted, 4),
        # Unthresholded: the wire simulation dominates this cell, so the
        # per-reference savings show up as a modest wall-clock trim.
        "speedup": round(interpreted / compiled, 2),
    }


# --------------------------------------------------------------------------
# Assembly + threshold check.
# --------------------------------------------------------------------------

def run_benchmarks(
    n_events: int = 200_000, repeats: int = 3, n_refs: int = 400_000,
) -> dict:
    return {
        "kernel": measure_kernels(n_events, repeats),
        "compile_ab": measure_compile_ab(n_refs=n_refs, repeats=repeats),
        "paper_scale_ab": measure_paper_scale_ab(repeats=repeats),
    }


def check(summary: dict) -> list:
    """The PR 5 acceptance thresholds; returns a list of failures."""
    failures = []
    ab = summary["compile_ab"]
    if ab["speedup"] < COMPILE_SPEEDUP_FLOOR:
        failures.append(
            f"compiled sweep {ab['speedup']:.2f}x < "
            f"{COMPILE_SPEEDUP_FLOOR}x floor"
        )
    for path_name, path in summary["kernel"].items():
        overhead = path["tracer_overhead_vs_pr1"]
        if overhead >= KERNEL_REGRESSION_BUDGET:
            failures.append(
                f"kernel {path_name}: {overhead:.2%} slower than the frozen "
                f"PR-1 kernel (budget {KERNEL_REGRESSION_BUDGET:.0%})"
            )
    if summary["paper_scale_ab"]["speedup"] < 1.0:
        failures.append(
            "paper-scale compiled run slower than interpreted "
            f"({summary['paper_scale_ab']['speedup']}x)"
        )
    return failures


# --------------------------------------------------------------------------
# pytest smoke checks (smaller stream; the speedup floor still holds).
# --------------------------------------------------------------------------

def test_compiled_sweep_speedup(benchmark, once):
    results = once(benchmark, measure_compile_ab, n_refs=150_000, repeats=2)
    print("\n" + json.dumps(results, indent=2))
    assert results["speedup"] >= COMPILE_SPEEDUP_FLOOR
    assert all(f > 0 for f in results["faults"].values())


def test_paper_scale_not_slower(benchmark, once):
    results = once(benchmark, measure_paper_scale_ab, repeats=2)
    print("\n" + json.dumps(results, indent=2))
    assert results["speedup"] >= 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000,
                        help="kernel microbenchmark chain length")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats (default 3)")
    parser.add_argument("--refs", type=int, default=400_000,
                        help="reference-stream length for the compile A/B")
    parser.add_argument("--check", action="store_true",
                        help="enforce the acceptance thresholds")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="write JSON here ('-' = stdout)")
    args = parser.parse_args(argv)

    summary = run_benchmarks(
        n_events=args.events, repeats=args.repeats, n_refs=args.refs,
    )
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = check(summary)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all PR 5 benchmark thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
