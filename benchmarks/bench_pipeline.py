"""PR 4 pipelined-datapath benchmark: same-run A/B measurements.

Two measurements, one JSON summary (``BENCH_pr4.json``):

* **content fast path A/B** — the content-mode hot loop (regenerate a
  page payload, compare it to its expected bytes, checksum it) with the
  :mod:`repro.vm.page` memo caches ON vs OFF.  The caches return shared
  immutable objects, so the equality compare short-circuits on identity
  and the CRC is computed once per version; acceptance requires >= 1.3x.
* **pipeline A/B** — the fig2 GAUSS/parity-logging cell synchronous
  (window 1, literally the paper's datapath) vs pipelined (window 8):
  wall-clock, plus the modeled paging cost (measured protocol CPU +
  modeled wire time) whose delta is the experiment's headline.

Run as a script for the JSON record, ``--check`` to enforce the PR 4
acceptance thresholds (CI's bench-regression job does both)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --out BENCH_pr4.json --check

or under pytest for a threshold-free smoke check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: PR 4 acceptance threshold, enforced by ``--check``.
CONTENT_SPEEDUP_FLOOR = 1.3


# --------------------------------------------------------------------------
# Content fast path A/B.
# --------------------------------------------------------------------------

def _content_hot_loop(
    page_size: int, pages: int, passes: int, touches: int
) -> float:
    """Seconds for the content-mode hot loop.

    One (page, version) payload is materialised several times per
    transfer in a real run — pageout generation + checksum, the server's
    store, the pagein verify against expected bytes, the parity fold,
    the end-of-run integrity replay — so each pair here is touched
    ``touches`` times: regenerate, compare against expected, checksum.
    """
    from repro.vm.page import page_bytes, page_checksum

    start = perf_counter()
    for version in range(1, passes + 1):
        for page_id in range(pages):
            for _ in range(touches):
                contents = page_bytes(page_id, version, page_size)
                expected = page_bytes(page_id, version, page_size)
                assert contents == expected
                page_checksum(contents)
    return perf_counter() - start


def measure_content_ab(
    page_size: int = 8192, pages: int = 400, passes: int = 12,
    touches: int = 3, repeats: int = 3,
) -> dict:
    from repro.vm.page import set_fastpath

    accesses = pages * passes * touches
    previous = set_fastpath(True)
    try:
        fast = min(
            _content_hot_loop(page_size, pages, passes, touches)
            for _ in range(repeats)
        )
        set_fastpath(False)
        slow = min(
            _content_hot_loop(page_size, pages, passes, touches)
            for _ in range(repeats)
        )
    finally:
        set_fastpath(previous)
    return {
        "page_size": page_size,
        "touches_per_version": touches,
        "accesses": accesses,
        "fast_seconds": round(fast, 4),
        "slow_seconds": round(slow, 4),
        "speedup": round(slow / fast, 2),
    }


# --------------------------------------------------------------------------
# Pipelined vs frozen synchronous datapath.
# --------------------------------------------------------------------------

def _run_cell(window: int) -> dict:
    from repro.experiments.pipelining import modeled_paging_cost
    from repro.runner import ExperimentRunner, RunSpec

    overrides = {"pipeline_window": window} if window > 1 else {}
    spec = RunSpec.make(
        "gauss", "parity-logging", overrides=overrides,
        label=f"bench/window={window}",
    )
    runner = ExperimentRunner(jobs=1, use_cache=False)
    start = perf_counter()
    result = runner.run([spec])[0]
    wall = perf_counter() - start
    report = result.report
    cost = modeled_paging_cost(report)
    return {
        "window": window,
        "wall_seconds": round(wall, 3),
        "etime": round(report.etime, 4),
        "ptime": round(report.ptime, 4),
        "pptime": round(cost["pptime"], 4),
        "btime": round(cost["btime"], 4),
        "paging_cost": round(cost["paging_cost"], 4),
    }


def measure_pipeline_ab(window: int = 8) -> dict:
    sync = _run_cell(1)
    pipelined = _run_cell(window)
    return {
        "app": "gauss",
        "policy": "parity-logging",
        "sync": sync,
        "pipelined": pipelined,
        # The headline: how much modeled paging time the window bought.
        "modeled_ptime_delta": round(sync["ptime"] - pipelined["ptime"], 4),
        "paging_cost_delta": round(
            sync["paging_cost"] - pipelined["paging_cost"], 4
        ),
    }


# --------------------------------------------------------------------------
# Assembly + threshold check.
# --------------------------------------------------------------------------

def run_benchmarks(
    repeats: int = 3, window: int = 8, content_passes: int = 12,
) -> dict:
    return {
        "content_ab": measure_content_ab(passes=content_passes, repeats=repeats),
        "pipeline_ab": measure_pipeline_ab(window=window),
    }


def check(summary: dict) -> list:
    """The PR 4 acceptance thresholds; returns a list of failures."""
    failures = []
    content = summary["content_ab"]
    if content["speedup"] < CONTENT_SPEEDUP_FLOOR:
        failures.append(
            f"content fast path {content['speedup']:.2f}x < "
            f"{CONTENT_SPEEDUP_FLOOR}x floor"
        )
    ab = summary["pipeline_ab"]
    if ab["paging_cost_delta"] <= 0:
        failures.append(
            "pipelined window did not reduce the modeled paging cost "
            f"(delta {ab['paging_cost_delta']})"
        )
    return failures


# --------------------------------------------------------------------------
# pytest smoke checks (tiny sizes; correctness thresholds only).
# --------------------------------------------------------------------------

def test_content_fastpath_speedup(benchmark, once):
    results = once(benchmark, measure_content_ab, passes=6, repeats=3)
    print("\n" + json.dumps(results, indent=2))
    assert results["speedup"] >= CONTENT_SPEEDUP_FLOOR


def test_pipeline_ab_reduces_paging_cost(benchmark, once):
    results = once(benchmark, measure_pipeline_ab, window=8)
    print("\n" + json.dumps(results, indent=2))
    assert results["paging_cost_delta"] > 0
    assert results["pipelined"]["pptime"] < results["sync"]["pptime"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats (default 3)")
    parser.add_argument("--window", type=int, default=8,
                        help="pipelined window for the A/B (default 8)")
    parser.add_argument("--content-passes", type=int, default=12,
                        help="verify-loop passes in the content A/B")
    parser.add_argument("--check", action="store_true",
                        help="enforce the PR 4 acceptance thresholds")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="write JSON here ('-' = stdout)")
    args = parser.parse_args(argv)

    summary = run_benchmarks(
        repeats=args.repeats, window=args.window,
        content_passes=args.content_passes,
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
        print("all PR 4 benchmark thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
