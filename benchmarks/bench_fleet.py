"""Fleet-scale benchmark: 64-client campaigns, every fast path A/B'd.

Three PR 10 measurements, one JSON summary (``BENCH_pr10.json``):

* **fleet A/B** — 64 paging clients × 8 donor workstations on the
  switched fabric, each running a reference-dense paging workload (hot
  set sized to memory, long cold tail — the shape where per-reference
  interpretation and per-event port walks dominate, i.e. exactly what
  the analytic fabric and multi-machine compiled replay eliminate).
  Fast leg: analytic switched + compiled fleet replay.  Slow leg:
  event-driven per-port simulation, interpreted execution.  Acceptance
  requires >= 5x wall-clock and byte-identical per-client reports *and*
  cluster scoreboard metrics (throughput, fairness, makespan, wire
  utilization) across all four (analytic x compiled) axis combinations.
* **telemetry identity** — a 16-client campaign with the sampler on
  (which pins interpreted execution), analytic fabric on vs off: the
  scoreboard *including the pooled p50/p95/p99 pagein-latency
  histogram* must match byte-for-byte.
* **runner fan-out** — the campaign-runner overhead cuts measured
  directly: the same uncached spec batch through a fresh
  ``ExperimentRunner`` (pays pool fork + import) vs a warm one (reuses
  the persistent pool).  Recorded as ``reuse_ratio`` history, never
  gated — absolute pool spin-up cost tracks host load.

Run as a script for the JSON record, ``--check`` to enforce the
acceptance thresholds (CI's bench-regression job does both)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_pr10.json --check

or under pytest for a smaller-sized smoke check.
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

#: PR 10 acceptance threshold, enforced by ``--check``.
FLEET_SPEEDUP_FLOOR = 5.0

#: Paper-scale fleet shape.
N_CLIENTS = 64
N_DONORS = 8

#: Reference-dense per-client workload: the hot set fits the 128 user
#: frames, the cold tail faults steadily.
def _workload(n_refs: int) -> tuple:
    return (
        "hot-cold",
        {
            "hot_pages": 120, "cold_pages": 4096, "n_refs": n_refs,
            "hot_fraction": 0.9995, "cpu_per_page": 1e-4, "seed": 42,
        },
    )


def _machine_spec():
    from repro.config import MachineSpec

    # 2 MB RAM / 1 MB kernel / 8 KB pages -> 128 user frames per client.
    return MachineSpec(
        name="fleet-bench",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


def _leg(
    analytic: bool,
    compiled: bool,
    n_clients: int,
    n_refs: int,
    telemetry_interval: float = 0.0,
) -> dict:
    """One fleet campaign; returns wall time plus the full scoreboard."""
    from repro.experiments.fleet import run_fleet

    start = perf_counter()
    results = run_fleet(
        workload=_workload(n_refs),
        n_clients=n_clients,
        n_donors=N_DONORS,
        machine_spec=_machine_spec(),
        telemetry_interval=telemetry_interval,
        analytic=analytic,
        compile_schedules=compiled,
    )
    wall = perf_counter() - start
    return {"wall": wall, "results": results}


def _comparable(results: dict) -> dict:
    """A scoreboard with the execution-mode counter masked out."""
    return dict(results, compiled_clients=0)


def measure_fleet_ab(
    n_clients: int = N_CLIENTS, n_refs: int = 150_000, repeats: int = 3
) -> dict:
    """Analytic+compiled fleet vs event-driven interpreted, all axes."""
    fast_runs = [_leg(True, True, n_clients, n_refs) for _ in range(repeats)]
    slow_runs = [_leg(False, False, n_clients, n_refs) for _ in range(repeats)]
    # The two cross axes, once each (identity, not timing).
    analytic_only = _leg(True, False, n_clients, n_refs)
    compiled_only = _leg(False, True, n_clients, n_refs)

    slow = slow_runs[0]["results"]
    others = [run["results"] for run in fast_runs] + [
        analytic_only["results"], compiled_only["results"],
    ] + [run["results"] for run in slow_runs[1:]]
    identical_reports = all(r["clients"] == slow["clients"] for r in others)
    identical_metrics = all(
        _comparable(r) == _comparable(slow) for r in others
    )
    fast_wall = min(run["wall"] for run in fast_runs)
    slow_wall = min(run["wall"] for run in slow_runs)
    fast = fast_runs[0]["results"]
    return {
        "workload": "hot-cold",
        "n_clients": n_clients,
        "n_donors": N_DONORS,
        "n_refs": n_refs,
        "compiled_clients": fast["compiled_clients"],
        "pageins_per_client": fast["clients"][0]["pageins"],
        "cluster_throughput": round(slow["cluster_throughput"], 1),
        "jain_fairness": round(slow["jain_fairness"], 4),
        "makespan": round(slow["makespan"], 4),
        "fast_seconds": round(fast_wall, 4),
        "slow_seconds": round(slow_wall, 4),
        "identical_reports": identical_reports,
        "identical_metrics": identical_metrics,
        "speedup": round(slow_wall / fast_wall, 2),
    }


def measure_telemetry_identity(
    n_clients: int = 16, n_refs: int = 60_000
) -> dict:
    """Sampler on (pins interpreted), analytic fabric on vs off: the
    pooled latency histogram must not notice the fast path."""
    analytic = _leg(True, None, n_clients, n_refs, telemetry_interval=1.0)
    event = _leg(False, None, n_clients, n_refs, telemetry_interval=1.0)
    latency = analytic["results"].get("pagein_latency") or {}
    return {
        "n_clients": n_clients,
        "n_refs": n_refs,
        "compiled_clients": analytic["results"]["compiled_clients"],
        "pagein_samples": latency.get("count", 0),
        "p99_ms": latency.get("p99_ms"),
        "identical": analytic["results"] == event["results"],
    }


def measure_runner_fanout(jobs: int = 4, cells: int = 8) -> dict:
    """Fresh-pool vs warm-pool wall clock for one uncached spec batch.

    History only (host-load sensitive): the ratio shows what the
    persistent pool saves a campaign that calls ``run()`` per figure.
    """
    from repro.runner import ExperimentRunner, RunSpec

    specs = [
        RunSpec.make("mvec", "no-reliability", workload_kwargs={"n": 600 + i})
        for i in range(cells)
    ]
    fresh_runner = ExperimentRunner(jobs=jobs)
    start = perf_counter()
    fresh_runner.run(specs)
    fresh = perf_counter() - start
    # Same runner, same batch: the pool (and its imports) already exist.
    start = perf_counter()
    fresh_runner.run(specs)
    warm = perf_counter() - start
    fresh_runner.close()
    return {
        "jobs": jobs,
        "cells": cells,
        "fresh_seconds": round(fresh, 4),
        "warm_seconds": round(warm, 4),
        "reuse_ratio": round(fresh / warm, 2) if warm > 0 else None,
    }


# --------------------------------------------------------------------------
# Assembly + threshold check.
# --------------------------------------------------------------------------

def run_benchmarks(
    n_clients: int = N_CLIENTS, n_refs: int = 150_000, repeats: int = 3
) -> dict:
    return {
        "fleet_ab": measure_fleet_ab(
            n_clients=n_clients, n_refs=n_refs, repeats=repeats
        ),
        "telemetry_identity": measure_telemetry_identity(),
        "runner_fanout": measure_runner_fanout(),
    }


def check(summary: dict) -> list:
    """The PR 10 acceptance thresholds; returns a list of failures."""
    failures = []
    ab = summary["fleet_ab"]
    if ab["speedup"] < FLEET_SPEEDUP_FLOOR:
        failures.append(
            f"fleet A/B {ab['speedup']:.2f}x < {FLEET_SPEEDUP_FLOOR}x floor"
        )
    if not ab["identical_reports"]:
        failures.append("fleet per-client reports diverged across axes")
    if not ab["identical_metrics"]:
        failures.append("fleet scoreboard metrics diverged across axes")
    if ab["compiled_clients"] != ab["n_clients"]:
        failures.append(
            f"only {ab['compiled_clients']}/{ab['n_clients']} clients "
            "replayed compiled schedules"
        )
    telemetry = summary["telemetry_identity"]
    if not telemetry["identical"]:
        failures.append("telemetry scoreboard diverged across the analytic axis")
    if telemetry["pagein_samples"] <= 0:
        failures.append("telemetry leg collected no pagein latency samples")
    return failures


# --------------------------------------------------------------------------
# pytest smoke checks (smaller fleet; the speedup floor still holds).
# --------------------------------------------------------------------------

def test_fleet_ab_fast_and_identical(benchmark, once):
    results = once(
        benchmark, measure_fleet_ab, n_clients=16, n_refs=60_000, repeats=2
    )
    print("\n" + json.dumps(results, indent=2))
    assert results["identical_reports"]
    assert results["identical_metrics"]
    assert results["compiled_clients"] == 16
    assert results["speedup"] >= FLEET_SPEEDUP_FLOOR


def test_telemetry_scoreboard_identical(benchmark, once):
    results = once(
        benchmark, measure_telemetry_identity, n_clients=8, n_refs=40_000
    )
    print("\n" + json.dumps(results, indent=2))
    assert results["identical"]
    assert results["pagein_samples"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=N_CLIENTS,
                        help="fleet size for the A/B (default 64)")
    parser.add_argument("--refs", type=int, default=150_000,
                        help="per-client reference-stream length")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats (default 3)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the acceptance thresholds")
    parser.add_argument("--out", default="-", metavar="PATH",
                        help="write JSON here ('-' = stdout)")
    args = parser.parse_args(argv)

    summary = run_benchmarks(
        n_clients=args.clients, n_refs=args.refs, repeats=args.repeats
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
        print("all PR 10 benchmark thresholds met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
