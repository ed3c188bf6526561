"""End-to-end, layer-attributed benchmark of the remote memory pager.

Run from the repository root::

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats full passes of the workload for about ``--seconds``
seconds (a count fixed per workload) with every cache and tracer off,
and reports the end-to-end metrics: a pass's time is the sum of each of
its units' fastest time over the passes, set-up a median.  ``--trace 1`` makes one cProfile pass
and one span pass instead, and reports the per-layer metrics.  Either
way every simulated output is checked: at the default seed against the
digests in ``reference.json``, at any seed against seed-independent
invariants and against the run's other passes.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

the line before it is the run's record: host context, pass times, and
the findings that are reported but not gated.  See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

from cases import CASES, DEFAULT_SEED  # noqa: E402
from layers import LAYERS, Spans, profile_layers  # noqa: E402

#: Fresh interpreters timed for the import share of ``setup_s``, and
#: repetitions of the workload's cluster builds.
SETUP_REPEATS = 5

#: Passes a measuring run makes at least, whatever ``--seconds`` says, so
#: that every unit has a fastest time to choose from.
MIN_PASSES = 2

#: What set-up imports: every module the three workloads drive, then
#: the one-time GF(256) table priming.
SETUP_CODE = (
    "import repro.compile, repro.experiments.fig2, repro.experiments.fleet, "
    "repro.experiments.resilience, repro.runner\n"
    "from repro.core.policies.gf256 import prime_tables\n"
    "prime_tables()\n"
)

#: A trace pass must cover at least this share of the profiled wall
#: time with layer self time, and may not exceed it.
COVERAGE_RANGE = (0.8, 1.02)


def _environment() -> dict:
    """Child environment: the package on the path, schedule cache off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SCHEDULE_CACHE"] = "0"
    return env


def import_and_prime() -> None:
    exec(SETUP_CODE, {})


def timed_fresh_import() -> float:
    """Seconds a fresh interpreter spends in :data:`SETUP_CODE`."""
    code = (
        "from time import perf_counter\n"
        "start = perf_counter()\n"
        + SETUP_CODE
        + "print(perf_counter() - start)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=_environment(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def host_context() -> dict:
    """Where the record was made: a fixed pure-Python calibration loop
    (best of three), the usable cores and the interpreter versions."""
    import numpy

    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return {
        "calibration_s": best,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def load_reference(workload: str, seed: int):
    """Accepted digests per run label for this workload, or None off the
    default seed.  ``reference.json`` holds the reference engine's digest
    for each run; where the fast tiers are known to differ, the value is
    the list ``[reference engine, fast tiers]`` (see README.md)."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as handle:
        table = json.load(handle).get(workload, {})
    return {
        label: {value} if isinstance(value, str) else set(value)
        for label, value in table.items()
    }


def write_reference(case_cls) -> None:
    """Store the default-seed digests of both engines in reference.json."""
    import_and_prime()
    reference = case_cls(DEFAULT_SEED, fast=False).run().cells
    fast = case_cls(DEFAULT_SEED, fast=True).run().cells
    entry = {}
    for label, value in reference.items():
        if fast.get(label) == value:
            entry[label] = value
        else:
            entry[label] = [value, fast.get(label)]
            print(f"{case_cls.name} {label}: fast tiers differ from the "
                  "reference engine", file=sys.stderr)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[case_cls.name] = entry
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


class Verifier:
    """Counts runs attempted and failed over a run's passes.

    A run fails when it breaks an invariant, when its digest disagrees
    with the committed reference (default seed only), or when it
    disagrees with the same run in the first pass.  A pass that raises
    fails every run it would have made.
    """

    def __init__(self, reference, n_runs: int):
        self.reference = reference
        self.n_runs = n_runs
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, fn):
        """Call ``fn`` (one pass); returns its Outcome or None."""
        try:
            outcome = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.n_runs
            self.failed += self.n_runs
            self.problems.append("pass raised")
            return None
        bad = dict(outcome.broken)
        for label, value in outcome.cells.items():
            if self.reference is not None and value not in self.reference.get(label, ()):
                bad.setdefault(label, "digest differs from reference")
            if self.first is not None and self.first.cells.get(label) != value:
                bad.setdefault(label, "digest differs between passes")
        if self.first is None:
            self.first = outcome
        self.attempted += len(outcome.cells)
        self.failed += len(bad)
        self.problems.extend(f"{label}: {why}" for label, why in sorted(bad.items()))
        return outcome


def pass_count(case_cls, seconds: float) -> int:
    """Passes that fill about ``seconds`` on the reference host.  The
    count is fixed by the workload and ``--seconds``, not by how fast the
    passes run, so a slow host or a faster program does not change how
    many samples each unit's fastest time is chosen from."""
    return max(MIN_PASSES, round(seconds / case_cls.pass_s))


def pass_seconds(unit_times: list) -> float:
    """Host seconds of one pass on a quiet host: the sum over the pass's
    units (one run, one table, one fleet phase) of each unit's fastest
    time over the passes.  The host is shared, and other tenants only
    ever slow a unit down, so a unit's fastest time is its least
    disturbed one; taking it per unit drops a burst that hit one run of
    one pass without throwing away the rest of that pass."""
    return sum(
        min(units[name] for units in unit_times) for name in unit_times[0]
    )


def measure(case, verifier: Verifier, seconds: float) -> tuple:
    """End-to-end metrics: set-up, then passes for about ``seconds``."""
    builds = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        case.build_all()
        builds.append(perf_counter() - start)
    imports = [timed_fresh_import() for _ in range(SETUP_REPEATS)]

    walls, unit_times = [], []
    for _ in range(pass_count(type(case), seconds)):
        # Each pass starts from a collected heap, not the last one's garbage.
        gc.collect()
        start = perf_counter()
        outcome = verifier.run(case.run)
        walls.append(perf_counter() - start)
        if outcome is not None:
            unit_times.append(outcome.unit_s)
        if len(walls) == 1:
            # The high-water mark of set-up plus one pass: later passes
            # add whatever the package's module-level caches retain.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wall = pass_seconds(unit_times) if unit_times else median(walls)
    pages = verifier.first.pages if verifier.first is not None else 0
    metrics = {
        "wall_s": (wall, "s"),
        "pages_per_s": (pages / wall, "1/s"),
        "setup_s": (median(imports) + median(builds), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    record = {
        "pass_walls_s": walls,
        "pass_unit_sums_s": [sum(units.values()) for units in unit_times],
        "setup_import_s": imports,
        "setup_build_s": builds,
        "final_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, record


def trace(case_cls, seed: int) -> tuple:
    """Per-layer metrics: a cProfile pass (started before the package is
    imported, so import time counts toward each module's layer), then a
    span pass over the same workload."""
    profiler = cProfile.Profile()
    began = perf_counter()
    profiler.enable()
    import_and_prime()
    case = case_cls(seed)
    verifier = Verifier(load_reference(case.name, seed), len(case.labels))
    start = perf_counter()
    verifier.run(case.run)
    ended = perf_counter()
    profiler.disable()
    profiled_wall, profiled_total = ended - start, ended - began
    self_s, calls, profile_counts = profile_layers(profiler)
    del profiler

    with Spans() as spans:
        start = perf_counter()
        verifier.run(lambda: spans.call("runner.run", case.run))
        span_wall = perf_counter() - start
    counts = verifier.first.counts if verifier.first is not None else {}

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    sim_run = spans.totals["sim.run"]
    metrics.update({
        "sim.events": (spans.events, "count"),
        "sim.events_per_s": (spans.events / sim_run if sim_run else 0.0, "1/s"),
        "sim.run_s": (sim_run, "s"),
        "compile.plan_s": (spans.totals["compile.plan"], "s"),
        "compile.compiled_share": (
            spans.compiled / spans.planned if spans.planned else 0.0, "ratio"
        ),
        "core.build_s": (spans.totals["core.build"], "s"),
        "runner.dispatch_s": (spans.self_s["runner.run"], "s"),
        "runner.render_s": (spans.totals["runner.render"], "s"),
    })
    for name, value in profile_counts.items():
        metrics[name] = (value, "count")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    coverage = sum(self_s.values()) / profiled_total
    metrics["trace.overhead"] = (profiled_wall / span_wall, "ratio")
    metrics["trace.self_coverage"] = (coverage, "ratio")
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        verifier.problems.append(f"layer self time covers {coverage:.3f} of the trace")
    record = {
        "profiled_wall_s": profiled_wall,
        "profiled_total_s": profiled_total,
        "span_wall_s": span_wall,
    }
    return metrics, record, verifier


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store this workload's default-seed digests from both engines "
        "in reference.json",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ["REPRO_SCHEDULE_CACHE"] = "0"
    sys.path.insert(0, str(SRC))
    case_cls = CASES[args.workload]

    if args.write_reference:
        write_reference(case_cls)
        return 0

    if args.trace:
        metrics, record, verifier = trace(case_cls, args.seed)
    else:
        import_and_prime()
        case = case_cls(args.seed)
        verifier = Verifier(load_reference(case.name, args.seed), len(case.labels))
        metrics, record = measure(case, verifier, args.seconds)

    attempted = max(verifier.attempted, 1)
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        failed_share=verifier.failed / attempted,
        problems=verifier.problems[:50],
        info=verifier.first.info if verifier.first is not None else {},
        host=host_context(),
    )
    print(json.dumps({"record": record}, default=repr))
    print(json.dumps({
        "correct": verifier.failed == 0 and not verifier.problems,
        "attempted": attempted,
        "failed": verifier.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        sys.exit(2)
