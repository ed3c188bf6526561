"""The parallel experiment runner.

Every figure in the paper is a matrix of independent, deterministic
simulation runs, so regenerating the evaluation is embarrassingly
parallel.  :meth:`ExperimentRunner.run` does three things, once each:
probe the content-addressed result cache (see :mod:`repro.runner.cache`)
for every spec, run the misses — inline, or over a
``ProcessPoolExecutor`` opened for this call and drained with
``pool.map`` — and store the fresh results.  Results come back *in spec
order*, so completion order never leaks into output and ``--jobs 4``
produces byte-identical tables to ``--jobs 1``.  A pool forked per call
sees the registries as they stand at that call, exactly as inline
execution does.

The module also owns the process-wide default runner the CLI
configures (``--jobs`` / ``--no-cache`` / ``--cache-dir``); library
callers that pass no explicit runner get a serial, uncached one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from ..log import get_logger
from ..vm.machine import CompletionReport
from .cache import ResultCache
from .execute import execute_spec
from .spec import RunResult, RunSpec

log = get_logger(__name__)

__all__ = [
    "ExperimentRunner",
    "configure_default_runner",
    "default_runner",
]


class ExperimentRunner:
    """Execute :class:`RunSpec`s, in parallel when asked, cached when told.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every spec inline in
        this process; ``N > 1`` fans out over a process pool.  ``0`` or
        ``None`` means "all cores" (``os.cpu_count()``).
    use_cache:
        Enable the on-disk result cache.  Off by default for library use
        so tests and notebooks stay hermetic; the CLI turns it on.
    cache_dir:
        Cache location; defaults to ``$REPRO_CACHE_DIR`` or the XDG
        cache home (``~/.cache/repro``).
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        use_cache: bool = False,
        cache_dir=None,
    ):
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Run every spec; results ordered by spec, not by completion."""
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[int] = []
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is None:
                pending.append(index)
                continue
            log.debug("cache hit: %s", spec.label or spec.workload)
            report, extras = cached
            results[index] = RunResult(
                spec=spec, report=report, extras=extras, cached=True
            )

        todo = [specs[index] for index in pending]
        if self.jobs > 1 and len(todo) > 1:
            workers = min(self.jobs, len(todo))
            log.info(
                "running %d spec(s) over %d worker process(es)", len(todo), workers
            )
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(execute_spec, todo))
        else:
            log.debug("running %d spec(s) inline", len(todo))
            fresh = [execute_spec(spec) for spec in todo]

        for index, result in zip(pending, fresh):
            results[index] = result
            if self.cache is not None:
                self.cache.put(result.spec, result.report, result.extras)
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> RunResult:
        """Run a single spec (cache-aware, always inline)."""
        return self.run([spec])[0]

    # ----------------------------------------------------------- conveniences
    def run_matrix(
        self,
        workloads: Iterable[str],
        policies: Iterable[str],
        **common,
    ) -> Dict[str, Dict[str, CompletionReport]]:
        """Run a workloads × policies matrix; returns nested reports.

        ``common`` keywords are forwarded to every :meth:`RunSpec.make`
        call (``overrides``, ``seed``, ``hook``, …).
        """
        workloads = list(workloads)
        policies = list(policies)
        specs = [
            RunSpec.make(workload, policy, label=f"{workload}/{policy}", **common)
            for workload in workloads
            for policy in policies
        ]
        results = self.run(specs)
        reports: Dict[str, Dict[str, CompletionReport]] = {}
        flat = iter(results)
        for workload in workloads:
            reports[workload] = {}
            for policy in policies:
                reports[workload][policy] = next(flat).report
        return reports


# --------------------------------------------------------------------------
# Process-wide default runner (configured by the CLI, serial otherwise).
# --------------------------------------------------------------------------

_default: Optional[ExperimentRunner] = None


def configure_default_runner(
    jobs: Optional[int] = 1,
    use_cache: bool = False,
    cache_dir=None,
) -> ExperimentRunner:
    """Install the runner that experiment modules use by default."""
    global _default
    _default = ExperimentRunner(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir)
    return _default


def default_runner() -> ExperimentRunner:
    """The configured default runner, or a serial uncached one."""
    if _default is not None:
        return _default
    return ExperimentRunner()
