"""Worker-side execution of a :class:`RunSpec`.

:func:`execute_spec` is the function the process pool ships specs to:
it rebuilds the cluster, applies hooks and machine attributes, runs the
workload, stamps provenance metadata on the report, and applies the
spec's extractors.  It is also the serial fast path — the runner calls
it inline when ``jobs == 1``, so serial and parallel execution share
one code path by construction.

:func:`execute_chunk` wraps it for batched submission: the runner ships
a handful of chunks per campaign instead of one pool task per spec, so
a 500-cell matrix pays a few pickle/dispatch round-trips rather than
500.  :func:`prime_shared_tables` warms the read-only codec tables —
called in the parent before the pool forks, the tables land in
copy-on-write pages every worker shares; it doubles as the pool
initializer so spawn-based platforms build them once per worker
instead of once per spec.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .registry import make_hook, make_workload, run_extractors
from .spec import RunResult, RunSpec

__all__ = [
    "execute_spec",
    "execute_chunk",
    "prime_shared_tables",
    "resolve_build_kwargs",
    "build_meta",
]

#: Values stored verbatim in report.meta; everything else is repr()d.
_PLAIN_TYPES = (int, float, str, bool, type(None))


def resolve_build_kwargs(spec: RunSpec) -> Dict[str, Any]:
    """Resolve a spec into :func:`build_cluster` keyword arguments.

    Starts from the paper configuration for the spec's policy (when one
    exists), layers the overrides, and resolves registry-name stand-ins
    (a string ``replacement``) into objects.
    """
    from ..experiments.harness import PAPER_CONFIGS

    kwargs = dict(PAPER_CONFIGS.get(spec.policy, {"policy": spec.policy}))
    overrides = dict(spec.overrides)
    replacement = overrides.get("replacement")
    if isinstance(replacement, str):
        from ..vm.replacement import make_replacement

        overrides["replacement"] = make_replacement(replacement)
    kwargs.update(overrides)
    kwargs.setdefault("seed", spec.seed)
    return kwargs


def build_meta(
    policy: str,
    seed: int,
    overrides: Dict[str, Any],
    workload_name: str,
) -> Dict[str, Any]:
    """Provenance dict stamped on every CompletionReport.

    Stamped by :func:`execute_spec` — the one path serial, parallel and
    cached runs share — and by the traced §4.3 breakdown run, which must
    stay inline because a tracer cannot cross worker processes.
    """
    return {
        "workload": workload_name,
        "policy": policy,
        "seed": seed,
        "overrides": {
            key: value if isinstance(value, _PLAIN_TYPES) else repr(value)
            for key, value in sorted(overrides.items())
        },
    }


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion (the process-pool entry point)."""
    from ..core.builder import build_cluster

    kwargs = resolve_build_kwargs(spec)
    cluster = build_cluster(**kwargs)
    for name, value in spec.machine_attrs:
        if not hasattr(cluster.machine, name):
            raise AttributeError(f"machine has no attribute {name!r}")
        setattr(cluster.machine, name, value)
    state: Optional[Any] = None
    if spec.hook is not None:
        state = make_hook(spec.hook, dict(spec.hook_kwargs))(cluster)
    workload = make_workload(spec.workload, dict(spec.workload_kwargs))
    report = cluster.run(workload)
    health = report.meta.get("health")
    report.meta = build_meta(
        spec.policy, kwargs.get("seed", 0), dict(spec.overrides), workload.name
    )
    # Full cluster telemetry rides with the report, so cached results and
    # parallel workers hand back the same observability payload.
    report.meta["metrics"] = cluster.metrics.snapshot()
    if health is not None:
        # Cluster.run stamped the health digest before meta was rebuilt;
        # it must survive the process pool and the result cache too.
        report.meta["health"] = health
    extras = run_extractors(spec.extract, cluster, report, state)
    return RunResult(spec=spec, report=report, extras=extras)


def execute_chunk(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Run a batch of specs in order (the chunked pool entry point)."""
    return [execute_spec(spec) for spec in specs]


def prime_shared_tables() -> None:
    """Build the read-only codec tables ahead of worker fan-out.

    Safe to call repeatedly; each table is built at most once per
    process.
    """
    from ..core.policies.gf256 import prime_tables

    prime_tables()
