"""Worker-side execution of a :class:`RunSpec`.

:func:`execute_spec` is the function the process pool maps over specs:
it rebuilds the cluster, applies the spec's hook, runs the workload,
stamps provenance metadata on the report, and applies the spec's
extractors.  The runner also calls it inline when ``jobs == 1``
(or one spec is pending), so serial and parallel execution share one
code path by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .registry import make_hook, make_workload, run_extractors
from .spec import RunResult, RunSpec

__all__ = [
    "execute_spec",
    "resolve_build_kwargs",
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


def _build_meta(
    policy: str,
    seed: int,
    overrides: Dict[str, Any],
    workload_name: str,
) -> Dict[str, Any]:
    """Provenance dict :func:`execute_spec` stamps on every
    CompletionReport, so serial, parallel and cached runs carry the
    same one."""
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
    state: Optional[Any] = None
    if spec.hook is not None:
        state = make_hook(spec.hook, dict(spec.hook_kwargs))(cluster)
    workload = make_workload(spec.workload, dict(spec.workload_kwargs))
    report = cluster.run(workload)
    health = report.meta.get("health")
    report.meta = _build_meta(
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

