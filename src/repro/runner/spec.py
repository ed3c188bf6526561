"""Picklable descriptions of individual experiment runs.

A :class:`RunSpec` is the unit of work the parallel runner ships to a
worker process: everything needed to rebuild a cluster and replay one
workload, expressed as plain data (registry names and sorted key/value
tuples) so it pickles cheaply and fingerprints canonically.  The few
experiment ingredients that are not plain data — workload constructors,
cluster hooks, post-run metric extraction — are referenced *by name*
and resolved against :mod:`repro.runner.registry` inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..vm.machine import CompletionReport

__all__ = ["RunSpec", "RunResult"]


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalise a kwargs mapping into a sorted, hashable tuple."""
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class RunSpec:
    """One cell of an experiment matrix, as plain picklable data.

    Fields referencing behaviour do so by registry name:

    * ``workload`` — key in :data:`repro.runner.registry.WORKLOADS`;
      ``workload_kwargs`` are passed to the factory (``size_mb`` routes
      through ``from_megabytes`` for workloads that support it).
    * ``policy`` — a :data:`repro.experiments.harness.PAPER_CONFIGS`
      name (or any :func:`build_cluster` policy).
    * ``overrides`` — extra :func:`build_cluster` keyword arguments; a
      string ``replacement`` is resolved via ``make_replacement``.
    * ``hook`` / ``hook_kwargs`` — a registered cluster hook, applied
      between assembly and the workload run.
    * ``extract`` — registered extractors producing the run's ``extras``
      dict from the finished cluster (network stats, server CPU, …).

    ``label`` is display-only and never contributes to the cache
    fingerprint.
    """

    workload: str
    policy: str
    workload_kwargs: Tuple[Tuple[str, Any], ...] = ()
    overrides: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    hook: Optional[str] = None
    hook_kwargs: Tuple[Tuple[str, Any], ...] = ()
    extract: Tuple[str, ...] = ()
    label: Optional[str] = field(default=None, compare=False)

    @classmethod
    def make(
        cls,
        workload: str,
        policy: str,
        *,
        workload_kwargs: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        hook: Optional[str] = None,
        hook_kwargs: Optional[Mapping[str, Any]] = None,
        extract: Tuple[str, ...] = (),
        label: Optional[str] = None,
    ) -> "RunSpec":
        """Build a spec from plain dicts (sorted into canonical tuples)."""
        return cls(
            workload=workload,
            policy=policy,
            workload_kwargs=_freeze(workload_kwargs),
            overrides=_freeze(overrides),
            seed=seed,
            hook=hook,
            hook_kwargs=_freeze(hook_kwargs),
            extract=tuple(extract),
            label=label,
        )

    def identity(self) -> str:
        """Canonical identity string (the cache fingerprint's raw input).

        Deterministic across processes: built only from reprs of plain
        values and frozen dataclasses, never from object ids.
        """
        return repr(
            (
                self.workload,
                self.policy,
                self.workload_kwargs,
                self.overrides,
                self.seed,
                self.hook,
                self.hook_kwargs,
                self.extract,
            )
        )

    def describe(self) -> Dict[str, Any]:
        """Human-readable dict (stored alongside cached results)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "workload_kwargs": dict(self.workload_kwargs),
            "overrides": {k: repr(v) for k, v in self.overrides},
            "seed": self.seed,
            "hook": self.hook,
            "hook_kwargs": dict(self.hook_kwargs),
            "extract": list(self.extract),
        }


@dataclass
class RunResult:
    """A completed run: the report plus any extractor output.

    ``cached`` records whether the result came from the on-disk cache;
    it is excluded from equality so a cache hit compares equal to the
    cold run that produced it.
    """

    spec: RunSpec
    report: CompletionReport
    extras: Dict[str, Any] = field(default_factory=dict)
    cached: bool = field(default=False, compare=False)
