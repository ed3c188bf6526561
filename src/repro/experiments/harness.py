"""Shared experiment harness: the paper's standard configurations.

§4.1 defines the four configurations of Figure 2 (and §4.7 adds the
write-through comparison of Figure 5):

* NO RELIABILITY — two remote memory servers;
* PARITY LOGGING — four servers plus a parity server, 10% overflow;
* MIRRORING — one primary + one mirror server;
* DISK — the local DEC RZ55, no pager involvement;
* WRITE THROUGH — remote memory as a write-through cache of the disk.

Execution routes through :mod:`repro.runner` only: a workload and a
cluster hook are named by their registry strings, so every cell becomes
a picklable :class:`~repro.runner.RunSpec` that parallelises over
worker processes, hits the on-disk result cache, and is built, run and
stamped by the one :func:`~repro.runner.execute.execute_spec`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..runner import default_runner
from ..vm.machine import CompletionReport

__all__ = ["PAPER_CONFIGS", "run_policy", "run_suite", "merged_metrics"]

#: build_cluster keyword arguments for each of the paper's configurations.
PAPER_CONFIGS: Dict[str, dict] = {
    "no-reliability": dict(policy="no-reliability", n_servers=2),
    "parity-logging": dict(policy="parity-logging", n_servers=4, overflow_fraction=0.10),
    "mirroring": dict(policy="mirroring", n_servers=2),
    "disk": dict(policy="disk"),
    "write-through": dict(policy="write-through", n_servers=2),
}


def run_policy(
    workload: str,
    policy: str,
    cluster_hook: Optional[str] = None,
    runner=None,
    **overrides,
) -> CompletionReport:
    """Run one registered workload (``"gauss"``) under one paper
    configuration.

    ``cluster_hook`` names a hook registered with
    :func:`repro.runner.registry.register_hook`; it runs after assembly
    and before the workload starts — experiments use hooks to attach
    background load, crash injectors, etc.
    """
    reports = run_suite([workload], [policy], cluster_hook, runner, **overrides)
    return reports[workload][policy]


def run_suite(
    workloads: Iterable[str],
    policies: Iterable[str],
    cluster_hook: Optional[str] = None,
    runner=None,
    **overrides,
) -> Dict[str, Dict[str, CompletionReport]]:
    """Run a matrix of registered workloads x policies; returns nested
    reports keyed by workload name, then policy.

    The whole matrix is handed to the experiment runner in one batch —
    cells run in parallel under ``--jobs N`` and cached cells are
    skipped.  Results are assembled in matrix order, so the output is
    independent of completion order.
    """
    return (runner or default_runner()).run_matrix(
        workloads, policies, overrides=overrides, hook=cluster_hook
    )


def merged_metrics(reports) -> Dict[str, object]:
    """Combine per-run ``meta["metrics"]`` snapshots into suite totals.

    Counters sum and tallies fold via :meth:`Tally.merge` (Chan's
    parallel Welford), so reassembled multi-run statistics are exactly
    what a single combined stream would have produced — regardless of
    whether the runs came from the cache, worker processes, or inline.
    """
    from ..obs.metrics import merge_snapshots

    return merge_snapshots(
        [r.meta["metrics"] for r in reports if "metrics" in r.meta]
    )
