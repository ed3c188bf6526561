"""Ablations of the reproduction's own design choices.

DESIGN.md calls out three modelling decisions that shape the results;
each gets an ablation so their effect is measured, not asserted:

* **replacement policy** — exact LRU (our default, OSF/1-like) vs Clock
  vs FIFO.  Clock's ring order interacts pathologically with
  alternating-direction sweeps (it evicts exactly what the reverse pass
  needs next), inflating fault counts far beyond the paper's measured
  values — the reason LRU is the experiment default.
* **pageout window** — asynchronous write-back depth.  Window 1
  (synchronous pageouts) serialises every dirty eviction into the fault
  path; deeper windows overlap write-back with compute and let disk
  writes batch.
* **free batch** — how many frames the paging daemon reclaims per
  shortfall.  Batch 1 defeats disk write clustering (every sequential
  write misses its rotational window); batched eviction restores
  streaming, which is what makes the DISK baseline as fast as the paper
  measured.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.report import format_table
from ..runner import RunSpec, default_runner

__all__ = [
    "run_replacement_ablation",
    "run_pageout_window_ablation",
    "run_free_batch_ablation",
    "render_ablation",
]


def run_replacement_ablation(
    policies=("lru", "clock", "fifo"), workload: str = "gauss", runner=None
) -> Dict[str, Dict[str, float]]:
    """Run GAUSS under each replacement policy."""
    policies = list(policies)
    specs = [
        RunSpec.make(
            workload,
            "no-reliability",
            overrides={"replacement": name},
            label=f"{workload}/replacement={name}",
        )
        for name in policies
    ]
    results: Dict[str, Dict[str, float]] = {}
    for name, result in zip(policies, (runner or default_runner()).run(specs)):
        results[name] = {
            "etime": result.report.etime,
            "pageins": result.report.pageins,
            "pageouts": result.report.pageouts,
        }
    return results


def run_pageout_window_ablation(
    windows=(1, 4, 16), workload: str = "gauss", policy: str = "no-reliability",
    runner=None,
) -> Dict[int, Dict[str, float]]:
    """Sweep the asynchronous write-back window."""
    windows = list(windows)
    specs = [
        RunSpec.make(
            workload,
            policy,
            overrides={"pageout_window": window},
            label=f"{workload}/window={window}",
        )
        for window in windows
    ]
    results: Dict[int, Dict[str, float]] = {}
    for window, result in zip(windows, (runner or default_runner()).run(specs)):
        results[window] = {
            "etime": result.report.etime,
            "pageouts": result.report.pageouts,
        }
    return results


def run_free_batch_ablation(
    batches=(1, 4, 16), workload: str = "gauss", policy: str = "disk", runner=None
) -> Dict[int, Dict[str, float]]:
    """Sweep the paging daemon reclaim batch size."""
    batches = list(batches)
    specs = [
        RunSpec.make(
            workload,
            policy,
            overrides={"free_batch": batch},
            label=f"{workload}/batch={batch}",
        )
        for batch in batches
    ]
    results: Dict[int, Dict[str, float]] = {}
    for batch, result in zip(batches, (runner or default_runner()).run(specs)):
        results[batch] = {
            "etime": result.report.etime,
            "pageouts": result.report.pageouts,
        }
    return results


def render_ablation(results: Dict, title: str, key_label: str) -> str:
    """Generic one-key ablation table."""
    sample = next(iter(results.values()))
    metrics = list(sample)
    rows = []
    for key in results:
        row = [key] + [
            f"{results[key][m]:.1f}" if isinstance(results[key][m], float) else results[key][m]
            for m in metrics
        ]
        rows.append(row)
    return format_table([key_label] + metrics, rows, title=title)
