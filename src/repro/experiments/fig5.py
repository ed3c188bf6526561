"""Figure 5: parity logging vs write through (§4.7).

On the paper's testbed the disk and network offer equal bandwidth, so
write-through (remote copy + parallel disk copy) lands between
no-reliability and parity logging; on faster networks it becomes
disk-bound.  Four applications: MVEC, GAUSS, QSORT, FFT.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..analysis.paper_data import FIG5_SECONDS
from ..analysis.report import comparison_table, shape_check
from ..workloads import Fft, Gauss, Mvec, Qsort
from .harness import run_suite

__all__ = ["FIG5_POLICIES", "run_fig5", "render_fig5"]

FIG5_POLICIES = ["no-reliability", "write-through", "parity-logging"]

_FACTORIES = {"mvec": Mvec, "gauss": Gauss, "qsort": Qsort, "fft": Fft}


def run_fig5(
    apps: Optional[Iterable[str]] = None,
    policies: Optional[Iterable[str]] = None,
    runner=None,
) -> Dict[str, Dict[str, object]]:
    """Run the Figure 5 matrix; returns reports keyed [app][policy]."""
    apps = list(apps) if apps else list(_FACTORIES)
    policies = list(policies) if policies else list(FIG5_POLICIES)
    for name in apps:
        if name not in _FACTORIES:
            raise KeyError(name)
    return run_suite(apps, policies, runner=runner)


def render_fig5(reports: Dict[str, Dict[str, object]]) -> str:
    """Measured-vs-paper table for Figure 5."""
    measured = {
        app: {policy: report.etime for policy, report in by_policy.items()}
        for app, by_policy in reports.items()
    }
    policies = list(next(iter(reports.values())).keys())
    table = comparison_table(
        measured,
        FIG5_SECONDS,
        policies,
        title="Figure 5: write through vs parity logging (seconds)",
    )
    lines = [table, ""]
    for app, by_policy in measured.items():
        check = shape_check(by_policy, FIG5_SECONDS.get(app, {}))
        lines.append(
            f"{app}: ranking {'matches' if check['order_matches'] else 'DIFFERS'}"
        )
    return "\n".join(lines)
