"""Figure 2: six applications under four paging configurations.

The paper's headline figure: completion time of MVEC, GAUSS, QSORT, FFT,
FILTER, and CC under NO RELIABILITY (2 servers), PARITY LOGGING (4+1,
10% overflow), MIRRORING (1+1), and DISK.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..analysis.paper_data import FIG2_SECONDS
from ..analysis.report import comparison_table, shape_check
from ..workloads import Fft, Gauss, ImageFilter, KernelBuild, Mvec, Qsort
from .harness import merged_metrics, run_suite

__all__ = ["FIG2_POLICIES", "WORKLOAD_FACTORIES", "run_fig2", "render_fig2"]

FIG2_POLICIES = ["no-reliability", "parity-logging", "mirroring", "disk"]

#: Kept for direct construction; run_fig2 itself goes through the
#: runner registry (the keys double as registry names) so the matrix
#: parallelises and caches.
WORKLOAD_FACTORIES = {
    "mvec": Mvec,
    "gauss": Gauss,
    "qsort": Qsort,
    "fft": Fft,
    "filter": ImageFilter,
    "cc": KernelBuild,
}


def run_fig2(
    apps: Optional[Iterable[str]] = None,
    policies: Optional[Iterable[str]] = None,
    runner=None,
) -> Dict[str, Dict[str, object]]:
    """Run the Figure 2 matrix; returns reports keyed [app][policy]."""
    apps = list(apps) if apps else list(WORKLOAD_FACTORIES)
    policies = list(policies) if policies else list(FIG2_POLICIES)
    for name in apps:
        if name not in WORKLOAD_FACTORIES:
            raise KeyError(name)
    return run_suite(apps, policies, runner=runner)


def render_fig2(reports: Dict[str, Dict[str, object]]) -> str:
    """Measured-vs-paper table plus per-app shape checks."""
    measured = {
        app: {policy: report.etime for policy, report in by_policy.items()}
        for app, by_policy in reports.items()
    }
    policies = list(next(iter(reports.values())).keys())
    table = comparison_table(
        measured,
        FIG2_SECONDS,
        policies,
        title="Figure 2: application completion time (seconds)",
    )
    lines = [table, ""]
    for app, by_policy in measured.items():
        check = shape_check(by_policy, FIG2_SECONDS.get(app, {}))
        lines.append(
            f"{app}: ranking {'matches' if check['order_matches'] else 'DIFFERS'} "
            f"(ours {' < '.join(check['measured_order'])}); "
            f"max relative-gap error {check['max_relative_gap_error']:.0%}"
        )
    all_reports = [
        report for by_policy in reports.values() for report in by_policy.values()
    ]
    merged = merged_metrics(all_reports)
    if merged:
        latency = merged.get("net.message_latency.mean")
        latency_note = (
            f", mean message latency {latency * 1e3:.2f} ms" if latency else ""
        )
        lines.append("")
        lines.append(
            f"suite totals ({len(all_reports)} runs): "
            f"{merged.get('pager.pageouts', 0)} pageouts, "
            f"{merged.get('pager.pageins', 0)} pageins, "
            f"{merged.get('net.protocol.page_transfers', 0)} page transfers"
            f"{latency_note}"
        )
    return "\n".join(lines)
