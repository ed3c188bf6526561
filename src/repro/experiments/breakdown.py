"""§4.3's worked example: the FFT-24MB time decomposition.

The paper dissects one run — FFT with 24 MB of input under parity
logging (4 servers + parity) — into utime/systime/inittime/pptime/btime,
counts its transfers (2718 pageouts, 2055 pageins, 5452 page transfers),
and predicts an 83.459 s completion on a 10x network with paging overhead
under 17%.  This experiment reproduces the whole derivation.

The paper *models* pptime (transfers x 1.6 ms of protocol CPU) and
derives btime as the remainder; it never measures either directly.
:func:`run_observed_breakdown` does what the authors could not: it
re-runs the same cell with the tracer attached and *measures* each cost
term from per-request span phases — ``*.protocol`` segments are pptime,
``*.wire`` segments are btime, and the machine's fault/drain spans
partition ptime exactly.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.extrapolate import all_memory_bound, decompose
from ..analysis.paper_data import FFT_24MB_BREAKDOWN
from ..analysis.report import format_table
from ..runner import ExperimentRunner, RunSpec, default_runner

__all__ = [
    "run_breakdown",
    "render_breakdown",
    "run_observed_breakdown",
    "render_observed_breakdown",
]


def run_breakdown(
    size_mb: float = 24.0, bandwidth_factor: float = 10.0, runner=None
) -> Dict[str, object]:
    """Run the FFT and derive the paper's full §4.3 decomposition."""
    spec = RunSpec.make(
        "fft", "parity-logging", workload_kwargs={"size_mb": size_mb}
    )
    report = (runner or default_runner()).run_one(spec).report
    decomposition = decompose(report)
    predicted = decomposition.predicted_etime(bandwidth_factor)
    cpu_floor = (
        decomposition.utime + decomposition.systime + decomposition.inittime
    )
    return {
        "report": report,
        "decomposition": decomposition,
        "predicted_etime_10x": predicted,
        "overhead_fraction_10x": 1.0 - cpu_floor / predicted,
        "all_memory": all_memory_bound(decomposition),
    }


def render_breakdown(results: Dict[str, object]) -> str:
    """Measured-vs-paper table for the §4.3 worked example."""
    d = results["decomposition"]
    r = results["report"]
    paper = FFT_24MB_BREAKDOWN
    rows = [
        ["etime (s)", f"{d.etime:.2f}", f"{paper['etime']:.2f}"],
        ["utime (s)", f"{d.utime:.2f}", f"{paper['utime']:.2f}"],
        ["systime (s)", f"{d.systime:.2f}", f"{paper['systime']:.2f}"],
        ["inittime (s)", f"{d.inittime:.2f}", f"{paper['inittime']:.2f}"],
        ["ptime (s)", f"{d.ptime:.2f}", f"{paper['ptime']:.2f}"],
        ["pageouts", r.pageouts, paper["pageouts"]],
        ["pageins", r.pageins, paper["pageins"]],
        ["page transfers", r.page_transfers, paper["page_transfers"]],
        ["pptime (s)", f"{d.pptime:.2f}", f"{paper['page_transfers'] * paper['pptime_per_page']:.2f}"],
        [
            "predicted etime @10x (s)",
            f"{results['predicted_etime_10x']:.2f}",
            f"{paper['predicted_etime_10x']:.2f}",
        ],
        [
            "paging overhead @10x",
            f"{results['overhead_fraction_10x']:.1%}",
            f"{paper['predicted_overhead_fraction_10x']:.1%}",
        ],
    ]
    return format_table(
        ["quantity", "ours", "paper"],
        rows,
        title="§4.3 breakdown: FFT 24 MB under parity logging",
    )


def run_observed_breakdown(size_mb: float = 24.0) -> Dict[str, object]:
    """Trace one FFT/parity-logging run and *measure* the §4.3 terms.

    Runs through a serial, uncached :class:`ExperimentRunner` (a tracer
    cannot cross worker processes or ride the result cache) with a
    tracer installed, then aggregates span phases:

    * observed pptime — every ``*.protocol`` segment: CPU the client
      spends running the protocol stack, the term the paper models as
      transfers x 1.6 ms;
    * observed btime — every ``*.wire`` segment: time requests spend on
      the network, the term the paper derives as ``ptime - pptime``;
    * observed ptime — the machine's fault + drain spans, which
      partition the workload's paging stall time exactly.

    Reuses a process-wide tracer (the ``--trace`` flag) when one is
    installed so this run's spans also land in the trace file;
    otherwise installs a private one for the duration of the run.
    """
    from ..obs.trace import Tracer, current_tracer, install_tracer, uninstall_tracer

    installed = current_tracer()
    tracer = installed if installed is not None else install_tracer(Tracer())
    first_span = len(tracer.spans)
    tracer.begin_run(f"breakdown-observed/fft-{size_mb:g}mb")
    spec = RunSpec.make(
        "fft", "parity-logging", workload_kwargs={"size_mb": size_mb}
    )
    try:
        report = ExperimentRunner().run_one(spec).report
    finally:
        if installed is None:
            uninstall_tracer()

    phase_totals: Dict[str, float] = {}
    machine_ptime = 0.0
    request_time = 0.0
    n_requests = 0
    for span in tracer.spans[first_span:]:
        if span.component == "machine":
            # Fault-service + drain spans: the wall-clock stalls that
            # define ptime.  Request phases go in the other bucket.
            machine_ptime += span.duration
            continue
        n_requests += 1
        request_time += span.duration
        for name, seconds in span.phases.items():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    observed_pptime = sum(
        v for k, v in phase_totals.items() if k.endswith(".protocol")
    )
    observed_btime = sum(v for k, v in phase_totals.items() if k.endswith(".wire"))
    return {
        "report": report,
        "decomposition": decompose(report),
        "phase_totals": phase_totals,
        "observed_pptime": observed_pptime,
        "observed_btime": observed_btime,
        "machine_ptime": machine_ptime,
        "request_time": request_time,
        "n_requests": n_requests,
    }


def render_observed_breakdown(results: Dict[str, object]) -> str:
    """Observed (traced) vs §4.3-model cost terms, side by side."""
    d = results["decomposition"]
    r = results["report"]
    phase_totals = dict(results["phase_totals"])
    rows = [
        ["ptime (s)", f"{results['machine_ptime']:.3f}", f"{d.ptime:.3f}",
         "machine fault+drain spans | etime - utime - systime - inittime"],
        ["pptime (s)", f"{results['observed_pptime']:.3f}", f"{d.pptime:.3f}",
         "sum of *.protocol span phases | transfers x 1.6 ms"],
        ["btime (s)", f"{results['observed_btime']:.3f}", f"{d.btime:.3f}",
         "sum of *.wire span phases | ptime - pptime"],
        ["page transfers", r.page_transfers, d.page_transfers, "traced run"],
    ]
    table = format_table(
        ["cost term", "observed", "§4.3 model", "measured | modelled as"],
        rows,
        title="Observed vs modelled §4.3 cost terms (traced run)",
    )
    lines = [table, ""]
    lines.append(
        f"request-time decomposition over {results['n_requests']} spans "
        f"({results['request_time']:.3f} s total):"
    )
    total = results["request_time"] or 1.0
    for name in sorted(phase_totals, key=phase_totals.get, reverse=True):
        seconds = phase_totals[name]
        lines.append(f"  {name:<20} {seconds:10.3f} s  {seconds / total:6.1%}")
    lines.append("")
    lines.append(
        "note: pageouts are asynchronous, so summed per-request wire time can\n"
        "exceed the wall-clock btime the model derives; machine stall spans\n"
        "(fault + drain) partition ptime exactly."
    )
    return "\n".join(lines)
