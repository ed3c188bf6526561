"""Command-line interface: regenerate any paper figure from the shell.

::

    python -m repro fig2 --apps mvec gauss
    python -m repro fig4
    python -m repro breakdown --observed
    python -m repro fig2 --trace fig2.jsonl   # structured event/span trace
    python -m repro trace-summary fig2.jsonl
    python -m repro all          # everything (minutes of simulation)

Each subcommand runs the matching experiment module and prints its
measured-vs-paper table.  ``--trace PATH`` records every simulation
event and request span to ``PATH`` (JSONL) plus a Chrome trace-viewer
file next to it; ``trace-summary`` digests a recorded trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import experiments as exp
from .log import configure_logging, get_logger
from .runner import configure_default_runner

__all__ = ["main", "build_parser"]

log = get_logger(__name__)


def _client_count(text: str) -> int:
    """argparse type for ``--clients``: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _cmd_fig1(args) -> str:
    return exp.render_fig1(exp.run_fig1(seed=args.seed))


def _cmd_fig2(args) -> str:
    return exp.render_fig2(exp.run_fig2(apps=args.apps, policies=args.policies))


def _cmd_fig3(args) -> str:
    return exp.render_fig3(exp.run_fig3(sizes_mb=args.sizes))


def _cmd_fig4(args) -> str:
    return exp.render_fig4(
        exp.run_fig4(sizes_mb=args.sizes, simulate_fast_network=not args.no_simulate)
    )


def _cmd_fig5(args) -> str:
    return exp.render_fig5(exp.run_fig5(apps=args.apps))


def _cmd_breakdown(args) -> str:
    if getattr(args, "observed", False):
        return exp.render_observed_breakdown(
            exp.run_observed_breakdown(size_mb=args.size)
        )
    return exp.render_breakdown(exp.run_breakdown(size_mb=args.size))


def _cmd_trace_summary(args) -> str:
    from .obs.summary import load_trace, render_summary, summarize

    records = load_trace(args.trace_file, validate=not args.no_validate)
    return render_summary(summarize(records), top=args.top)


def _cmd_latency(args) -> str:
    return exp.render_latency(exp.run_latency(n_transfers=args.transfers))


def _cmd_busy(args) -> str:
    return exp.render_busy_servers(exp.run_busy_servers(apps=tuple(args.apps)))


def _cmd_loaded(args) -> str:
    return exp.render_loaded_ethernet(exp.run_loaded_ethernet(loads=args.loads))


def _cmd_scaling(args) -> str:
    return exp.render_server_scaling(exp.run_server_scaling(server_counts=args.servers))


def _cmd_netcmp(args) -> str:
    return exp.render_network_comparison(exp.run_network_comparison(loads=args.loads))


def _cmd_hetero(args) -> str:
    return exp.render_heterogeneous(exp.run_heterogeneous())


def _cmd_adaptive(args) -> str:
    return exp.render_adaptive(exp.run_adaptive(background_load=args.load))


def _cmd_remotedisk(args) -> str:
    return exp.render_remote_disk(exp.run_remote_disk())


def _cmd_multiclient(args) -> str:
    from .workloads import Fft, Gauss, ImageFilter, KernelBuild, Mvec, Qsort

    factories = {
        "mvec": Mvec, "gauss": Gauss, "qsort": Qsort,
        "fft": Fft, "filter": ImageFilter, "cc": KernelBuild,
    }
    # --clients N takes the workload list round-robin, N clients exactly.
    apps = args.apps
    chosen = [factories[apps[i % len(apps)]] for i in range(args.clients)]
    return exp.render_multi_client(
        exp.run_multi_client(
            workload_factories=tuple(chosen),
            n_donors=args.donors,
            network=args.network,
        )
    )


def _cmd_fleet(args) -> str:
    return exp.render_fleet(
        exp.run_fleet(
            workload=(args.workload, {}),
            n_clients=args.clients,
            n_donors=args.donors,
            capacity_per_client=args.capacity,
            seed=args.seed,
            network=args.network,
            telemetry_interval=args.telemetry_interval,
        )
    )


def _cmd_diurnal(args) -> str:
    return exp.render_diurnal(exp.run_diurnal())


def _cmd_compression(args) -> str:
    return exp.render_compression(exp.run_compression())


def _cmd_resilience(args) -> str:
    levels = ("light",) if args.quick else tuple(args.levels)
    return exp.render_resilience(
        exp.run_resilience(
            policies=tuple(args.policies),
            levels=levels,
            pipelined=args.pipelined,
            pipeline_window=args.window,
            pipeline_prefetch=args.prefetch,
        )
    )


def _cmd_spectrum(args) -> str:
    return exp.render_spectrum(
        exp.run_spectrum(
            policies=tuple(args.policies),
            paper_scale=getattr(args, "paper_scale", False),
        )
    )


def _cmd_pipelining(args) -> str:
    return exp.render_pipelining(
        exp.run_pipelining(
            windows=tuple(args.windows),
            app=args.app,
            policy=args.policy,
            prefetch_depth=args.prefetch,
        )
    )


def _cmd_monitor(args) -> str:
    import json

    if args.campaign:
        campaign = exp.run_monitor_campaign(
            loads=args.loads,
            workload=args.app,
            policy=args.policy,
            interval=args.interval,
            capacity=args.capacity,
            seed=args.seed,
        )
        if args.json:
            return json.dumps(campaign, indent=2, sort_keys=True)
        return exp.render_monitor_campaign(campaign)
    point = exp.run_monitor(
        workload=args.app,
        policy=args.policy,
        load=args.load,
        interval=args.interval,
        capacity=args.capacity,
        seed=args.seed,
    )
    if args.json:
        return json.dumps(point, indent=2, sort_keys=True)
    return exp.render_monitor(point, width=args.width)


def _cmd_profile(args) -> str:
    from .workloads import PAPER_WORKLOADS, profile_workload, render_profiles

    suite = PAPER_WORKLOADS()
    if args.apps:
        suite = [wl for wl in suite if wl.name in args.apps]
    return render_profiles([profile_workload(wl) for wl in suite])


def _cmd_ablate(args) -> str:
    parts = []
    if args.which in ("replacement", "all"):
        parts.append(
            exp.render_ablation(
                exp.run_replacement_ablation(),
                "Replacement-policy ablation (GAUSS)",
                "policy",
            )
        )
    if args.which in ("window", "all"):
        parts.append(
            exp.render_ablation(
                exp.run_pageout_window_ablation(),
                "Pageout-window ablation (GAUSS, remote)",
                "window",
            )
        )
    if args.which in ("batch", "all"):
        parts.append(
            exp.render_ablation(
                exp.run_free_batch_ablation(),
                "Free-batch ablation (GAUSS, disk)",
                "batch",
            )
        )
    return "\n\n".join(parts)


_ALL = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "breakdown",
    "latency",
    "busy",
    "loaded",
    "scaling",
    "netcmp",
    "hetero",
    "adaptive",
    "remotedisk",
    "multiclient",
    "fleet",
    "diurnal",
    "compression",
    "resilience",
    "spectrum",
    "pipelining",
    "monitor",
    "profile",
    "ablate",
]

_APPS = ["mvec", "gauss", "qsort", "fft", "filter", "cc"]
_POLICIES = ["no-reliability", "parity-logging", "mirroring", "disk", "write-through"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Implementation of a Reliable Remote Memory "
        "Pager' (USENIX 1996): regenerate any evaluation figure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags every subcommand takes: host-time profiling and the
    # observability of the run itself.
    common_flags = argparse.ArgumentParser(add_help=False)
    obs_group = common_flags.add_argument_group("observability")
    obs_group.add_argument(
        "--profile", default=None, metavar="PATH",
        help="profile the whole subcommand under cProfile and write a "
        "pstats dump to PATH (inspect with 'python -m pstats PATH')",
    )
    obs_group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a structured event/span trace to PATH (JSONL) plus a "
        "Chrome trace-viewer file; runs through the experiment runner go "
        "serial and uncached (--jobs 1, --no-cache)",
    )
    obs_group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log progress to stderr (-v info, -vv debug)",
    )
    obs_group.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress warnings; errors only",
    )

    # Flags of the subcommands whose experiments go through the
    # experiment runner: how many worker processes to fan independent
    # runs over, and whether/where to use the on-disk result cache.
    runner_flags = argparse.ArgumentParser(add_help=False, parents=[common_flags])
    group = runner_flags.add_argument_group("execution")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent runs (0 = all cores; default 1)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="recompute every run, bypassing the on-disk result cache",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    # The other subcommands never reach the runner; main() configures
    # it from these defaults all the same.
    parser.set_defaults(jobs=1, no_cache=False, cache_dir=None)

    p = sub.add_parser(
        "fig1", parents=[common_flags], help="idle cluster memory over a week")
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser(
        "fig2", parents=[runner_flags], help="six applications x four policies")
    p.add_argument("--apps", nargs="+", choices=_APPS, default=None)
    p.add_argument(
        "--policies",
        nargs="+",
        choices=_POLICIES,
        default=None,
    )
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser(
        "fig3", parents=[runner_flags], help="FFT completion vs input size")
    p.add_argument("--sizes", nargs="+", type=float, default=None, metavar="MB")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser(
        "fig4", parents=[runner_flags], help="FFT under faster networks")
    p.add_argument("--sizes", nargs="+", type=float, default=None, metavar="MB")
    p.add_argument(
        "--no-simulate",
        action="store_true",
        help="skip the direct 10x-network simulation (prediction only)",
    )
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser(
        "fig5", parents=[runner_flags], help="write-through vs parity logging")
    p.add_argument(
        "--apps", nargs="+", choices=["mvec", "gauss", "qsort", "fft"], default=None
    )
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser(
        "breakdown", parents=[runner_flags], help="the §4.3 FFT-24MB decomposition")
    p.add_argument("--size", type=float, default=24.0, metavar="MB")
    p.add_argument(
        "--observed",
        action="store_true",
        help="trace the run and measure pptime/btime from span phases "
        "instead of modelling them",
    )
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser(
        "latency", parents=[common_flags], help="§4.4 per-page latency microbenchmark")
    p.add_argument("--transfers", type=int, default=200)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser(
        "busy", parents=[runner_flags], help="§4.5 busy workstations as servers")
    p.add_argument(
        "--apps", nargs="+", choices=["fft", "gauss", "mvec", "qsort"],
        default=["fft", "gauss", "mvec"],
    )
    p.set_defaults(func=_cmd_busy)

    p = sub.add_parser(
        "loaded", parents=[runner_flags], help="§4.6 loaded Ethernet")
    p.add_argument("--loads", nargs="+", type=float, default=[0.0, 0.3, 0.6])
    p.set_defaults(func=_cmd_loaded)

    p = sub.add_parser(
        "scaling", parents=[runner_flags], help="parity logging vs server count")
    p.add_argument("--servers", nargs="+", type=int, default=[2, 4, 8])
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser(
        "netcmp", parents=[runner_flags], help="token ring vs Ethernet under load")
    p.add_argument("--loads", nargs="+", type=float, default=[0.0, 0.4, 0.8])
    p.set_defaults(func=_cmd_netcmp)

    p = sub.add_parser(
        "hetero", parents=[common_flags], help="§5 heterogeneous-network hierarchy")
    p.set_defaults(func=_cmd_hetero)

    p = sub.add_parser(
        "adaptive", parents=[runner_flags], help="§5 network-load threshold")
    p.add_argument("--load", type=float, default=0.8)
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser(
        "remotedisk", parents=[common_flags], help="remote memory vs remote disk paging")
    p.set_defaults(func=_cmd_remotedisk)

    p = sub.add_parser(
        "multiclient", parents=[common_flags], help="N clients sharing the cluster")
    p.add_argument(
        "--clients", type=_client_count, default=2, metavar="N",
        help="number of concurrent paging clients (default 2)")
    p.add_argument(
        "--donors", type=int, default=2, metavar="M",
        help="donor workstations hosting the per-client servers (default 2)")
    p.add_argument(
        "--network", choices=["ethernet", "switched"], default="ethernet",
        help="shared fabric: the paper's Ethernet (default) or the "
        "full-duplex switched network")
    p.add_argument(
        "--apps", nargs="+", choices=_APPS, default=["gauss", "qsort"],
        help="one workload per client, repeated round-robin to --clients")
    p.set_defaults(func=_cmd_multiclient)

    p = sub.add_parser(
        "fleet", parents=[common_flags],
        help="fleet-scale campaign: N clients x M donors, cluster "
        "throughput / Jain fairness / p99 pagein latency")
    p.add_argument(
        "--clients", type=_client_count, default=16, metavar="N",
        help="number of concurrent paging clients (default 16)")
    p.add_argument(
        "--donors", type=int, default=4, metavar="M",
        help="donor workstations hosting the per-client servers (default 4)")
    p.add_argument(
        "--workload", choices=_APPS, default="gauss",
        help="paper application every client runs at its default size "
        "(default gauss)")
    p.add_argument(
        "--capacity", type=int, default=2048, metavar="PAGES",
        help="remote-memory grant per client per donor (default 2048)")
    p.add_argument(
        "--network", choices=["switched", "ethernet"], default="switched",
        help="fabric: switched full-duplex (default; analytic- and "
        "replay-eligible) or the paper's shared Ethernet")
    p.add_argument(
        "--telemetry-interval", type=float, default=0.0, metavar="SEC",
        help="sampling period for pooled pagein-latency percentiles "
        "(0 = off; sampling pins interpreted execution)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "diurnal", parents=[common_flags], help="Figure 1 trace driving donor capacity")
    p.set_defaults(func=_cmd_diurnal)

    p = sub.add_parser(
        "compression", parents=[runner_flags], help="beyond-paper: page compression trade-off")
    p.set_defaults(func=_cmd_compression)

    p = sub.add_parser(
        "resilience", parents=[runner_flags],
        help="chaos campaign: page integrity under crashes, loss, and rot")
    p.add_argument(
        "--policies", nargs="+",
        choices=list(exp.RESILIENCE_POLICIES), default=list(exp.RESILIENCE_POLICIES),
    )
    p.add_argument(
        "--levels", nargs="+",
        choices=list(exp.LEVELS), default=["clean", "light"],
    )
    p.add_argument(
        "--quick", action="store_true",
        help="CI smoke: the 'light' campaign only",
    )
    p.add_argument(
        "--pipelined", action="store_true",
        help="run the whole campaign with the PR 4 pipelined datapath "
        "(write-behind queue + prefetcher) engaged",
    )
    p.add_argument(
        "--window", type=int, default=4, metavar="N",
        help="in-flight pageout window when --pipelined (default 4)",
    )
    p.add_argument(
        "--prefetch", type=int, default=4, metavar="DEPTH",
        help="prefetch depth when --pipelined (default 4)",
    )
    p.set_defaults(func=_cmd_resilience)

    p = sub.add_parser(
        "spectrum", parents=[runner_flags],
        help="beyond-paper: redundancy spectrum — wire overhead vs "
        "crashes tolerated across the whole policy family")
    p.add_argument(
        "--policies", nargs="+",
        choices=list(exp.SPECTRUM_POLICIES), default=list(exp.SPECTRUM_POLICIES),
    )
    p.add_argument(
        "--paper-scale", action="store_true",
        help="run GAUSS on the paper's 32 MB Alpha over the switched "
        "network with telemetry on; adds pagein latency percentiles",
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "pipelining", parents=[runner_flags],
        help="pipelined datapath: write-behind window sweep + prefetch probe")
    p.add_argument(
        "--windows", nargs="+", type=int, default=list(exp.WINDOWS), metavar="W",
        help="in-flight window sizes to sweep (default: 1 2 4 8; "
        "window 1 is the synchronous baseline)",
    )
    p.add_argument("--app", default="gauss", choices=_APPS)
    p.add_argument(
        "--policy", default="parity-logging",
        choices=[name for name in _POLICIES if name != "disk"],
        help="reliability policy under the pipeline (DISK has no remote "
        "datapath to pipeline)",
    )
    p.add_argument(
        "--prefetch", type=int, default=8, metavar="DEPTH",
        help="prefetch depth for the hit-rate probe (default 8)",
    )
    p.set_defaults(func=_cmd_pipelining)

    p = sub.add_parser(
        "monitor", parents=[runner_flags],
        help="time-series telemetry + saturation health monitor")
    p.add_argument("--app", default="gauss", choices=_APPS)
    p.add_argument("--policy", default="no-reliability", choices=_POLICIES)
    p.add_argument(
        "--load", type=float, default=0.0, metavar="FRAC",
        help="background Ethernet load fraction for the single run "
        "(default 0.0)",
    )
    p.add_argument(
        "--interval", type=float, default=exp.monitor.DEFAULT_INTERVAL,
        metavar="SEC",
        help="sampling interval in simulated seconds (default %(default)s)",
    )
    p.add_argument(
        "--capacity", type=int, default=512, metavar="N",
        help="ring-buffer capacity per series; oldest samples are evicted "
        "beyond this (default 512)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--width", type=int, default=60, metavar="COLS",
        help="sparkline width for the ASCII timelines (default 60)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the raw series/health payload as JSON instead of ASCII",
    )
    p.add_argument(
        "--campaign", action="store_true",
        help="rising-load sweep: compare where health first warns against "
        "the measured §4.6 collapse knee",
    )
    p.add_argument(
        "--loads", nargs="+", type=float,
        default=list(exp.monitor.CAMPAIGN_LOADS), metavar="FRAC",
        help="load levels for --campaign",
    )
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser(
        "profile", parents=[common_flags], help="device-independent workload fault profiles")
    p.add_argument("--apps", nargs="+", choices=_APPS, default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "ablate", parents=[runner_flags], help="design-choice ablations")
    p.add_argument(
        "--which", choices=["replacement", "window", "batch", "all"], default="all"
    )
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser(
        "trace-summary",
        parents=[common_flags],
        help="digest a recorded trace: span latencies, phases, slowest requests",
    )
    p.add_argument("trace_file", metavar="TRACE.jsonl")
    p.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest requests to list (default 10)",
    )
    p.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation while loading",
    )
    p.set_defaults(func=_cmd_trace_summary)

    p = sub.add_parser(
        "all", parents=[runner_flags], help="run every experiment in sequence")
    p.set_defaults(func=None)

    return parser


def _trace_paths(path: str) -> tuple:
    """JSONL path as given, Chrome trace-viewer file derived from it."""
    base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    return path, f"{base}.chrome.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    if args.jobs < 0:
        parser.error(f"argument --jobs: must be >= 0, got {args.jobs}")
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    tracer = None
    use_cache = not args.no_cache
    if args.trace:
        from .obs.trace import Tracer, install_tracer

        if args.jobs != 1:
            log.warning(
                "--trace forces --jobs 1: the tracer cannot follow runs "
                "into worker processes"
            )
            args.jobs = 1
        if use_cache:
            # A cached result replays without simulating, which would
            # record nothing — traced invocations always recompute.
            log.info("--trace disables the result cache for this invocation")
            use_cache = False
        tracer = Tracer()
        install_tracer(tracer)
    configure_default_runner(
        jobs=args.jobs,
        use_cache=use_cache,
        cache_dir=args.cache_dir,
    )
    try:
        if args.command == "all":
            for command in _ALL:
                print(f"==== {command} " + "=" * (60 - len(command)))
                print(main_output(command))
                print()
            return 0
        print(args.func(args))
        return 0
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        sys.stderr.close()
        return 0
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(args.profile)
            if not sys.stderr.closed:
                print(
                    f"profile: pstats dump -> {args.profile} "
                    f"(python -m pstats {args.profile})",
                    file=sys.stderr,
                )
        if tracer is not None:
            from .obs.trace import uninstall_tracer

            uninstall_tracer()
            jsonl_path, chrome_path = _trace_paths(args.trace)
            count = tracer.write_jsonl(jsonl_path)
            tracer.write_chrome(chrome_path)
            if not sys.stderr.closed:
                print(
                    f"trace: {count} records -> {jsonl_path} "
                    f"(chrome://tracing view: {chrome_path})",
                    file=sys.stderr,
                )


def main_output(command: str) -> str:
    """Run one subcommand with default arguments; returns its table."""
    parser = build_parser()
    args = parser.parse_args([command])
    return args.func(args)
