"""The benchmark's three workloads, driven through repro's public API.

Each workload is a class built from the benchmark seed.  ``build_all()``
assembles every cluster (or fleet) one pass builds and throws them away
(the set-up measurement); ``run()`` executes one full pass the way a
user's command would -- run the matrix, render the table -- and returns
an :class:`Outcome`: a digest of every run's simulated output, the
simulated page count, the exact work counters, and the runs whose output
broke a seed-independent invariant, and the host seconds of each of the
pass's units (one run, one table, one fleet phase), so the benchmark can
take each unit's fastest time over several passes.

``fast=False`` turns the engine's fast tiers off through the existing
builder keywords (``compile_schedules=``, ``analytic_ethernet=`` and the
fleet's ``analytic=``), so the same digests can be produced by the
reference engine.  ``small=True`` shrinks every workload for the
benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["CASES", "DEFAULT_SEED", "Outcome", "digest", "report_payload"]

#: The seed whose digests are committed in ``reference.json``.  Seed 0 is
#: also the CLI default, so the fig2 digests are those of ``repro fig2``.
DEFAULT_SEED = 0


def digest(payload) -> str:
    """A short content hash of plain data (floats hashed by their repr)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_payload(report) -> Optional[dict]:
    """A CompletionReport's simulated fields plus its metrics snapshot.

    The rest of ``meta`` is left out: it records the run's provenance
    (overrides such as the engine keywords), not what was simulated.
    """
    if report is None:
        return None
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "meta"}
    payload["metrics"] = report.meta.get("metrics")
    return payload


@dataclass
class Outcome:
    """One pass of a workload."""

    #: run label -> digest of that run's simulated output
    cells: Dict[str, str]
    #: simulated pageins + pageouts over every run
    pages: int
    #: exact work counts (``net.*``, ``vm.*``) for the per-layer record
    counts: Dict[str, int]
    #: labels of runs whose output broke an invariant, with the reason
    broken: Dict[str, str] = field(default_factory=dict)
    #: workload-specific findings for the record (not gated)
    info: Dict[str, object] = field(default_factory=dict)
    #: unit name -> host seconds the pass spent in it
    unit_s: Dict[str, float] = field(default_factory=dict)


def _timed(unit_s: Dict[str, float], name: str, fn, *args):
    """Call ``fn(*args)``, adding its host seconds to ``unit_s[name]``."""
    start = perf_counter()
    try:
        return fn(*args)
    finally:
        unit_s[name] = unit_s.get(name, 0.0) + perf_counter() - start


def _cluster_counts(snapshots: List[dict], reports) -> Dict[str, int]:
    """Work counts from ``meta["metrics"]`` snapshots and the reports."""
    from repro.obs.metrics import merge_snapshots

    merged = merge_snapshots(snapshots)
    reports = [r for r in reports if r is not None]
    return {
        "net.messages": int(merged.get("net.messages", 0)),
        "net.frames": int(merged.get("net.frames", 0)),
        "net.collisions": int(merged.get("net.collisions", 0)),
        "net.protocol.page_transfers": int(
            merged.get("net.protocol.page_transfers", 0)
        ),
        "vm.faults": sum(r.faults for r in reports),
        "vm.pageins": sum(r.pageins for r in reports),
        "vm.pageouts": sum(r.pageouts for r in reports),
    }


# --------------------------------------------------------------------- fig2

#: Reduced-size applications for the benchmark's tests, paired with a
#: smaller machine (4 MB RAM, 1 MB kernel) so they still page.
_FIG2_SMALL_APPS = {
    "mvec": {"n": 700},
    "gauss": {"n": 700, "passes": 2},
    "qsort": {"records": 500_000},
    "fft": {"elements": 150_000, "passes": 2},
    "filter": {"image_bytes": 4 << 20},
    "cc": {"units": 30},
}


def _small_machine():
    from repro.config import MachineSpec

    return MachineSpec(
        name="perfbench-small",
        ram_bytes=4 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


class Fig2:
    """The paper's Figure 2: 6 applications x 4 policies, 24 runs on the
    shared 10 Mbit Ethernet, through the experiment runner, then the
    measured-vs-paper table.  The seed drives the cluster's RNG streams
    (Ethernet backoff); the applications themselves are fixed."""

    name = "fig2"
    #: host seconds of one pass on the 2-core x86_64 reference container
    pass_s = 15.0

    def __init__(self, seed: int, fast: bool = True, small: bool = False):
        from repro.experiments.fig2 import FIG2_POLICIES, WORKLOAD_FACTORIES
        from repro.runner import RunSpec

        overrides: Dict[str, object] = {"seed": seed}
        if not fast:
            overrides.update(compile_schedules=False, analytic_ethernet=False)
        if small:
            overrides["machine_spec"] = _small_machine()
        self.apps = list(WORKLOAD_FACTORIES)
        self.policies = list(FIG2_POLICIES)
        self.specs = [
            RunSpec.make(
                app,
                policy,
                workload_kwargs=_FIG2_SMALL_APPS[app] if small else None,
                overrides=overrides,
                label=f"{app}/{policy}",
            )
            for app in self.apps
            for policy in self.policies
        ]
        self.labels = [spec.label for spec in self.specs]

    def build_all(self) -> None:
        from repro.core import builder
        from repro.runner.execute import resolve_build_kwargs

        for spec in self.specs:
            builder.build_cluster(**resolve_build_kwargs(spec))

    def run(self) -> Outcome:
        from repro.analysis.paper_data import FIG2_SECONDS
        from repro.analysis.report import shape_check
        from repro.experiments import fig2
        from repro.runner import ExperimentRunner

        runner, unit_s = ExperimentRunner(), {}
        results = [
            _timed(unit_s, spec.label, runner.run, [spec])[0] for spec in self.specs
        ]
        flat = iter(results)
        reports = {
            app: {policy: next(flat).report for policy in self.policies}
            for app in self.apps
        }
        _timed(unit_s, "render", fig2.render_fig2, reports)

        all_reports = [r.report for r in results]
        outcome = Outcome(
            cells={
                r.spec.label: digest(report_payload(r.report)) for r in results
            },
            pages=sum(r.pageins + r.pageouts for r in all_reports),
            counts=_cluster_counts(
                [r.meta["metrics"] for r in all_reports], all_reports
            ),
            unit_s=unit_s,
        )
        worst = 0.0
        for app, by_policy in reports.items():
            etimes = {policy: report.etime for policy, report in by_policy.items()}
            paper = FIG2_SECONDS.get(app, {})
            for policy, etime in etimes.items():
                if policy in paper:
                    worst = max(worst, abs(etime / paper[policy] - 1.0))
            check = shape_check(etimes, paper)
            if not check["order_matches"]:
                for policy in by_policy:
                    outcome.broken[f"{app}/{policy}"] = (
                        "ranking " + " < ".join(check["measured_order"])
                    )
        outcome.info["paper_err_max"] = worst
        return outcome


# ------------------------------------------------------------ fleet-hotcold

#: bench_fleet's reference-dense shape: the hot set fits the 128 user
#: frames, the cold tail faults steadily.
_HOT_COLD = {
    "hot_pages": 120,
    "cold_pages": 4096,
    "n_refs": 150_000,
    "hot_fraction": 0.9995,
    "cpu_per_page": 1e-4,
}


def _fleet_machine():
    from repro.config import MachineSpec

    # 2 MB RAM / 1 MB kernel / 8 KB pages -> 128 user frames per client.
    return MachineSpec(
        name="fleet-bench",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


class FleetHotCold:
    """64 clients x 8 donors on the switched fabric, each client running
    the hot-cold workload with its own seed drawn from the benchmark
    seed.  Independent tenants share no compiled schedule, so planning
    (``plan_fleet``) carries most of the cost."""

    name = "fleet-hotcold"
    pass_s = 8.0

    def __init__(self, seed: int, fast: bool = True, small: bool = False):
        self.seed = seed
        self.n_clients, self.n_donors = (8, 4) if small else (64, 8)
        self.n_refs = 20_000 if small else _HOT_COLD["n_refs"]
        rng = random.Random(seed)
        self.client_seeds = [rng.getrandbits(32) for _ in range(self.n_clients)]
        self.engine = {} if fast else {"analytic": False, "compile_schedules": False}
        #: every client run plus the campaign scoreboard
        self.labels = [f"client-{i}" for i in range(self.n_clients)] + ["campaign"]

    def _build(self):
        from repro.experiments import fleet

        return fleet.build_fleet(
            n_clients=self.n_clients,
            n_donors=self.n_donors,
            seed=self.seed,
            machine_spec=_fleet_machine(),
            **self.engine,
        )

    def build_all(self) -> None:
        self._build()

    def run(self) -> Outcome:
        from repro import compile as compile_pkg
        from repro.experiments import fleet as fleet_mod
        from repro.runner.registry import make_workload

        def plan():
            workloads = [
                make_workload("hot-cold", dict(_HOT_COLD, n_refs=self.n_refs, seed=s))
                for s in self.client_seeds
            ]
            schedules = compile_pkg.plan_fleet(
                list(zip(fleet.machines, fleet.pagers, workloads)),
                network=fleet.network,
            )
            return workloads, schedules

        def run():
            processes = [
                machine.run_plan(workload, schedule, name=f"hot-cold@{machine.name}")
                for machine, workload, schedule in zip(
                    fleet.machines, workloads, schedules
                )
            ]
            return [fleet.sim.run_until_complete(p) for p in processes]

        unit_s: Dict[str, float] = {}
        fleet = _timed(unit_s, "build", self._build)
        workloads, schedules = _timed(unit_s, "plan", plan)
        reports = _timed(unit_s, "run", run)
        rates = [r.pageins / r.etime if r.etime > 0 else 0.0 for r in reports]
        results = {
            "workload": "hot-cold",
            "n_clients": self.n_clients,
            "n_donors": self.n_donors,
            "network": "switched",
            "compiled_clients": sum(1 for s in schedules if s is not None),
            "clients": [
                {
                    "name": machine.name,
                    "etime": r.etime,
                    "pageins": r.pageins,
                    "pageouts": r.pageouts,
                    "rate": rate,
                }
                for machine, r, rate in zip(fleet.machines, reports, rates)
            ],
            "cluster_throughput": sum(rates),
            "jain_fairness": fleet_mod.jain_fairness(rates),
            "makespan": max(r.etime for r in reports),
            "wire_utilization": fleet.network.stats.utilization(),
        }
        _timed(unit_s, "render", fleet_mod.render_fleet, results)

        counters = fleet.network.stats.counters
        cells = {
            machine.name: digest(report_payload(r))
            for machine, r in zip(fleet.machines, reports)
        }
        scoreboard = {
            key: results[key]
            for key in ("cluster_throughput", "jain_fairness", "makespan",
                        "wire_utilization")
        }
        cells["campaign"] = digest(scoreboard)
        outcome = Outcome(
            cells=cells,
            pages=sum(r.pageins + r.pageouts for r in reports),
            counts={
                "net.messages": counters["messages"],
                "net.frames": counters["frames"],
                "net.collisions": counters["collisions"],
                "net.protocol.page_transfers": sum(r.page_transfers for r in reports),
                "vm.faults": sum(r.faults for r in reports),
                "vm.pageins": sum(r.pageins for r in reports),
                "vm.pageouts": sum(r.pageouts for r in reports),
            },
            unit_s=unit_s,
        )
        for machine, r in zip(fleet.machines, reports):
            if not (r.etime > 0 and r.faults > 0):
                outcome.broken[machine.name] = "client did not complete"
        outcome.info["compiled_clients"] = results["compiled_clients"]
        return outcome


# -------------------------------------------------------------- chaos-light

#: The resilience experiment's ``light`` campaign cell: a small machine
#: (~20 simulated seconds fault-free), four data servers (mirroring must
#: be able to re-mirror after losing one), content-mode checksums, and a
#: writing sequential scan.
_CHAOS_BUILD = {
    "content_mode": True,
    "n_servers": 4,
    "server_capacity_pages": 600,
}
_CHAOS_WORKLOAD = {"n_pages": 400, "passes": 3, "write": True}
_CHAOS_POLICIES = (
    "no-reliability",
    "mirroring",
    "parity",
    "parity-logging",
    "write-through",
    "ec-2-1",
    "ec-4-2",
)
#: Cluster seeds at which every redundant cell of the campaign, on both
#: datapaths, comes through CLEAN, surveyed over seeds 0-39.  The light
#: campaign is not survivable at every seed: at the other 23, a crash
#: and the rot burst land in one redundancy group before it is repaired
#: (``RecoveryError``, ``ServerCrashed``, ``PageCorrupted``), and at seed
#: 37 parity-logging/pipelined raises ``IndexError``.  The benchmark seed
#: indexes this pool; seed 3, the resilience experiment's own, comes
#: first, so at the default seed every redundant cell has the digest of
#: the same cell of ``repro resilience``.
CHAOS_SEEDS = (3, 1, 2, 4, 9, 10, 13, 15, 17, 18, 22, 23, 30, 31, 33, 34, 38)

#: (label, pipeline_window, pipeline_prefetch)
_DATAPATHS = (("sync", 1, 0), ("pipelined", 4, 4))


def _chaos_machine():
    from repro.config import MachineSpec

    return MachineSpec(
        name="chaos-small",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )


class ChaosLight:
    """One crash, 1% message loss and one rot burst over the seven
    resilience policies, on the synchronous and the pipelined datapath
    (14 runs).  The seed picks the cluster's RNG streams, fault draws
    included, from :data:`CHAOS_SEEDS`.  NO RELIABILITY losing pages is
    the expected result; every redundant policy must come through
    CLEAN."""

    name = "chaos-light"
    pass_s = 10.0

    def __init__(self, seed: int, fast: bool = True, small: bool = False):
        from repro.core.policies import parse_ec_policy
        from repro.faults import FaultPlan

        self.plan = FaultPlan.standard_campaign()
        self.policies = (
            ("no-reliability", "mirroring", "ec-2-1") if small else _CHAOS_POLICIES
        )
        engine = {} if fast else {"compile_schedules": False, "analytic_ethernet": False}
        self.builds = {}
        for datapath, window, prefetch in _DATAPATHS:
            for policy in self.policies:
                shape = parse_ec_policy(policy)
                build = dict(
                    _CHAOS_BUILD,
                    machine_spec=_chaos_machine(),
                    seed=CHAOS_SEEDS[seed % len(CHAOS_SEEDS)],
                    **engine,
                )
                if shape is not None:
                    # Two placement groups with rebuild slack, as in the
                    # resilience experiment.
                    build["n_servers"] = max(2 * (shape[0] + shape[1]), 8)
                if window > 1 or prefetch:
                    build.update(pipeline_window=window, pipeline_prefetch=prefetch)
                self.builds[f"{policy}/{datapath}"] = (policy, build)
        self.labels = list(self.builds)

    def build_all(self) -> None:
        from repro.core import builder

        for policy, build in self.builds.values():
            builder.build_cluster(policy=policy, **build)

    def _run_inline(self, policy: str, build: dict) -> dict:
        """The faulted NO RELIABILITY cell: its workload may die with the
        crashed server, which is the result, so it runs where the death
        can be caught."""
        from repro.core import builder
        from repro.errors import ReproError
        from repro.faults import ChaosController
        from repro.runner.registry import EXTRACTORS, make_workload

        cluster = builder.build_cluster(policy=policy, **build)
        controller = ChaosController(cluster, self.plan)
        report, error = None, None
        try:
            report = cluster.run(make_workload("sequential-scan", dict(_CHAOS_WORKLOAD)))
            report.meta["metrics"] = cluster.metrics.snapshot()
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        extras = EXTRACTORS["resilience"](cluster, report, controller)
        return {"report": report, "extras": extras, "error": error}

    def run(self) -> Outcome:
        from repro.experiments import resilience
        from repro.runner import ExperimentRunner, RunSpec

        runner, unit_s = ExperimentRunner(), {}
        cells: Dict[str, dict] = {}
        for datapath, _, _ in _DATAPATHS:
            for policy in self.policies:
                label = f"{policy}/{datapath}"
                _, build = self.builds[label]
                if policy == "no-reliability":
                    cells[label] = _timed(unit_s, label, self._run_inline, policy, build)
                    continue
                spec = RunSpec.make(
                    "sequential-scan",
                    policy,
                    workload_kwargs=_CHAOS_WORKLOAD,
                    overrides=build,
                    hook="chaos",
                    hook_kwargs=self.plan.as_kwargs(),
                    extract=("resilience",),
                    label=label,
                )
                result = _timed(unit_s, label, runner.run, [spec])[0]
                cells[label] = {
                    "report": result.report,
                    "extras": result.extras,
                    "error": None,
                }
            _timed(
                unit_s,
                f"render/{datapath}",
                resilience.render_resilience,
                {"light": {
                    policy: cells[f"{policy}/{datapath}"] for policy in self.policies
                }},
            )

        reports = [cell["report"] for cell in cells.values()]
        outcome = Outcome(
            cells={
                label: digest({
                    "report": report_payload(cell["report"]),
                    "extras": cell["extras"],
                    "error": cell["error"],
                })
                for label, cell in cells.items()
            },
            pages=sum(r.pageins + r.pageouts for r in reports if r is not None),
            counts=_cluster_counts(
                [r.meta["metrics"] for r in reports if r is not None], reports
            ),
            unit_s=unit_s,
        )
        for label, cell in cells.items():
            if not label.startswith("no-reliability/"):
                verdict = cell["extras"]["verdict"]
                if verdict != "CLEAN":
                    outcome.broken[label] = f"redundant policy {verdict}"
        outcome.info["verdicts"] = {
            label: cell["extras"]["verdict"] for label, cell in cells.items()
        }
        return outcome


CASES = {case.name: case for case in (Fig2, FleetHotCold, ChaosLight)}
