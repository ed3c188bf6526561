"""Whole-campaign invariants: the ISSUE 3 acceptance criteria.

Every reliable policy must come through the standard campaign (one
server crash + 1% steady message loss + one at-rest corruption burst)
with zero pages lost or corrupted, while NO RELIABILITY is reported
lossy.  Fault schedules must be identical across serial, parallel and
cached execution.
"""

import json

import pytest

from repro.config import MachineSpec
from repro.core import build_cluster
from repro.errors import ReproError
from repro.experiments import run_resilience
from repro.faults import ChaosController, FaultPlan, check_page_integrity
from repro.runner import ExperimentRunner, RunSpec
from repro.workloads import SequentialScan

RELIABLE = ["mirroring", "parity", "parity-logging", "write-through"]

#: Tiny machine -> the scan pages constantly; the run lasts ~20
#: simulated seconds, so every standard_campaign event lands inside it.
SMALL = MachineSpec(
    name="test-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)

BUILD = dict(
    machine_spec=SMALL,
    n_servers=4,
    content_mode=True,
    seed=3,
    server_capacity_pages=600,
)


def run_campaign(policy, plan):
    cluster = build_cluster(policy=policy, **BUILD)
    controller = ChaosController(cluster, plan)
    error = None
    try:
        cluster.run(SequentialScan(n_pages=400, passes=3, write=True))
    except ReproError as exc:
        error = exc
    return cluster, controller, error


@pytest.mark.parametrize("policy", RELIABLE)
def test_reliable_policy_survives_standard_campaign(policy):
    cluster, controller, error = run_campaign(policy, FaultPlan.standard_campaign())
    assert error is None
    report = check_page_integrity(cluster)
    assert report.clean, f"{policy}: {report.verdict} lost={report.lost}"
    assert cluster.pager.counters["recoveries"] >= 1
    kinds = [kind for _, kind, _ in controller.fault_log]
    assert "crash" in kinds and "corrupt_burst" in kinds


def test_parity_logging_pipelined_retries_pending_seal_once():
    """At seed 37 two concurrent pipelined pageouts retry the same
    pending parity seal; the second must find it gone, not crash."""
    cluster = build_cluster(
        policy="parity-logging",
        **dict(BUILD, seed=37, pipeline_window=4, pipeline_prefetch=4),
    )
    ChaosController(cluster, FaultPlan.standard_campaign())
    cluster.run(SequentialScan(n_pages=400, passes=3, write=True))
    report = check_page_integrity(cluster)
    assert report.clean, f"{report.verdict} lost={report.lost}"


def test_no_reliability_is_lossy_under_standard_campaign():
    cluster, controller, error = run_campaign(
        "no-reliability", FaultPlan.standard_campaign()
    )
    # The crash either killed the workload outright or the checker
    # finds the crashed server's pages unrecoverable — both are loss.
    report = check_page_integrity(cluster)
    assert error is not None or not report.clean
    assert report.lost
    assert report.verdict.startswith("LOSSY")


def test_fault_trace_identical_serial_parallel_cached(tmp_path):
    """The campaign schedule is data, not timing: serial, worker-process
    and cache-replayed runs return the identical fault trace."""
    spec = RunSpec.make(
        "sequential-scan",
        "mirroring",
        workload_kwargs=dict(n_pages=400, passes=3, write=True),
        overrides=BUILD,
        hook="chaos",
        hook_kwargs=FaultPlan.standard_campaign().as_kwargs(),
        extract=("resilience",),
    )
    serial = ExperimentRunner(jobs=1).run([spec])[0]
    parallel = ExperimentRunner(jobs=2).run([spec])[0]
    cache_dir = tmp_path / "cache"
    cold = ExperimentRunner(jobs=1, use_cache=True, cache_dir=cache_dir).run([spec])[0]
    warm = ExperimentRunner(jobs=1, use_cache=True, cache_dir=cache_dir).run([spec])[0]
    assert not cold.cached and warm.cached

    def trace(result):
        return json.dumps(result.extras["fault_trace"], sort_keys=True)

    assert trace(serial) == trace(parallel) == trace(cold) == trace(warm)
    assert serial.extras["verdict"] == "CLEAN"
    assert serial.report.etime == parallel.report.etime == warm.report.etime


def test_run_resilience_acceptance_matrix():
    """The experiment front-end reports the paper's reliability taxonomy."""
    results = run_resilience(
        policies=("no-reliability", "mirroring"),
        levels=("clean", "light"),
        runner=ExperimentRunner(jobs=1),
    )
    for policy in ("no-reliability", "mirroring"):
        assert results["clean"][policy]["extras"]["verdict"] == "CLEAN"
        assert results["clean"][policy]["error"] is None
    assert results["light"]["mirroring"]["extras"]["verdict"] == "CLEAN"
    assert results["light"]["mirroring"]["extras"]["recoveries"] == 1
    lossy = results["light"]["no-reliability"]
    assert lossy["error"] is not None
    assert lossy["extras"]["verdict"].startswith("LOSSY")
    assert lossy["extras"]["integrity"]["lost"]


def test_heavy_flap_rearms_watchdog():
    """A flapping server is declared, recovered, and re-armed — not
    double-recovered and not fatal."""
    plan = FaultPlan(
        drop_rate=0.01,
        watchdog_interval=0.5,
        events=(("flap", 4.0, 2, 2.5),),
    )
    cluster, controller, error = run_campaign("parity", plan)
    assert error is None
    kinds = [kind for _, kind, _ in controller.fault_log]
    assert kinds.count("flap_down") == 1 and kinds.count("flap_up") == 1
    assert check_page_integrity(cluster).clean


@pytest.mark.parametrize("pipelined", [False, True], ids=["sync", "pipelined"])
def test_heavy_campaign_clean_on_both_datapaths(pipelined):
    """The full heavy campaign — steady loss/dup/delay, a loss burst, a
    crash, a watchdog-visible flap, and a final rot burst — leaves every
    redundant policy CLEAN on the synchronous and the write-behind
    datapath alike, while NO RELIABILITY stays lossy.  Pins the two
    composed-fault windows this campaign once exposed: a crash inside a
    first-placement pageout, and a demand read racing the recovery of a
    rebooted (amnesiac) server."""
    results = run_resilience(
        levels=("heavy",),
        runner=ExperimentRunner(jobs=2, use_cache=False),
        pipelined=pipelined,
    )
    for policy in RELIABLE:
        cell = results["heavy"][policy]
        assert cell["error"] is None, f"{policy}: {cell['error']}"
        assert cell["extras"]["verdict"] == "CLEAN"
    lossy = results["heavy"]["no-reliability"]
    assert lossy["extras"]["verdict"].startswith("LOSSY")
