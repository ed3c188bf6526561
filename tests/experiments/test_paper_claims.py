"""The paper-fidelity gate: the claims of the paper's §4 evaluation, in
tier-1.

The first half checks the paper, at full size: Figure 1, Figures 3-5,
the §4.3 time decomposition, the §4.4 latency, §4.5's busy servers and
§4.6's loaded Ethernet.  The Figure 2 claims sit next to the full Figure 2 grid in
``tests/runner/test_determinism.py``.  The second half checks what
goes beyond the paper: the §5 extensions, multiple clients, compression,
diurnal capacity, remote disk, the design ablations, recovery cost, the
redundancy spectrum and the pipelined datapath.

One module-scoped runner (two workers, cache in a temp dir) serves every
experiment that takes ``runner=``, so a cell that several figures share
is simulated once: Figure 4 and §4.3 reuse Figure 3's FFT cells.  The
beyond-paper experiments that run inline (no ``runner=``) and take a
second or more start together in one side process when the first
beyond-paper test does, so they overlap the runner-based cells that
follow and leave the paper's section to itself.
EXPERIMENTS.md records each band next to the value it measures.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis import FFT_24MB_BREAKDOWN, FIG5_SECONDS, shape_check
from repro.core import build_cluster
from repro.experiments import (
    render_fig1,
    render_fig3,
    render_latency,
    run_adaptive,
    run_breakdown,
    run_busy_servers,
    run_compression,
    run_diurnal,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_free_batch_ablation,
    run_heterogeneous,
    run_latency,
    run_loaded_ethernet,
    run_multi_client,
    run_network_comparison,
    run_pageout_window_ablation,
    run_remote_disk,
    run_replacement_ablation,
    run_server_scaling,
    run_spectrum,
)
from repro.experiments.ablations import run_prefetch_ablation
from repro.experiments.pipelining import modeled_paging_cost
from repro.runner import ExperimentRunner, RunSpec
from repro.vm import page_bytes
from repro.workloads import Gauss, Mvec, Qsort


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    shared = ExperimentRunner(
        jobs=2, use_cache=True, cache_dir=tmp_path_factory.mktemp("paper-cells")
    )
    yield shared
    shared.close()


#: Inline experiments (no ``runner=``) that take a second or more.
_SIDE_RUNS = {
    "heterogeneous": (run_heterogeneous, {}),
    "multi-ethernet": (run_multi_client, {}),
    "multi-switched": (run_multi_client, {"network": "switched"}),
    "multi-three": (
        run_multi_client,
        {"workload_factories": (Gauss, Qsort, Mvec), "n_donors": 3},
    ),
    "diurnal": (run_diurnal, {}),
    "remote-disk": (run_remote_disk, {}),
}


@pytest.fixture(scope="module")
def side_runs():
    side = ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    )
    futures = {
        name: side.submit(run, **kwargs) for name, (run, kwargs) in _SIDE_RUNS.items()
    }
    yield futures
    side.shutdown(cancel_futures=True)


#: A 23 MB MVEC: it pages, in a sixth of GAUSS's simulated time.  The two
#: §5 experiments whose full-size cells collapse a loaded Ethernet run at
#: this size; EXPERIMENTS.md shows their claims hold at both sizes.
SMALL_MVEC = {"workload": "mvec", "workload_kwargs": {"n": 1700}}


def _off_by(measured, paper):
    return abs(measured - paper) / paper


# --------------------------------------------------------------------------
# The paper (§4).
# --------------------------------------------------------------------------

def test_fig1_idle_memory():
    results = run_fig1()
    summary = results["summary"]
    assert summary["min_mb"] >= 300
    assert summary["max_mb"] > 700
    assert results["off_hours_mean_mb"] > results["business_hours_mean_mb"]
    assert results["business_hours_mean_mb"] >= 400
    assert "Figure 1" in render_fig1(results)


def test_fig3_input_scaling(runner):
    results = run_fig3(runner=runner)
    disk = {mb: r.etime for mb, r in results["disk"].items()}
    remote = {mb: r.etime for mb, r in results["parity-logging"].items()}
    sizes = sorted(disk)
    # The cliff lies between 18.5 and 20 MB: no paging below it, on
    # either device, and paging at every size above it.
    for by_size in results.values():
        for mb, report in by_size.items():
            assert (report.pageins > 0) == (mb >= 20.0), mb
    assert disk[sizes[-1]] > 1.5 * disk[sizes[0]]
    # Remote memory softens the cliff at every paging size.
    for mb in sizes:
        if results["disk"][mb].pageins > 0:
            assert remote[mb] < disk[mb], f"remote must beat disk at {mb} MB"
    # Completion time is monotone in input size for both curves.
    for curve in (disk, remote):
        values = [curve[mb] for mb in sizes]
        assert values == sorted(values)
    assert "Figure 3" in render_fig3(results)


def test_fig4_network_scaling(runner):
    results = run_fig4(runner=runner)
    row = results[max(results)]
    # all-memory < ethernet*10 < ethernet < disk at the paging end.
    assert row["all_memory"] < row["ethernet_x10_predicted"]
    assert row["ethernet_x10_predicted"] < row["ethernet"]
    assert row["ethernet"] < row["disk"]
    # The headline: paging overhead below ~17% on a 10x network.
    assert row["overhead_fraction_x10"] < 0.20
    # ETHERNET*10 performs "very close to ALL MEMORY".
    assert row["ethernet_x10_predicted"] < 1.25 * row["all_memory"]
    # The analytic prediction tracks a simulated 10x network within 15%.
    simulated = row["ethernet_x10_simulated"]
    predicted = row["ethernet_x10_predicted"]
    assert abs(simulated - predicted) / simulated < 0.15


def test_breakdown_fft_24mb(runner):
    results = run_breakdown(runner=runner)
    d = results["decomposition"]
    r = results["report"]
    paper = FFT_24MB_BREAKDOWN
    assert _off_by(r.pageouts, paper["pageouts"]) < 0.25
    assert _off_by(r.pageins, paper["pageins"]) < 0.30
    assert _off_by(r.page_transfers, paper["page_transfers"]) < 0.25
    # The decomposition reconstructs etime exactly (by construction).
    total = d.utime + d.systime + d.inittime + d.pptime + d.btime
    assert abs(total - d.etime) < 1e-6
    assert results["overhead_fraction_10x"] < 0.20
    assert _off_by(
        results["predicted_etime_10x"], paper["predicted_etime_10x"]
    ) < 0.15


def test_fig5_write_through(runner):
    measured = {
        app: {policy: r.etime for policy, r in by_policy.items()}
        for app, by_policy in run_fig5(runner=runner).items()
    }
    # §4.7 on equal disk/network bandwidth: no policy beats no-reliability.
    for by_policy in measured.values():
        assert by_policy["no-reliability"] <= min(by_policy.values()) + 1e-9
    # Write-through beats parity logging on the read-write balanced apps;
    # MVEC (pure pageouts, disk-bound writes) goes to parity logging.
    for app in ("gauss", "qsort"):
        assert measured[app]["write-through"] < measured[app]["parity-logging"]
    assert measured["mvec"]["parity-logging"] < measured["mvec"]["write-through"]
    # FFT: a known divergence (EXPERIMENTS.md) — the two within 10%.
    fft = measured["fft"]
    assert _off_by(fft["write-through"], fft["parity-logging"]) < 0.10
    for app in ("mvec", "gauss", "qsort"):
        check = shape_check(measured[app], FIG5_SECONDS[app])
        assert check["order_matches"], f"{app}: ranking diverges from Fig 5"


def test_latency_microbenchmark():
    results = run_latency()
    # Paper: 11.24 ms per transfer (1.6 protocol + 9.64 wire).
    assert 8.5 < results["per_transfer_ms"] < 13.0
    assert results["protocol_ms"] == 1.6
    assert 6.5 < results["wire_ms"] < 11.5
    # Far below the 45 ms/4 KB of the prior work the paper cites.
    assert results["per_transfer_ms"] < 45.0 / 2
    assert "ours" in render_latency(results)


def test_busy_servers(runner):
    results = run_busy_servers(apps=("fft", "gauss", "mvec"), runner=runner)
    for app, by_scenario in results.items():
        idle = by_scenario["idle"]["report"].etime
        # Editor load: "within 1 sec" in the paper; 2 s of slack.
        editor = by_scenario["editor"]["report"].etime
        assert abs(editor - idle) < 2.0, f"{app}: editor load cost too much"
        # CPU-bound load: within 7% (the paper's while(1) experiment).
        cpu_bound = by_scenario["cpu-bound"]["report"].etime
        assert cpu_bound < 1.07 * idle + 0.5, f"{app}: cpu-bound load over 7%"
        # Server CPU utilisation always under 15%.
        for scenario, entry in by_scenario.items():
            for utilization in entry["server_cpu_utilizations"]:
                assert utilization < 0.15, f"{app}/{scenario}: server CPU >= 15%"


def test_loaded_ethernet(runner):
    results = run_loaded_ethernet(loads=(0.0, 0.3, 0.6), runner=runner)
    idle, light, heavy = results[0.0], results[0.3], results[0.6]
    # Degradation "even when the Ethernet was lightly loaded", growing
    # with load and driven by CSMA/CD collisions.
    assert light["etime"] > idle["etime"]
    assert heavy["etime"] > light["etime"]
    assert heavy["collisions"] > light["collisions"] > idle["collisions"]
    assert heavy["mean_message_latency_ms"] > 2 * idle["mean_message_latency_ms"]


# --------------------------------------------------------------------------
# Beyond the paper, through the shared runner.
# --------------------------------------------------------------------------

# Starts the side runs, so they overlap the runner-based tests below.
@pytest.mark.usefixtures("side_runs")
def test_server_scaling(runner):
    """§4.1: parity logging's gap to no-reliability shrinks as 1/S."""
    results = run_server_scaling(runner=runner)
    gaps = [results[s]["gap_fraction"] for s in sorted(results)]
    assert gaps == sorted(gaps, reverse=True), "gap must shrink with S"
    for s, r in results.items():
        extra = r["parity_logging_transfers"] - r["no_reliability_transfers"]
        # One parity transfer per S pageouts, up to the unsealed group.
        assert abs(extra / r["pageouts"] - 1.0 / s) < 0.01


def test_token_ring_vs_ethernet_under_load(runner):
    """§4.6: the collapse is CSMA/CD's fault, not remote paging's."""
    results = run_network_comparison(
        loads=(0.0, 0.4, 0.8), runner=runner, **SMALL_MVEC
    )
    eth = results["ethernet"]
    ring = results["token-ring"]
    assert eth[0.0] > 0 and ring[0.0] > 0
    eth_slowdown = eth[0.8] / eth[0.0]
    ring_slowdown = ring[0.8] / ring[0.0]
    assert eth_slowdown > 3.0
    assert ring_slowdown < 2.5
    assert ring_slowdown < eth_slowdown / 2


def test_adaptive_threshold_on_congested_network(runner):
    """§5: the request-time threshold reroutes pageouts to the disk."""
    results = run_adaptive(runner=runner, **SMALL_MVEC)
    assert results["fixed-network"]["disk_routed"] == 0
    assert results["adaptive"]["disk_routed"] > 0
    assert results["improvement"] > 0.15


def test_compression_crossover(runner):
    results = run_compression(runner=runner)
    slow = results["ethernet"]
    fast = results["ethernet_x10"]
    # On the wire-bound Ethernet, compression is a large win...
    assert slow[2.0] < 0.85 * slow[1.0]
    assert slow[4.0] < slow[2.0]
    # ...but on a 10x network the fixed CPU cost eats the savings.
    slow_gain = 1 - slow[2.0] / slow[1.0]
    fast_gain = 1 - fast[2.0] / fast[1.0]
    assert fast_gain < slow_gain / 2


def test_replacement_policy_ablation(runner):
    results = run_replacement_ablation(runner=runner)
    # Clock's ring order defeats alternating sweeps: far more faults.
    assert results["clock"]["pageins"] > 2 * results["lru"]["pageins"]
    assert results["lru"]["pageins"] <= results["fifo"]["pageins"]
    assert results["lru"]["etime"] < results["clock"]["etime"]


def test_pageout_window_ablation(runner):
    results = run_pageout_window_ablation(runner=runner)
    # Asynchronous write-back overlaps pageouts with pageins/compute,
    # with the same paging volume either way.
    assert results[16]["etime"] < results[1]["etime"]
    outs = {r["pageouts"] for r in results.values()}
    assert max(outs) - min(outs) <= 64


def test_free_batch_ablation(runner):
    results = run_free_batch_ablation(runner=runner)
    # Batched eviction lets swap writes stream instead of paying a
    # rotation per page: the DISK baseline depends on it.
    assert results[16]["etime"] < results[1]["etime"]


def test_prefetch_ablation(runner):
    results = run_prefetch_ablation(runner=runner)
    assert results[8]["etime"] < results[2]["etime"] < results[0]["etime"]
    assert results[0]["prefetched"] == 0


def _crash_one_server(policy, n_pages=96, page_size=8192):
    """Page out ``n_pages``, crash server 0, page them all back in."""
    kwargs = dict(n_servers=4, content_mode=True, server_capacity_pages=512)
    if policy == "parity-logging":
        kwargs["overflow_fraction"] = 0.10
    cluster = build_cluster(policy=policy, **kwargs)
    pager, sim = cluster.pager, cluster.sim
    # Captured pre-crash: recovery shrinks the server set.
    memory_overhead = cluster.policy.memory_overhead_factor

    def flow():
        for page_id in range(n_pages):
            yield from pager.pageout(page_id, page_bytes(page_id, 1, page_size))
        runtime = sim.now
        cluster.servers[0].crash()
        for page_id in range(n_pages):
            got = yield from pager.pagein(page_id)
            assert got == page_bytes(page_id, 1, page_size)
        return runtime

    runtime = sim.run_until_complete(sim.process(flow()))
    return {
        "runtime_s": runtime,
        "recovery_s": pager.recovery_times.mean,
        "memory_overhead": memory_overhead,
    }


def test_recovery_cost_ablation():
    """§2.2's trade-off matrix: runtime, memory and recovery overhead."""
    results = {
        policy: _crash_one_server(policy)
        for policy in ("mirroring", "parity", "parity-logging", "write-through")
    }
    # Mirroring: fastest recovery, highest memory overhead.
    assert results["mirroring"]["recovery_s"] < results["parity"]["recovery_s"]
    assert results["mirroring"]["recovery_s"] < results["parity-logging"]["recovery_s"]
    assert results["mirroring"]["memory_overhead"] == 2.0
    # Parity logging: lowest runtime overhead, only 1 + 1/S memory.
    assert results["parity-logging"]["runtime_s"] < results["parity"]["runtime_s"]
    assert results["parity-logging"]["runtime_s"] < results["mirroring"]["runtime_s"]
    assert results["parity-logging"]["memory_overhead"] == 1.25


def test_erasure_spectrum(runner):
    """ec-4-2 ships fewer page-equivalents than mirroring and tolerates
    two concurrent crashes to mirroring's one."""
    spectrum = run_spectrum(policies=("mirroring", "ec-4-2"), runner=runner)
    ec, mirror = spectrum["ec-4-2"], spectrum["mirroring"]
    assert ec["transfers"] < mirror["transfers"]
    assert (ec["crashes_tolerated"] or 0) >= 2
    assert mirror["crashes_tolerated"] == 1


def test_erasure_paper_scale_pagein_latency(runner):
    """``repro spectrum --paper-scale``: the fragment fan-out keeps the
    ec-4-2 mean pagein within 1.5x of mirroring's."""
    results = run_spectrum(
        policies=("mirroring", "ec-4-2"), paper_scale=True, runner=runner
    )
    ec_mean = results["ec-4-2"]["pagein_latency"]["mean_ms"]
    mirror_mean = results["mirroring"]["pagein_latency"]["mean_ms"]
    assert 0 < ec_mean / mirror_mean <= 1.5


def test_pipeline_window_reduces_modeled_paging_cost(runner):
    """GAUSS/parity-logging: window 8 against the synchronous window 1."""
    sync, pipelined = (
        modeled_paging_cost(result.report)
        for result in runner.run([
            RunSpec.make("gauss", "parity-logging"),
            RunSpec.make(
                "gauss", "parity-logging", overrides={"pipeline_window": 8}
            ),
        ])
    )
    assert pipelined["paging_cost"] < sync["paging_cost"]
    assert pipelined["pptime"] < sync["pptime"]


# --------------------------------------------------------------------------
# Beyond the paper, from the side runs.
# --------------------------------------------------------------------------

def test_heterogeneous_hierarchy(side_runs):
    """§5: bandwidth-aware placement exploits fast links first."""
    results = side_runs["heterogeneous"].result()
    assert results["bandwidth-aware"]["fast_share"] >= 0.99
    assert results["round-robin"]["fast_share"] < 0.75
    assert results["speedup"] > 1.1


def test_multi_client_contention(side_runs):
    results = side_runs["multi-ethernet"].result()
    # Both clients pay a contention cost on the shared wire, and neither
    # is starved (CSMA/CD backoff is roughly fair).
    assert all(s > 1.0 for s in results["slowdowns"])
    assert max(results["slowdowns"]) < 3.0
    assert results["collisions"] > 0


def test_multi_client_switched_isolation(side_runs):
    results = side_runs["multi-switched"].result()
    # Full-duplex ports isolate the clients: no collisions, and the
    # concurrent slowdown is within noise.
    assert results["collisions"] == 0
    assert all(1.0 <= s < 1.05 for s in results["slowdowns"])


def test_multi_client_scales_past_two(side_runs):
    results = side_runs["multi-three"].result()
    assert len(results["concurrent"]) == 3
    assert all(s > 1.0 for s in results["slowdowns"])


def test_diurnal_capacity(side_runs):
    results = side_runs["diurnal"].result()
    night = results["Thursday 3am"]
    trough = results["Thursday 11am"]
    weekend = results["Saturday noon"]
    # Nights and weekends absorb the whole working set remotely.
    assert night["disk_pages"] == 0
    assert weekend["disk_pages"] == 0
    # The business-hours trough forces disk fallback and costs time,
    # but far less than all-disk paging would.
    assert trough["disk_pages"] > 0
    assert trough["etime"] > night["etime"]
    assert trough["etime"] < 1.5 * night["etime"]


def test_remote_memory_vs_remote_disk(side_runs):
    """Comer & Griffioen (§6): remote memory beats remote disk."""
    results = side_runs["remote-disk"].result()
    for pattern, r in results.items():
        assert r["remote_memory"] < r["remote_disk"], pattern
        # Their 20%-100% band, with slack above for our slower disk.
        assert 0.20 <= r["speedup"] <= 1.20, f"{pattern}: {r['speedup']:.0%}"
    # The gap grows with access-pattern randomness.
    assert results["random"]["speedup"] > results["sequential"]["speedup"]
