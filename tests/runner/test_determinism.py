"""The reproducibility contract: parallelism and caching are invisible.

``repro fig2 --jobs 4`` must produce byte-identical output to
``--jobs 1``, and a cache hit must be indistinguishable from the run
that produced it.  These tests sweep the FULL Figure 2 grid (every
workload x policy cell) through the serial harness, a 4-worker pool,
and a warm cache, and require exact report equality everywhere —
completion times compared as floats with ``==``, never with a
tolerance.  The serial grid also carries the paper's Figure 2 claims.
"""

import dataclasses

from repro.analysis import FIG2_SECONDS, shape_check
from repro.cli import main
from repro.experiments import run_fig2
from repro.experiments.fig2 import FIG2_POLICIES, WORKLOAD_FACTORIES
from repro.runner import ExperimentRunner


def _flatten(reports):
    return {
        (app, policy): dataclasses.asdict(report)
        for app, by_policy in reports.items()
        for policy, report in by_policy.items()
    }


def _assert_fig2_paper_claims(reports):
    """§4: remote memory beats the disk (GAUSS by nearly 2x), parity
    logging stays close to no-reliability, and mirroring beats the disk
    for every application except MVEC."""
    etime = {
        app: {policy: report.etime for policy, report in by_policy.items()}
        for app, by_policy in reports.items()
    }
    for app, by_policy in etime.items():
        check = shape_check(by_policy, FIG2_SECONDS[app])
        assert check["order_matches"], f"{app}: policy ranking diverges from paper"
    assert etime["gauss"]["disk"] / etime["gauss"]["no-reliability"] > 1.5
    mirroring_loses = {
        app for app, by_policy in etime.items()
        if by_policy["mirroring"] > by_policy["disk"]
    }
    assert mirroring_loses == {"mvec"}
    for app, by_policy in etime.items():
        ratio = by_policy["parity-logging"] / by_policy["no-reliability"]
        assert ratio < 1.35, f"{app}: parity logging too far from no-reliability"


def test_full_fig2_grid_serial_parallel_and_cache_identical(tmp_path):
    serial_reports = run_fig2()  # default runner: serial, uncached
    _assert_fig2_paper_claims(serial_reports)
    serial = _flatten(serial_reports)

    parallel_runner = ExperimentRunner(jobs=4, use_cache=True, cache_dir=tmp_path)
    cold = _flatten(run_fig2(runner=parallel_runner))
    assert parallel_runner.cache.misses == len(serial)

    warm_runner = ExperimentRunner(jobs=4, use_cache=True, cache_dir=tmp_path)
    warm = _flatten(run_fig2(runner=warm_runner))
    assert warm_runner.cache.hits == len(serial)

    assert set(serial) == {
        (app, policy)
        for app in WORKLOAD_FACTORIES
        for policy in FIG2_POLICIES
    }
    assert serial == cold
    assert cold == warm


def test_cli_output_byte_identical_across_jobs(capsys):
    """`repro fig2 --jobs 2` prints the same bytes as `--jobs 1`."""
    argv = ["fig2", "--apps", "mvec", "gauss", "--policies", "no-reliability", "disk"]
    assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
    serial_out = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out
