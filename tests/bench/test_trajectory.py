"""Trajectory merge + regression gate (benchmarks/trajectory.py).

The module lives in ``benchmarks/`` (not the installable package), so
load it by path.
"""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "trajectory.py"
)


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RECORD = {
    "fleet_ab": {"speedup": 3.9, "cold_speedup": 1.8, "fast_seconds": 0.3},
    "content_ab": {"speedup": 1.6, "accesses": 14400},
}


def test_extract_ratios_keeps_only_dimensionless_metrics(trajectory):
    assert trajectory.extract_ratios(_RECORD) == {
        "fleet_ab.speedup": 3.9,
        "fleet_ab.cold_speedup": 1.8,
        "content_ab.speedup": 1.6,
    }


def test_build_trajectory_tracks_best_per_record(trajectory):
    built = trajectory.build_trajectory({"BENCH_pr5.json": _RECORD})
    assert built["best"]["BENCH_pr5.json"]["fleet_ab.speedup"] == 3.9
    assert built["tolerance"] == trajectory.TOLERANCE
    json.dumps(built)  # artifact must serialize


def test_baseline_high_water_mark_survives_regeneration(trajectory):
    baseline = trajectory.build_trajectory({"BENCH_pr5.json": _RECORD})
    slower = {"fleet_ab": {"speedup": 3.88}}  # within tolerance
    rebuilt = trajectory.build_trajectory(
        {"BENCH_pr5.json": slower}, baseline=baseline
    )
    # History reflects the fresh run; best keeps the old high-water mark.
    assert rebuilt["history"]["BENCH_pr5.json"]["fleet_ab.speedup"] == 3.88
    assert rebuilt["best"]["BENCH_pr5.json"]["fleet_ab.speedup"] == 3.9


def test_check_fails_on_more_than_ten_percent_drop(trajectory):
    baseline = trajectory.build_trajectory({"BENCH_pr5.json": _RECORD})
    regressed = {"fleet_ab": {"speedup": 3.5}}  # 3.9 * 0.9 = 3.51 floor
    records = {"BENCH_pr5.json": regressed}
    built = trajectory.build_trajectory(records, baseline=baseline)
    failures = trajectory.check(built, records)
    assert len(failures) == 1
    assert "fleet_ab.speedup" in failures[0]
    assert "3.9" in failures[0]


def test_check_passes_within_tolerance_and_on_new_best(trajectory):
    baseline = trajectory.build_trajectory({"BENCH_pr5.json": _RECORD})
    for speedup in (3.52, 3.9, 5.0):  # floor is 3.51
        records = {"BENCH_pr5.json": {"fleet_ab": {"speedup": speedup}}}
        built = trajectory.build_trajectory(records, baseline=baseline)
        assert trajectory.check(built, records) == []


def test_check_gates_per_record_not_per_metric(trajectory):
    # The same metric name in two records measures two code lineages:
    # a lower value in one record must not be judged against the
    # other's best.
    records = {
        "BENCH_pr1.json": {"content_ab": {"speedup": 1.3}},
        "BENCH_pr4.json": {"content_ab": {"speedup": 1.6}},
    }
    built = trajectory.build_trajectory(records)
    assert trajectory.check(built, records) == []


def test_committed_records_pass_the_gate(trajectory):
    bench_dir = os.path.dirname(_PATH)
    records = trajectory.collect(bench_dir)
    assert records, "no committed benchmark records found"
    built = trajectory.build_trajectory(records)
    assert trajectory.check(built, records) == []


def test_committed_artifact_matches_regeneration(trajectory):
    bench_dir = os.path.dirname(_PATH)
    with open(os.path.join(bench_dir, "BENCH_TRAJECTORY.json")) as handle:
        committed = json.load(handle)
    records = trajectory.collect(bench_dir)
    rebuilt = trajectory.build_trajectory(records, baseline=committed)
    assert rebuilt == committed


def test_retired_metrics_never_fail(trajectory):
    name = "BENCH_pr6.json"
    baseline = trajectory.build_trajectory({name: {"paper_sweep": {"speedup": 90.0}}})
    records = {name: {"paper_sweep": {"speedup": 1.0}}}
    built = trajectory.build_trajectory(records, baseline=baseline)
    assert "paper_sweep.speedup" in built["retired"]
    assert trajectory.check(built, records) == []


def test_retired_harness_metrics_never_fail(trajectory):
    # fig2_suite.speedup was recorded ungated; its harness is gone, so
    # it is retired and a drop can never fail the gate.
    name = "BENCH_pr1.json"
    baseline = trajectory.build_trajectory({name: {"fig2_suite": {"speedup": 1.8}}})
    records = {name: {"fig2_suite": {"speedup": 1.0}}}  # 44% drop, retired
    built = trajectory.build_trajectory(records, baseline=baseline)
    assert "fig2_suite.speedup" in built["retired"]
    assert trajectory.check(built, records) == []
