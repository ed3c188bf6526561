"""ExperimentRunner: ordering, parallel equivalence, cache semantics."""

import dataclasses

import pytest

from repro.runner import ExperimentRunner, RunSpec

#: A fast 2x2 matrix: small enough to run in seconds, big enough to page.
SPECS = [
    RunSpec.make(workload, policy, workload_kwargs={"n": 1100})
    for workload in ("mvec", "gauss")
    for policy in ("no-reliability", "disk")
]


def _reports(results):
    return [dataclasses.asdict(r.report) for r in results]


def test_results_come_back_in_spec_order():
    results = ExperimentRunner().run(SPECS)
    assert [r.spec for r in results] == SPECS


def test_parallel_matches_serial_exactly():
    serial = ExperimentRunner(jobs=1).run(SPECS)
    parallel = ExperimentRunner(jobs=2).run(SPECS)
    assert _reports(serial) == _reports(parallel)
    assert [r.extras for r in serial] == [r.extras for r in parallel]


def test_meta_records_provenance():
    result = ExperimentRunner().run_one(
        RunSpec.make("gauss", "no-reliability", workload_kwargs={"n": 900}, seed=3)
    )
    meta = result.report.meta
    assert meta["workload"] == "gauss"
    assert meta["policy"] == "no-reliability"
    assert meta["seed"] == 3


def test_machine_knobs_travel_as_recorded_overrides(monkeypatch):
    """``pageout_window`` and ``free_batch`` are build keywords: they
    reach the assembled machine and the report's provenance."""
    from repro.core import builder

    built = []
    build_cluster = builder.build_cluster

    def recording_build(**kwargs):
        built.append(build_cluster(**kwargs))
        return built[-1]

    monkeypatch.setattr(builder, "build_cluster", recording_build)
    result = ExperimentRunner().run_one(
        RunSpec.make(
            "gauss",
            "no-reliability",
            workload_kwargs={"n": 900},
            overrides={"pageout_window": 1, "free_batch": 4},
        )
    )
    (cluster,) = built
    assert (cluster.machine.pageout_window, cluster.machine.free_batch) == (1, 4)
    overrides = result.report.meta["overrides"]
    assert overrides["pageout_window"] == 1 and overrides["free_batch"] == 4


def test_cache_hit_equals_cold_run(tmp_path):
    cold_runner = ExperimentRunner(use_cache=True, cache_dir=tmp_path)
    cold = cold_runner.run(SPECS)
    assert all(not r.cached for r in cold)
    assert cold_runner.cache.misses == len(SPECS)

    warm_runner = ExperimentRunner(use_cache=True, cache_dir=tmp_path)
    warm = warm_runner.run(SPECS)
    assert all(r.cached for r in warm)
    assert warm_runner.cache.hits == len(SPECS)

    # cached=True is display-only: hits compare equal to the cold runs.
    assert warm == cold
    assert _reports(warm) == _reports(cold)


def test_no_cache_runner_never_touches_disk(tmp_path):
    runner = ExperimentRunner(use_cache=False)
    assert runner.cache is None
    runner.run([SPECS[0]])
    assert not list(tmp_path.iterdir())


def test_run_matrix_shapes_by_workload_then_policy():
    reports = ExperimentRunner().run_matrix(
        ["mvec"], ["no-reliability", "disk"], workload_kwargs={"n": 1100}
    )
    assert list(reports) == ["mvec"]
    assert list(reports["mvec"]) == ["no-reliability", "disk"]
    assert reports["mvec"]["disk"].etime > 0


def test_jobs_validation():
    assert ExperimentRunner(jobs=0).jobs >= 1
    assert ExperimentRunner(jobs=None).jobs >= 1
    with pytest.raises(ValueError):
        ExperimentRunner(jobs=-1)
