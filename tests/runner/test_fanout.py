"""Runner fan-out mechanics: persistent pool, chunking, batched cache.

The campaign-scale overhead cuts must be invisible in results: chunked
submission over a reused pool produces byte-identical reports to serial
inline execution, batched cache probes agree with individual ``get``
calls, and the cache key covers every axis a fleet cell can vary on —
network model, client count, codec backend — so fleet and single-client
cells can never collide.
"""

import dataclasses

import pytest

from repro.config import SwitchedNetworkSpec
from repro.runner import ExperimentRunner, ResultCache, RunSpec, fingerprint
from repro.runner.execute import execute_spec
from repro.runner.runner import ExperimentRunner as _Runner

SPEC = RunSpec.make("gauss", "disk", workload_kwargs={"n": 700})

#: More cells than workers * chunks-per-worker exercises multi-spec chunks.
MANY = [
    RunSpec.make("mvec", "no-reliability", workload_kwargs={"n": 600 + 20 * i})
    for i in range(9)
]


# ------------------------------------------------------------------ pool
def test_pool_persists_across_run_calls():
    runner = ExperimentRunner(jobs=2)
    assert runner._pool is None
    runner.run(MANY[:3])
    pool = runner._pool
    assert pool is not None
    runner.run(MANY[3:6])
    assert runner._pool is pool
    runner.close()
    assert runner._pool is None


def test_serial_runner_never_forks():
    runner = ExperimentRunner(jobs=1)
    runner.run(MANY[:2])
    assert runner._pool is None


def test_chunked_parallel_matches_serial_byte_identically():
    serial = ExperimentRunner(jobs=1).run(MANY)
    runner = ExperimentRunner(jobs=2)
    try:
        parallel = runner.run(MANY)
    finally:
        runner.close()
    assert [dataclasses.asdict(r.report) for r in serial] == [
        dataclasses.asdict(r.report) for r in parallel
    ]
    assert [r.extras for r in serial] == [r.extras for r in parallel]


def test_chunking_partitions_in_order():
    chunked = _Runner._chunked
    assert chunked(list(range(9)), 4) == [[0, 1, 2], [3, 4], [5, 6], [7, 8]]
    assert chunked([5], 4) == [[5]]
    flat = [i for chunk in chunked(list(range(17)), 8) for i in chunk]
    assert flat == list(range(17))


def test_broken_pool_is_discarded():
    runner = ExperimentRunner(jobs=2)
    with pytest.raises(Exception):
        runner.run(
            [RunSpec.make("no-such-workload", "disk"), MANY[0], MANY[1]]
        )
    assert runner._pool is None
    # The next run forks a fresh pool and succeeds.
    results = runner.run(MANY[:3])
    runner.close()
    assert all(r.report.etime > 0 for r in results)


# ----------------------------------------------------------------- cache
def test_get_many_matches_individual_gets(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)
    other = RunSpec.make("gauss", "disk", workload_kwargs={"n": 701})

    batched = ResultCache(tmp_path)
    hit, miss = batched.get_many([SPEC, other])
    assert miss is None
    report, extras = hit
    assert dataclasses.asdict(report) == dataclasses.asdict(result.report)
    assert extras == result.extras
    assert (batched.hits, batched.misses) == (1, 1)


def test_get_many_on_missing_directory_is_all_misses(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.get_many([SPEC, SPEC]) == [None, None]
    assert cache.misses == 2


# ------------------------------------------------------- key disjointness
def test_network_model_and_client_count_key_disjointly():
    """Fleet cells vary on axes single-client cells never set; every one
    must land in its own cache slot."""
    base = RunSpec.make("gauss", "disk")
    variants = [
        RunSpec.make(
            "gauss", "disk", overrides={"switched_spec": SwitchedNetworkSpec()}
        ),
        RunSpec.make(
            "gauss",
            "disk",
            overrides={
                "switched_spec": SwitchedNetworkSpec(),
                "analytic_switched": False,
            },
        ),
        RunSpec.make("gauss", "disk", overrides={"n_servers": 4}),
        RunSpec.make("gauss", "disk", overrides={"n_clients": 8}),
        RunSpec.make("gauss", "disk", overrides={"n_clients": 16}),
        RunSpec.make("gauss", "disk", seed=1),
    ]
    prints = [fingerprint(spec) for spec in [base] + variants]
    assert len(set(prints)) == len(prints)

