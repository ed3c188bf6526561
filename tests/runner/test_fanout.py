"""Runner fan-out: one pool per ``run()``, results in spec order.

Parallel execution must be invisible in results: a pool fanning specs
out produces byte-identical reports to serial inline execution, a
failing spec leaves the runner usable, a workload registered between
two ``run()`` calls resolves in the workers exactly as it does inline,
and the cache key covers every axis a fleet cell can vary on — network
model, client count, codec backend — so fleet and single-client cells
can never collide.
"""

import dataclasses

import pytest

from repro.config import SwitchedNetworkSpec
from repro.runner import ExperimentRunner, RunSpec, fingerprint
from repro.runner import runner as runner_module
from repro.runner.registry import WORKLOADS, register_workload
from repro.workloads import Mvec

MANY = [
    RunSpec.make("mvec", "no-reliability", workload_kwargs={"n": 600 + 20 * i})
    for i in range(9)
]


def _reports(results):
    return [dataclasses.asdict(r.report) for r in results]


# ------------------------------------------------------------------ pool
def test_serial_runner_never_forks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a jobs=1 runner opened a process pool")

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", refuse)
    results = ExperimentRunner(jobs=1).run(MANY[:2])
    assert all(r.report.etime > 0 for r in results)


def test_parallel_matches_serial_byte_identically():
    serial = ExperimentRunner(jobs=1).run(MANY)
    parallel = ExperimentRunner(jobs=2).run(MANY)
    assert _reports(serial) == _reports(parallel)
    assert [r.extras for r in serial] == [r.extras for r in parallel]


def test_broken_pool_is_discarded():
    """A failing spec raises out of ``run()``; its pool goes with the
    call, and the next ``run()`` succeeds."""
    runner = ExperimentRunner(jobs=2)
    with pytest.raises(Exception):
        runner.run(
            [RunSpec.make("no-such-workload", "disk"), MANY[0], MANY[1]]
        )
    results = runner.run(MANY[:3])
    assert all(r.report.etime > 0 for r in results)


def test_workload_registered_after_a_parallel_run_resolves():
    """Workers see the registries as they stand at each ``run()``."""
    name = "mvec-registered-late"
    runner = ExperimentRunner(jobs=2)
    runner.run(MANY[:2])
    register_workload(name, lambda n: Mvec(n=n))
    try:
        late = [
            RunSpec.make(name, "no-reliability", workload_kwargs={"n": n})
            for n in (600, 640)
        ]
        parallel = runner.run(late)
        serial = ExperimentRunner(jobs=1).run(late)
    finally:
        WORKLOADS.pop(name, None)
    assert _reports(parallel) == _reports(serial)


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
