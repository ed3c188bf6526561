"""Experiment-harness API tests.  The full-size paper claims are gated in
``tests/experiments/test_paper_claims.py``."""

import pytest

from repro.experiments import PAPER_CONFIGS, render_fig2, run_fig2, run_policy
from repro.runner import registry
from repro.workloads import Mvec


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made by the test vanish with it."""
    monkeypatch.setattr(registry, "WORKLOADS", dict(registry.WORKLOADS))
    monkeypatch.setattr(registry, "HOOKS", dict(registry.HOOKS))


def test_paper_configs_match_section_4_1():
    assert PAPER_CONFIGS["no-reliability"]["n_servers"] == 2
    assert PAPER_CONFIGS["parity-logging"]["n_servers"] == 4
    assert PAPER_CONFIGS["parity-logging"]["overflow_fraction"] == 0.10
    assert PAPER_CONFIGS["mirroring"]["n_servers"] == 2
    assert PAPER_CONFIGS["disk"]["policy"] == "disk"


def test_run_policy_returns_report(scratch_registry):
    registry.register_workload("mvec-600", lambda: Mvec(n=600))
    report = run_policy("mvec-600", "no-reliability")
    assert report.etime > 0
    assert report.name == "mvec"
    assert report.meta["policy"] == "no-reliability"
    assert "metrics" in report.meta


def test_run_policy_cluster_hook_runs(scratch_registry):
    seen = {}

    def count_servers():
        def hook(cluster):
            seen["servers"] = len(cluster.servers)

        return hook

    registry.register_workload("mvec-400", lambda: Mvec(n=400))
    registry.register_hook("count-servers", count_servers)
    run_policy("mvec-400", "mirroring", cluster_hook="count-servers")
    assert seen["servers"] == 2


def test_fig2_subset_runs_and_renders():
    reports = run_fig2(apps=["mvec"], policies=["no-reliability", "disk"])
    assert set(reports) == {"mvec"}
    assert set(reports["mvec"]) == {"no-reliability", "disk"}
    text = render_fig2(reports)
    assert "mvec" in text and "ranking" in text
