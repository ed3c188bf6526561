"""Experiment-harness API tests.  The full-size paper claims are gated in
``tests/experiments/test_paper_claims.py``."""

from repro.experiments import PAPER_CONFIGS, render_fig2, run_fig2, run_policy
from repro.workloads import Mvec


def test_paper_configs_match_section_4_1():
    assert PAPER_CONFIGS["no-reliability"]["n_servers"] == 2
    assert PAPER_CONFIGS["parity-logging"]["n_servers"] == 4
    assert PAPER_CONFIGS["parity-logging"]["overflow_fraction"] == 0.10
    assert PAPER_CONFIGS["mirroring"]["n_servers"] == 2
    assert PAPER_CONFIGS["disk"]["policy"] == "disk"


def test_run_policy_returns_report():
    report = run_policy(lambda: Mvec(n=600), "no-reliability")
    assert report.etime > 0
    assert report.name == "mvec"


def test_run_policy_cluster_hook_runs():
    seen = {}

    def hook(cluster):
        seen["servers"] = len(cluster.servers)

    run_policy(lambda: Mvec(n=400), "mirroring", cluster_hook=hook)
    assert seen["servers"] == 2


def test_fig2_subset_runs_and_renders():
    reports = run_fig2(apps=["mvec"], policies=["no-reliability", "disk"])
    assert set(reports) == {"mvec"}
    assert set(reports["mvec"]) == {"no-reliability", "disk"}
    text = render_fig2(reports)
    assert "mvec" in text and "ranking" in text
