"""Figure-experiment edge cases the full-size gate in
``tests/experiments/test_paper_claims.py`` does not reach."""

import pytest

from repro.experiments import render_fig4, render_fig5, run_fig4, run_fig5


def test_fig4_prediction_only_mode():
    """--no-simulate: the analytic curves still render without the
    direct 10x-network simulation."""
    results = run_fig4(sizes_mb=[17.0, 21.6], simulate_fast_network=False)
    for row in results.values():
        assert "ethernet_x10_simulated" not in row
        assert row["ethernet_x10_predicted"] > 0
    text = render_fig4(results)
    assert "ethernet_x10_predicted" in text
    assert "ethernet_x10_simulated" not in text


def test_fig4_no_paging_point_all_curves_equal():
    results = run_fig4(sizes_mb=[17.0], simulate_fast_network=False)
    row = results[17.0]
    # Below the cliff there is nothing for the network to speed up.
    assert row["ethernet"] == pytest.approx(row["ethernet_x10_predicted"], rel=1e-6)
    assert row["overhead_fraction_x10"] == pytest.approx(0.0, abs=1e-6)


def test_fig5_single_app_subset():
    reports = run_fig5(apps=["mvec"], policies=["no-reliability", "write-through"])
    assert set(reports) == {"mvec"}
    text = render_fig5(reports)
    assert "mvec" in text
