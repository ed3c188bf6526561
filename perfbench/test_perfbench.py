"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q

The engine-identity tests run every workload at reduced size with the
fast tiers on and off and require the same digests, so the committed
reference digests are the reference engine's output and not an artefact
of a fast tier.  The full-size check is
``python3 perfbench/run.py --workload <name> --write-reference``, which
runs both engines at the default seed and names every run they disagree
on.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from cases import CASES, DEFAULT_SEED  # noqa: E402
from layers import LAYER_MAP, LAYERS, PROFILE_COUNTS, Spans, layer_of  # noqa: E402


@pytest.fixture(autouse=True)
def _no_schedule_cache(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "0")


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_tiers_give_reference_engine_digests(name):
    with Spans() as spans:
        fast = CASES[name](DEFAULT_SEED, fast=True, small=True).run()
    compiled_fast = spans.compiled
    with Spans() as spans:
        reference = CASES[name](DEFAULT_SEED, fast=False, small=True).run()
    assert reference.pages > 0
    assert not fast.broken and not reference.broken
    assert fast.cells == reference.cells
    assert fast.counts["vm.pageins"] == reference.counts["vm.pageins"]
    # Not vacuous: the fast run really replayed compiled schedules.
    assert compiled_fast > 0
    assert spans.compiled == 0


#: Top-level package entries outside every named layer (they count as
#: ``other``): rendering, configuration and the command line.
UNLAYERED = {"__init__.py", "__main__.py", "analysis", "cli.py", "config.py",
             "errors.py", "log.py", "units.py"}


def test_every_package_module_has_a_named_layer():
    src = HERE.parent / "src" / "repro"
    for path in src.rglob("*.py"):
        top = path.relative_to(src).parts[0]
        assert (layer_of(str(path)) == "other") == (top in UNLAYERED), path
    assert layer_of(os.__file__) == "other"
    assert set(LAYERS) == {layer for _, layer in LAYER_MAP} | {"other"}


@pytest.mark.parametrize("name", sorted(PROFILE_COUNTS))
def test_profile_counters_name_existing_functions(name):
    path, qualname = PROFILE_COUNTS[name]
    module = importlib.import_module("repro." + path[: -len(".py")].replace("/", "."))
    owner = module
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_spans_time_a_run_and_restore_the_entry_points():
    from repro.core import builder
    from repro.sim.core import Simulator
    from repro.workloads import SequentialScan

    before = (builder.build_cluster, builder.Cluster.run, Simulator.run_until_complete)
    with Spans() as spans:
        builder.build_cluster(policy="no-reliability").run(SequentialScan(n_pages=50))
    assert (builder.build_cluster, builder.Cluster.run, Simulator.run_until_complete) == before
    assert spans.events > 0
    assert spans.planned == 1
    assert 0 < spans.totals["sim.run"] <= spans.totals["core.run"]
