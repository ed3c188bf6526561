"""Attribute host time to the simulator's layers, from outside ``src/``.

Two instruments, used on separate passes of the same workload:

* :class:`Spans` wraps the public entry points -- ``build_cluster`` /
  ``build_fleet``, ``plan_run`` / ``plan_fleet``, ``Cluster.run``,
  ``Simulator.run_until_complete``, ``ExperimentRunner.run`` and the
  ``render_*`` tables -- with timed spans, and reads exact kernel event
  counts from ``Simulator.claim_seq()`` deltas.  It patches module and
  class attributes for the duration of a ``with`` block and restores
  them on exit.
* :func:`profile_layers` folds a ``cProfile`` run into per-layer self
  time and call counts through the fixed module-to-layer map
  :data:`LAYER_MAP`.  The kernel calls every other layer, so spans cannot
  reach inside it; the profile can.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

__all__ = [
    "LAYERS",
    "LAYER_MAP",
    "PROFILE_COUNTS",
    "Spans",
    "layer_of",
    "profile_layers",
]

#: Path under ``src/repro/`` -> layer; the first matching prefix wins.
#: Anything outside the package (the standard library, numpy, builtins
#: such as ``heappush``, this benchmark) and the modules not listed
#: (``analysis/``, ``config``, ``units``, ``log``, ``errors``, ``cli``)
#: count as ``other``.
LAYER_MAP: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("net/ethernet.py", "net.ethernet"),
    ("net/switched.py", "net.switched"),
    ("net/", "net.protocol"),
    ("vm/", "vm"),
    ("core/policies/gf256.py", "gf256"),
    ("core/policies/", "policies"),
    ("core/", "core"),
    ("cluster/", "core"),
    ("compile/", "compile"),
    ("pipeline/", "pipeline"),
    ("faults/", "faults"),
    ("disk/", "disk"),
    ("workloads/", "workloads"),
    ("runner/", "runner"),
    ("experiments/", "runner"),
    ("obs/", "obs"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer in LAYER_MAP)) + (
    "other",
)

#: Per-layer metric name -> (module path, function qualname) whose
#: profiled call count stands in for an engine counter the program does
#: not expose yet.
PROFILE_COUNTS: Dict[str, Tuple[str, str]] = {
    # One analytic hold per message the uncontended fast path served.
    "net.ethernet.fast_holds": ("net/ethernet.py", "_FastHold.__init__"),
    # Holds that a second sender forced back onto the frame-level walk.
    "net.ethernet.devirtualizations": ("net/ethernet.py", "EthernetCsmaCd._devirtualize"),
    # Frame transmission attempts on the CSMA/CD walk, collisions included.
    "net.ethernet.frame_walks": ("net/ethernet.py", "EthernetCsmaCd._begin"),
    "net.switched.devirtualizations": ("net/switched.py", "SwitchedNetwork._devirtualize"),
}

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _package_path(filename: str) -> str:
    """``filename`` relative to ``src/repro/`` ('' when outside it)."""
    head, mark, tail = filename.rpartition(_PACKAGE_MARK)
    return tail.replace(os.sep, "/") if mark else ""


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    path = _package_path(filename)
    if path:
        for prefix, layer in LAYER_MAP:
            if path.startswith(prefix):
                return layer
    return "other"


def profile_layers(profiler) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """Fold a finished ``cProfile.Profile`` into layers.

    Returns ``(self_s, calls, counts)``: self time and call count per
    layer (every layer present, zeros included), and the
    :data:`PROFILE_COUNTS` call counts.  Self time is cProfile's inline
    time, so the layers partition the profiled total exactly.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    wanted = {where: name for name, where in PROFILE_COUNTS.items()}
    counts = dict.fromkeys(PROFILE_COUNTS, 0)
    for entry in profiler.getstats():
        code = entry.code
        filename = "" if isinstance(code, str) else code.co_filename
        layer = layer_of(filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if filename:
            name = wanted.get((_package_path(filename), code.co_qualname))
            if name is not None:
                counts[name] += entry.callcount
    return self_s, calls, counts


class Spans:
    """Timed spans around repro's public entry points.

    ``totals[name]`` is the summed duration of every span of that name,
    ``self_s[name]`` the same minus the time its child spans cover.
    Span names: ``core.build``, ``core.run``, ``compile.plan``,
    ``sim.run``, ``runner.run`` (``ExperimentRunner.run``, and the whole
    pass when the caller wraps it with :meth:`call`) and
    ``runner.render``.
    ``events`` sums ``Simulator.claim_seq()`` deltas over every
    ``run_until_complete`` call; ``planned``/``compiled`` count the runs
    the compiler planned and the ones it served a schedule.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.planned = 0
        self.compiled = 0
        self._stack: List[List[float]] = []
        self._saved: List[tuple] = []

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.totals[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._span(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, name: str, fn=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._span(name, fn or original))

    def __enter__(self) -> "Spans":
        from repro import compile as compile_pkg
        from repro.core import builder
        from repro.experiments import fig2, fleet, resilience
        from repro.runner.runner import ExperimentRunner
        from repro.sim.core import Simulator

        run_until_complete = Simulator.run_until_complete

        def counted_run(sim, process, *args, **kwargs):
            before = sim.claim_seq()
            try:
                return run_until_complete(sim, process, *args, **kwargs)
            finally:
                self.events += sim.claim_seq() - before - 1

        plan_run = compile_pkg.plan_run

        def counted_plan_run(cluster, workload):
            plan = plan_run(cluster, workload)
            self.planned += 1
            self.compiled += plan.schedule is not None
            return plan

        plan_fleet = compile_pkg.plan_fleet

        def counted_plan_fleet(clients, network=None):
            schedules = plan_fleet(clients, network=network)
            self.planned += len(schedules)
            self.compiled += sum(s is not None for s in schedules)
            return schedules

        self._patch(builder, "build_cluster", "core.build")
        self._patch(fleet, "build_fleet", "core.build")
        self._patch(compile_pkg, "plan_run", "compile.plan", counted_plan_run)
        self._patch(compile_pkg, "plan_fleet", "compile.plan", counted_plan_fleet)
        self._patch(builder.Cluster, "run", "core.run")
        self._patch(Simulator, "run_until_complete", "sim.run", counted_run)
        self._patch(ExperimentRunner, "run", "runner.run")
        self._patch(fig2, "render_fig2", "runner.render")
        self._patch(fleet, "render_fleet", "runner.render")
        self._patch(resilience, "render_resilience", "runner.render")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
