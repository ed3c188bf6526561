"""Reference-trace compilation: precomputed fault schedules.

The paper's pager only ever sees the *fault stream* (§4.3: thousands of
pageins/pageouts for an FFT that touches millions of pages), yet the
interpreted :class:`~repro.vm.machine.Machine` pays per-reference Python
for every resident hit.  This package pre-simulates the replacement
policy over a workload's reference stream in one tight pass and emits a
compact :class:`FaultSchedule` the machine replays in O(faults) —
bit-identically, because the schedule records the exact CPU-flush
amounts and fault decisions the interpreted path would make, so the
simulation-event sequence is literally unchanged (see DESIGN.md §12).
"""

from .schedule import FaultSchedule
from .compiler import compile_trace
from .plan import ReplayPlan, fleet_bypass_reason, plan_fleet, plan_run

__all__ = [
    "FaultSchedule",
    "ReplayPlan",
    "compile_trace",
    "plan_fleet",
    "fleet_bypass_reason",
    "plan_run",
]
