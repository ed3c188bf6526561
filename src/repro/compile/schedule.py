"""The fault-schedule artifact: a compiled reference stream.

The schedule is stored **columnar**, one list per op field, rather
than as a flat ``["c", ...]/["b", ...]/["f", ...]`` op list.  Execution
order is segment-major: segment ``i`` (one per fault, plus a trailing
tail segment) is

* ``seg_chunks[i]`` CPU-flush amounts taken in order from
  ``chunk_cpu`` — the *exact* ``pending_cpu`` values the interpreted
  hot loop would flush (accumulated in the same float order, cut at
  the same ``max_cpu_chunk`` boundaries and fault points);
* ``seg_bumps[i]`` page ids taken from ``bump_pages`` — version bumps
  for pages first-written during the hit span (clean->dirty
  transitions).  Bumps only feed ``PageVersioner.contents`` reads,
  which happen at fault time, so applying them at the span boundary
  preserves every pageout payload;
* for ``i < n_faults``, one recorded fault: ``fault_page[i]``,
  ``fault_flags[i]`` (bit 0 = the reference wrote, bit 1 = the page is
  on backing store, i.e. pagein rather than zero-fill) and
  ``victim_lens[i]`` *dirty* victims from ``victims``, in eviction
  order.  Clean victims leave no trace at fault time (their page-table
  flags are part of ``final_ptes``).

The columns are plain Python lists, exactly what the replay hot loop
wants.  ``policy_state`` and ``final_ptes`` snapshot the replacement
policy and every touched page-table entry as interpreted execution
would leave them, so a replayed machine is indistinguishable after the
run too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["FaultSchedule"]


@dataclass
class FaultSchedule:
    """A compiled reference stream, ready for ``Machine.run_plan``."""

    #: CPU-flush amounts (simulated seconds), all segments concatenated.
    chunk_cpu: List[float]
    #: Per-segment chunk counts; ``len(seg_chunks) == n_faults + 1``.
    seg_chunks: List[int]
    #: Per-segment version-bump counts (same length as ``seg_chunks``).
    seg_bumps: List[int]
    #: Bumped page ids, all segments concatenated.
    bump_pages: List[int]
    #: Faulting page per fault.
    fault_page: List[int]
    #: Fault flag bits per fault (bit 0 = write, bit 1 = pagein).
    fault_flags: List[int]
    #: Dirty-victim batch length per fault.
    victim_lens: List[int]
    #: Dirty victims, all faults concatenated, in eviction order.
    victims: List[int]
    n_refs: int
    n_faults: int
    policy_state: Any
    final_ptes: List[list]

    @property
    def n_ops(self) -> int:
        """Op count in the equivalent flat op-list encoding."""
        return (
            len(self.chunk_cpu)
            + self.n_faults
            + sum(1 for n in self.seg_bumps if n)
        )
