"""The fault-schedule artifact: a compiled reference stream.

Format 2 stores the schedule **columnar**, one array per op field,
instead of format 1's flat ``["c", ...]/["b", ...]/["f", ...]`` op
list.  Execution order is segment-major: segment ``i`` (one per fault,
plus a trailing tail segment) is

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

The columns are plain Python lists (JSON-trivial, and exactly what the
replay hot loop wants — no numpy scalars can leak into simulator
arithmetic); :meth:`arrays` materialises cached numpy views for the
reductions (§4.3 transfer/CPU terms, validation).  ``policy_state``
and ``final_ptes`` snapshot the replacement policy and every touched
page-table entry as interpreted execution would leave them, so a
replayed machine is indistinguishable after the run too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as _np

__all__ = ["FaultSchedule", "SCHEDULE_FORMAT"]

#: Bump when the op or artifact layout changes incompatibly.  The
#: schedule cache hashes this into every entry path, so a bump makes
#: stale entries silently miss (they are never deserialised).
SCHEDULE_FORMAT = 2



@dataclass
class FaultSchedule:
    """A compiled reference stream, ready for ``Machine.run_schedule``."""

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
    #: Provenance: the cache key fields the schedule was compiled under.
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------ views
    @property
    def n_ops(self) -> int:
        """Op count in the equivalent flat (format 1) encoding."""
        return (
            len(self.chunk_cpu)
            + self.n_faults
            + sum(1 for n in self.seg_bumps if n)
        )

    @property
    def ops(self) -> List[list]:
        """Flat format-1 op list, reconstructed on demand (diagnostics)."""
        ops: List[list] = []
        ci = bi = vi = 0
        n_faults = self.n_faults
        for s, (nc, nb) in enumerate(zip(self.seg_chunks, self.seg_bumps)):
            for j in range(ci, ci + nc):
                ops.append(["c", self.chunk_cpu[j]])
            ci += nc
            if nb:
                ops.append(["b", self.bump_pages[bi:bi + nb]])
                bi += nb
            if s < n_faults:
                nv = self.victim_lens[s]
                flags = self.fault_flags[s]
                ops.append([
                    "f", self.fault_page[s], flags & 1, (flags >> 1) & 1,
                    self.victims[vi:vi + nv],
                ])
                vi += nv
        return ops

    def arrays(self) -> Dict[str, Any]:
        """Cached numpy views of the columns."""
        cached = self.__dict__.get("_arrays")
        if cached is None:
            cached = self.__dict__["_arrays"] = {
                "chunk_cpu": _np.asarray(self.chunk_cpu, dtype=_np.float64),
                "seg_chunks": _np.asarray(self.seg_chunks, dtype=_np.int64),
                "seg_bumps": _np.asarray(self.seg_bumps, dtype=_np.int64),
                "fault_page": _np.asarray(self.fault_page, dtype=_np.int64),
                "fault_flags": _np.asarray(self.fault_flags, dtype=_np.uint8),
                "victim_lens": _np.asarray(self.victim_lens, dtype=_np.int64),
            }
        return cached

    def transfer_counts(self) -> Dict[str, int]:
        """Array-reduced transfer profile: pageins, pageouts, zero fills."""
        arrays = self.arrays()
        pageins = int(((arrays["fault_flags"] & 2) != 0).sum())
        pageouts = int(arrays["victim_lens"].sum())
        return {
            "pageins": pageins,
            "pageouts": pageouts,
            "zero_fills": self.n_faults - pageins,
            "transfers": pageins + pageouts,
        }

    def total_cpu(self) -> float:
        """Array-reduced total user-CPU flush (diagnostic; the replay
        accumulates the same chunks sequentially for bit-exactness)."""
        return float(self.arrays()["chunk_cpu"].sum())

    # ---------------------------------------------------------- serialise
    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (floats round-trip exactly via repr)."""
        return {
            "format": SCHEDULE_FORMAT,
            "chunk_cpu": self.chunk_cpu,
            "seg_chunks": self.seg_chunks,
            "seg_bumps": self.seg_bumps,
            "bump_pages": self.bump_pages,
            "fault_page": self.fault_page,
            "fault_flags": self.fault_flags,
            "victim_lens": self.victim_lens,
            "victims": self.victims,
            "n_refs": self.n_refs,
            "n_faults": self.n_faults,
            "policy_state": self.policy_state,
            "final_ptes": self.final_ptes,
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        if data.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"incompatible schedule format {data.get('format')!r} "
                f"(expected {SCHEDULE_FORMAT})"
            )
        return cls(
            chunk_cpu=data["chunk_cpu"],
            seg_chunks=data["seg_chunks"],
            seg_bumps=data["seg_bumps"],
            bump_pages=data["bump_pages"],
            fault_page=data["fault_page"],
            fault_flags=data["fault_flags"],
            victim_lens=data["victim_lens"],
            victims=data["victims"],
            n_refs=data["n_refs"],
            n_faults=data["n_faults"],
            policy_state=data["policy_state"],
            final_ptes=data["final_ptes"],
            meta=data.get("meta", {}),
        )
