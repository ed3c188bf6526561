"""The trace compiler: one tight pre-pass over a reference stream.

:func:`compile_trace` replicates, decision for decision, what
``Machine._execute`` would do with the same stream — the float-exact
``pending_cpu`` accumulation and its ``max_cpu_chunk`` flush boundaries,
the buffered ``touch_batch`` application before every eviction decision,
the ``free_batch`` eviction loop, dirty/backing-store tracking — but
with no simulator, no page-table objects, and no pager: just the
replacement policy and per-page state bits.  The output schedule is
therefore a faithful run-length encoding of the interpreted execution
(``tests/compile`` pins byte-identical reports across every policy and
application).

The compiler must be handed a *fresh* policy instance of the same class
the machine will run (it consumes it: evictions mutate its state); the
policy's final order is exported into the schedule so the replayed
machine can restore it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..vm.replacement import ReplacementPolicy
from .schedule import FaultSchedule

__all__ = ["compile_trace"]

#: A trace step, as in ``repro.vm.machine``.
Ref = Tuple[int, bool, float]

# Per-page state bits during compilation (indices into the state list).
_RESIDENT, _DIRTY, _REFERENCED, _ON_BACKING = 0, 1, 2, 3


def compile_trace(
    trace: Iterable[Ref],
    *,
    user_frames: int,
    policy: ReplacementPolicy,
    cpu_speed: float,
    max_cpu_chunk: float,
    free_batch: int,
) -> FaultSchedule:
    """Pre-simulate replacement over ``trace``; emit the fault schedule."""
    if user_frames < 1:
        raise ValueError("user_frames must be >= 1")
    if len(policy) != 0:
        raise ValueError("compile_trace needs a fresh (empty) policy instance")

    # Columnar schedule under construction (format 2, see schedule.py):
    # segment-major arrays instead of a flat op list.
    chunk_cpu: list = []
    seg_chunks: list = []
    seg_bumps: list = []
    bump_pages: list = []
    fault_page: list = []
    fault_flags: list = []
    victim_lens: list = []
    all_victims: list = []

    states: dict = {}
    touches: list = []
    touch_append = touches.append
    bumps: list = []
    pending_cpu = 0.0
    cur_chunks = 0
    n_refs = 0
    n_faults = 0

    for page_id, is_write, cpu in trace:
        n_refs += 1
        pending_cpu += cpu / cpu_speed
        st = states.get(page_id)
        if st is None:
            st = states[page_id] = [False, False, False, False]
        if st[_RESIDENT]:
            st[_REFERENCED] = True
            if is_write and not st[_DIRTY]:
                st[_DIRTY] = True
                bumps.append(page_id)
            touch_append(page_id)
            if pending_cpu >= max_cpu_chunk:
                if touches:
                    policy.touch_batch(touches)
                    touches.clear()
                chunk_cpu.append(pending_cpu)
                cur_chunks += 1
                pending_cpu = 0.0
            continue

        # Page fault: close the hit span (segment), then record the
        # decisions the interpreted fault path would make.
        if touches:
            policy.touch_batch(touches)
            touches.clear()
        if pending_cpu > 0.0:
            chunk_cpu.append(pending_cpu)
            cur_chunks += 1
            pending_cpu = 0.0
        seg_chunks.append(cur_chunks)
        cur_chunks = 0
        seg_bumps.append(len(bumps))
        bump_pages.extend(bumps)
        bumps.clear()

        victims: list = []
        if len(policy) >= user_frames:
            batch = min(free_batch, len(policy))
            for _ in range(batch):
                victim_id = policy.evict()
                vst = states[victim_id]
                vst[_RESIDENT] = False
                if vst[_DIRTY]:
                    vst[_DIRTY] = False
                    vst[_ON_BACKING] = True
                    victims.append(victim_id)

        fault_page.append(page_id)
        fault_flags.append((1 if is_write else 0) | (2 if st[_ON_BACKING] else 0))
        victim_lens.append(len(victims))
        all_victims.extend(victims)
        n_faults += 1
        st[_RESIDENT] = True
        st[_DIRTY] = bool(is_write)
        st[_REFERENCED] = True
        policy.insert(page_id)

    if touches:
        policy.touch_batch(touches)
        touches.clear()
    if pending_cpu > 0.0:
        chunk_cpu.append(pending_cpu)
        cur_chunks += 1
    seg_chunks.append(cur_chunks)  # tail segment after the last fault
    seg_bumps.append(len(bumps))
    bump_pages.extend(bumps)

    final_ptes = [
        [page_id, st[_RESIDENT], st[_DIRTY], st[_REFERENCED], st[_ON_BACKING]]
        for page_id, st in states.items()
    ]
    return FaultSchedule(
        chunk_cpu=chunk_cpu,
        seg_chunks=seg_chunks,
        seg_bumps=seg_bumps,
        bump_pages=bump_pages,
        fault_page=fault_page,
        fault_flags=fault_flags,
        victim_lens=victim_lens,
        victims=all_victims,
        n_refs=n_refs,
        n_faults=n_faults,
        policy_state=policy.export_state(),
        final_ptes=final_ptes,
    )
