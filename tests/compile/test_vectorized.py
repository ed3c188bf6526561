"""Columnar schedules and vectorized replay equivalence.

Two layers of pinning for the compiled-replay fast path:

* **structural** — the columnar artifact's invariants: segment counts
  tie out against the concatenated columns, and the merged-chunk
  segments the replay path reconciles actually occur.
* **behavioural** — hypothesis drives randomized synthetic workloads
  through compiled replay (merged-chunk ``sim.at`` reconciliation) and
  interpreted execution across every reliability policy and every
  batch-capable replacement, requiring the ``CompletionReport`` to
  match float-for-float.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_trace
from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.vm.replacement import LruReplacement, make_replacement
from repro.workloads import Gauss, HotCold

_SMALL = MachineSpec(
    name="vectorized-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)

_POLICIES = ("disk", "no-reliability", "mirroring", "parity-logging", "write-through")
_REPLACEMENTS = ("fifo", "lru", "clock")


def _compile_gauss(max_cpu_chunk=0.25):
    return compile_trace(
        Gauss(n=400, passes=2).trace(),
        user_frames=128,
        policy=LruReplacement(),
        cpu_speed=1.0,
        max_cpu_chunk=max_cpu_chunk,
        free_batch=16,
    )


# ------------------------------------------------------------- structural

def test_columnar_counts_tie_out():
    schedule = _compile_gauss()
    assert schedule.n_faults == len(schedule.fault_page)
    assert len(schedule.seg_chunks) == schedule.n_faults + 1
    assert len(schedule.seg_bumps) == schedule.n_faults + 1
    assert sum(schedule.seg_chunks) == len(schedule.chunk_cpu)
    assert sum(schedule.seg_bumps) == len(schedule.bump_pages)
    assert len(schedule.victim_lens) == schedule.n_faults
    assert sum(schedule.victim_lens) == len(schedule.victims)


def test_merged_chunk_segments_exist_at_paper_chunking():
    """The multi-chunk merged-``sim.at`` replay path must actually be
    exercised by the equivalence suite: under the default 0.25 s CPU
    chunk, GAUSS segments split into several chunks."""
    schedule = _compile_gauss(max_cpu_chunk=0.05)
    assert max(schedule.seg_chunks) > 1


# ------------------------------------------------------------ behavioural

def _report(policy, replacement, workload, compile_on):
    cluster = build_cluster(
        policy=policy,
        n_servers=2,
        seed=7,
        machine_spec=_SMALL,
        replacement=make_replacement(replacement),
        compile_schedules=compile_on,
    )
    report = cluster.run(workload)
    return dataclasses.asdict(report), cluster.metrics.snapshot()


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(_POLICIES),
    replacement=st.sampled_from(_REPLACEMENTS),
    hot_pages=st.integers(min_value=8, max_value=160),
    cold_pages=st.integers(min_value=64, max_value=512),
    hot_fraction=st.floats(min_value=0.5, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vectorized_replay_equals_event_kernel(
    policy, replacement, hot_pages, cold_pages, hot_fraction, seed,
):
    def workload():
        return HotCold(
            hot_pages=hot_pages, cold_pages=cold_pages, n_refs=1500,
            hot_fraction=hot_fraction, seed=seed,
        )

    compiled, metrics_c = _report(policy, replacement, workload(), True)
    interpreted, metrics_i = _report(policy, replacement, workload(), False)
    assert compiled == interpreted
    assert metrics_c == metrics_i
