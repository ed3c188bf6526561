"""The GF(256) codec and the concurrent fragment datapath.

Pins the contract from DESIGN.md §15:

* **codec oracle** (hypothesis): the numpy packed-lane kernel produces
  the same fragments as a per-byte :func:`gf_mul` reference kept in this
  file, on the encode, reconstruct, and degraded-read paths, for
  arbitrary shapes, lengths (odd/even/empty), and survivor subsets.
* **streaming parity**: ``encode_many``/``data_from_many`` match the
  per-page calls exactly, including the mixed-subset and ragged-batch
  fallbacks.
* **memoisation**: per-(k, m) encode matrices and per-subset
  reconstruction rows are cached with an LRU bound and surfaced through
  ``codec_stats()``; the policy's per-instance subset counters land in
  the MetricsRegistry.
* **fan-out hygiene**: nested protocol batch-framing, the identity-keyed
  fragment memo (zero-page encode-once), and the pagein preference
  order that skips crashed/retired servers without paying a fetch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.core import build_cluster
from repro.core.policies.gf256 import (
    ReedSolomon,
    _lagrange_row,
    codec_stats,
    gf_mul,
    split_page,
)
from repro.faults import check_page_integrity
from repro.vm.page import (
    clear_fastpath_caches,
    fastpath_stats,
    zero_page,
)
from repro.workloads import SequentialScan

SMALL = MachineSpec(
    name="test-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


# --------------------------------------------------------------------------
# Codec oracle (hypothesis).
# --------------------------------------------------------------------------

def _reference_combine(fragments, row):
    """XOR of ``row[i] * fragments[i]``, one byte at a time."""
    out = bytearray(len(fragments[0]))
    for fragment, c in zip(fragments, row):
        for j, byte in enumerate(fragment):
            out[j] ^= gf_mul(c, byte)
    return bytes(out)


def _reference_encode(data, k, m):
    return [
        _reference_combine(data, _lagrange_row(range(k), k + j)) for j in range(m)
    ]


def _reference_data_from(available, k):
    src = sorted(available, key=lambda i: (i >= k, i))[:k]
    fragments = [available[i] for i in src]
    return [
        available[i] if i in available
        else _reference_combine(fragments, _lagrange_row(src, i))
        for i in range(k)
    ]


_SHAPES = st.sampled_from([(2, 1), (3, 2), (4, 2), (2, 2), (5, 3), (1, 1)])


@settings(max_examples=40, deadline=None)
@given(
    shape=_SHAPES,
    contents=st.binary(min_size=0, max_size=129),  # odd cap: exercises tails
    subset_seed=st.integers(min_value=0, max_value=2**31),
)
def test_backends_byte_identical(shape, contents, subset_seed):
    """Encode + every sampled decode subset match the per-byte reference."""
    import itertools
    import random

    k, m = shape
    fragment_size = -(-max(1, len(contents)) // k)
    data = split_page(contents, k, fragment_size)  # zero-pads the tail
    rs = ReedSolomon(k, m)

    parity = rs.encode(data)
    assert parity == _reference_encode(data, k, m)

    fragments = list(data) + list(parity)
    rng = random.Random(subset_seed)
    all_subsets = list(itertools.combinations(range(k + m), k))
    for subset in rng.sample(all_subsets, min(4, len(all_subsets))):
        available = {i: fragments[i] for i in subset}
        decoded = rs.data_from(dict(available))
        assert decoded == _reference_data_from(available, k)
        assert b"".join(decoded) == b"".join(data)


def test_zero_length_fragments():
    rs = ReedSolomon(3, 2)
    assert rs.encode([b""] * 3) == [b"", b""]
    assert rs.encode_many([[b""] * 3, [b""] * 3]) == [[b"", b""], [b"", b""]]
    assert rs.data_from({0: b"", 3: b"", 4: b""}) == [b"", b"", b""]


@settings(max_examples=25, deadline=None)
@given(
    shape=_SHAPES,
    pages=st.integers(min_value=1, max_value=5),
    length=st.integers(min_value=1, max_value=65),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_streaming_matches_per_page(shape, pages, length, seed):
    """encode_many / data_from_many == the per-page loops."""
    import random

    k, m = shape
    rng = random.Random(seed)
    stripes = [
        [bytes(rng.randrange(256) for _ in range(length)) for _ in range(k)]
        for _ in range(pages)
    ]
    rs = ReedSolomon(k, m)

    parities = [rs.encode(data) for data in stripes]
    assert rs.encode_many(stripes) == parities
    # One shared survivor subset (the batchable case) with m data lost.
    lost = rng.sample(range(k), min(m, k))
    survivors = [
        {i: stripe[i] for i in range(k) if i not in lost}
        | {k + j: parity[j] for j in range(m)}
        for stripe, parity in zip(stripes, parities)
    ]

    batched = rs.data_from_many([dict(s) for s in survivors])
    assert batched == [rs.data_from(dict(s)) for s in survivors]
    assert batched == [list(stripe) for stripe in stripes]


def test_streaming_mixed_subsets_fall_back_per_page():
    """Heterogeneous survivor sets decode correctly (per-page fallback)."""
    k, m = 3, 2
    rs = ReedSolomon(k, m)
    stripes = [split_page(bytes(range(30 * i, 30 * i + 30)), k, 10)
               for i in range(1, 4)]
    parities = [rs.encode(data) for data in stripes]
    survivors = [
        {0: stripes[0][0], 1: stripes[0][1], 2: stripes[0][2]},   # all data
        {0: stripes[1][0], 3: parities[1][0], 4: parities[1][1]},  # 2 lost
        {1: stripes[2][1], 2: stripes[2][2], 3: parities[2][0]},   # 1 lost
    ]
    decoded = rs.data_from_many(survivors)
    assert decoded == [list(stripe) for stripe in stripes]


def test_encode_many_rejects_ragged_stripes():
    rs = ReedSolomon(2, 1)
    with pytest.raises(ValueError):
        rs.encode_many([[b"aa", b"bb"], [b"ccc", b"ddd"]])
    with pytest.raises(ValueError):
        rs.encode_many([[b"aa", b"bbb"]])


# --------------------------------------------------------------------------
# Coefficient caches.
# --------------------------------------------------------------------------

def test_codec_stats_surface_row_caches():
    rs = ReedSolomon(4, 2)
    data = split_page(bytes(range(64)), 4, 16)
    parity = rs.encode(data)
    before = codec_stats()
    available = {0: data[0], 1: data[1], 4: parity[0], 5: parity[1]}
    rs.data_from(dict(available))
    rs.data_from(dict(available))  # same subset: second hit is cached
    after = codec_stats()
    assert after["recon_rows_cached"] >= 1
    assert after["recon_row_hits"] > before["recon_row_hits"]
    assert after["encode_matrices"] >= 1


def test_policy_surfaces_subset_counters_in_metrics():
    """Per-instance codec row hit/miss counters land in the registry."""
    cluster = build_cluster(
        policy="ec-2-1",
        machine_spec=SMALL,
        n_servers=8,
        content_mode=True,
        seed=3,
        server_capacity_pages=600,
    )
    cluster.run(SequentialScan(n_pages=300, passes=1, write=True))
    cluster.servers[1].crash()
    report = check_page_integrity(cluster)
    assert report.clean
    snapshot = cluster.metrics.snapshot()
    # Degraded reads hit the reconstruction-row path: the first subset
    # misses, repeats hit — and both streams are per-instance, so the
    # numbers are identical run-to-run regardless of process-global
    # cache warmth.
    assert snapshot["policy.codec_row_misses"] >= 1
    assert snapshot["policy.codec_row_hits"] >= 1


# --------------------------------------------------------------------------
# Fragment memo (content fast path).
# --------------------------------------------------------------------------

def test_fragment_memo_counts_repeat_encodes():
    clear_fastpath_caches()
    cluster = build_cluster(
        policy="ec-2-1",
        machine_spec=SMALL,
        n_servers=8,
        content_mode=True,
        seed=3,
        server_capacity_pages=600,
    )
    # A real run fills the memo: every content-mode pageout records its
    # stripe keyed by payload identity.
    cluster.run(SequentialScan(n_pages=300, passes=2, write=True))
    stats = fastpath_stats()
    assert stats["fragment_entries"] > 0
    # Re-encoding an already-seen shared payload is a pure memo hit and
    # returns the identical fragment list (page_bytes hands out shared
    # objects per (page, version), which is what makes identity keying
    # pay off for re-pageouts of unchanged pages).
    from repro.vm.page import page_bytes

    contents = page_bytes(7, 1, SMALL.page_size)
    first = cluster.policy._encode(contents)
    hits_before = fastpath_stats()["fragment_hits"]
    assert cluster.policy._encode(contents) is first
    assert fastpath_stats()["fragment_hits"] == hits_before + 1


def test_zero_page_fragments_encoded_once():
    clear_fastpath_caches()
    from repro.core.policies.erasure import ErasureCoding

    shape = (2, 1, 4096)
    page = zero_page(8192)
    assert page is zero_page(8192)  # the singleton the memo keys on
    from repro.vm.page import fragment_memo_get, fragment_memo_put

    assert fragment_memo_get(page, shape) is None
    fragment_memo_put(page, shape, ["frags"])
    assert fragment_memo_get(page, shape) == ["frags"]
    assert fragment_memo_get(page, (4, 2, 2048)) is None  # shape-guarded
    assert fastpath_stats()["fragment_hits"] == 1
    assert ErasureCoding is not None  # the consumer of this memo


# --------------------------------------------------------------------------
# Nested batch framing + pagein preference order.
# --------------------------------------------------------------------------

def test_cluster_framing_nests():
    """An inner same-source cluster consumes the shared head; the outer
    frame keeps amortising after it closes."""
    from repro.core.builder import build_cluster as build

    cluster = build(
        policy="no-reliability",
        machine_spec=SMALL,
        n_servers=2,
        server_capacity_pages=600,
    )
    stack = cluster.stack
    sim = cluster.sim

    def drain(src, dst, n):
        for _ in range(n):
            yield from stack.send_page(src, dst, 8192)

    def scenario():
        stack.begin_cluster("client")
        yield from drain("client", "server-0", 1)   # outer head
        stack.begin_cluster("client")               # same-source nest
        yield from drain("client", "server-0", 2)   # both batched
        stack.end_cluster()
        yield from drain("client", "server-0", 1)   # still batched
        stack.end_cluster()
        yield from drain("client", "server-0", 1)   # full cost again

    sim.process(scenario())
    sim.run()
    counters = stack.counters
    assert counters["batch_heads"] == 1
    assert counters["batched_page_sends"] == 3

    # Different-source nesting gets its own head and restores the outer
    # frame's amortisation when it closes.
    def mixed_sources():
        stack.begin_cluster("client")
        yield from drain("client", "server-0", 2)    # new head + 1 batched
        stack.begin_cluster("server-0")
        yield from drain("server-0", "server-1", 2)  # own head + 1 batched
        stack.end_cluster()
        yield from drain("client", "server-0", 1)    # outer still batched
        stack.end_cluster()

    sim.process(mixed_sources())
    sim.run()
    assert counters["batch_heads"] == 3
    assert counters["batched_page_sends"] == 6


def test_pagein_skips_crashed_and_retired_servers():
    """Known-dead fragment holders cost zero fetch attempts."""
    cluster = build_cluster(
        policy="ec-2-1",
        machine_spec=SMALL,
        n_servers=8,
        content_mode=True,
        seed=3,
        server_capacity_pages=600,
    )
    cluster.run(SequentialScan(n_pages=300, passes=1, write=True))
    baseline_timeouts = cluster.stack.counters["rpc_timeouts"]
    cluster.servers[0].crash()
    report = check_page_integrity(cluster)
    assert report.clean
    counters = cluster.policy.counters
    # Every stripe with a fragment on the dead server skipped it up
    # front instead of burning a fetch attempt on it.
    assert counters["fetches_skipped"] > 0
    assert cluster.stack.counters["rpc_timeouts"] == baseline_timeouts
