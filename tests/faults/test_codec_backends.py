"""The GF(256) codec and the concurrent fragment datapath.

Pins the contract from DESIGN.md §15:

* **codec oracle** (hypothesis): the ``bytes.translate`` + integer-XOR
  codec produces the same fragments as a per-byte :func:`gf_mul`
  reference kept in this file, on the encode, reconstruct, and
  degraded-read paths, for arbitrary shapes, lengths (odd/even/empty),
  and survivor subsets, and for every one of the 256 scalars.
* **no numpy**: the package imports and runs erasure coding end to end
  in an interpreter where numpy cannot be imported, and never loads it
  where it can.
* **subset counters**: the policy's per-instance reconstruction-subset
  hit/miss counters land in the MetricsRegistry.
* **fan-out hygiene**: nested protocol batch-framing and the pagein
  preference order that skips crashed/retired servers without paying a
  fetch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.core import build_cluster
from repro.core.policies.gf256 import (
    ReedSolomon,
    _combine_rows,
    _lagrange_row,
    gf_mul,
    split_page,
)
from repro.faults import check_page_integrity
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
    assert rs.data_from({0: b"", 3: b"", 4: b""}) == [b"", b"", b""]


@pytest.mark.parametrize("length", [0, 1, 257])
def test_every_scalar_matches_reference(length):
    """Each of the 256 coefficients scales a fragment exactly as
    per-byte :func:`gf_mul` does, 0 and 1 included."""
    fragment = bytes(i % 256 for i in range(length))
    rows = [[c] for c in range(256)]
    expected = [_reference_combine([fragment], row) for row in rows]
    assert _combine_rows([fragment], rows) == expected


# --------------------------------------------------------------------------
# The package needs no numpy.
# --------------------------------------------------------------------------

#: Set-up imports perfbench's ``SETUP_CODE`` makes, plus the CLI, then a
#: reduced-size EC(4,2) content-mode run with a degraded read.
_NO_NUMPY_SCRIPT = """
import sys
{block}
import repro.cli, repro.compile, repro.experiments.fig2
import repro.experiments.fleet, repro.experiments.resilience, repro.runner
from repro.config import MachineSpec
from repro.core import build_cluster
from repro.core.policies.gf256 import prime_tables
from repro.faults import check_page_integrity
from repro.workloads import SequentialScan

prime_tables()
spec = MachineSpec(
    name="test-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)
cluster = build_cluster(
    policy="ec-4-2", machine_spec=spec, n_servers=8, content_mode=True,
    seed=3, server_capacity_pages=600,
)
cluster.run(SequentialScan(n_pages=200, passes=1, write=True))
cluster.servers[1].crash()
report = check_page_integrity(cluster)
assert report.clean, report
{check}
print("ok")
"""


@pytest.mark.parametrize(
    "block, check",
    [
        # numpy cannot be imported: any import of it raises ImportError.
        ('sys.modules["numpy"] = None',
         'assert sys.modules["numpy"] is None'),
        # numpy may be importable: the package still never loads it.
        ("", 'assert "numpy" not in sys.modules, "numpy was imported"'),
    ],
    ids=["numpy-blocked", "numpy-unloaded"],
)
def test_package_runs_without_numpy(block, check):
    import repro

    src = Path(repro.__file__).resolve().parents[1]
    script = _NO_NUMPY_SCRIPT.format(block=block, check=check)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


# --------------------------------------------------------------------------
# Per-instance subset counters.
# --------------------------------------------------------------------------

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
