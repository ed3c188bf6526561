"""Unit tests for page contents, XOR, checksums, and versioning."""

import gc
import tracemalloc
import zlib

import pytest

from repro.config import MachineSpec
from repro.core import build_cluster
from repro.vm import PageVersioner, page_bytes, xor_bytes, zero_page
from repro.vm.page import page_checksum, xor_all
from repro.workloads import SequentialScan


def test_page_bytes_deterministic():
    assert page_bytes(5, 1, 64) == page_bytes(5, 1, 64)


def test_page_bytes_distinct_by_page_and_version():
    a = page_bytes(1, 1, 64)
    b = page_bytes(2, 1, 64)
    c = page_bytes(1, 2, 64)
    assert a != b and a != c and b != c


def test_page_bytes_length():
    for size in (8, 13, 64, 8192):
        assert len(page_bytes(3, 4, size)) == size


def test_page_bytes_bad_size():
    with pytest.raises(ValueError):
        page_bytes(1, 1, 0)


def test_zero_page():
    assert zero_page(16) == b"\x00" * 16
    with pytest.raises(ValueError):
        zero_page(0)


def test_xor_roundtrip():
    a = page_bytes(1, 1, 64)
    b = page_bytes(2, 3, 64)
    assert xor_bytes(xor_bytes(a, b), b) == a


def test_xor_identity_and_self():
    a = page_bytes(7, 7, 32)
    assert xor_bytes(a, zero_page(32)) == a
    assert xor_bytes(a, a) == zero_page(32)


def test_xor_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"abc")


def test_xor_of_pieces_skips_metadata_pieces():
    a = page_bytes(1, 1, 32)
    b = page_bytes(2, 1, 32)
    assert xor_all([a, None, b]) == xor_bytes(a, b)
    assert xor_all([None, None]) is None
    assert xor_all([]) is None


def test_checksum_matches_crc32():
    payload = page_bytes(5, 1, 8192)
    assert page_checksum(payload) == zlib.crc32(payload) & 0xFFFFFFFF


def test_checksum_distinguishes_equal_length_payloads():
    a = page_bytes(1, 1, 512)
    b = page_bytes(1, 2, 512)
    assert page_checksum(a) != page_checksum(b)


def test_checksum_of_fresh_unshared_bytes():
    raw = bytes(range(256))
    assert page_checksum(raw) == zlib.crc32(raw) & 0xFFFFFFFF
    mutated = bytes([raw[0] ^ 1]) + raw[1:]
    assert page_checksum(mutated) != page_checksum(raw)


SMALL = MachineSpec(
    name="test-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


def _run_content_cluster():
    cluster = build_cluster(
        policy="ec-2-1",
        machine_spec=SMALL,
        n_servers=8,
        content_mode=True,
        seed=3,
        server_capacity_pages=600,
    )
    cluster.run(SequentialScan(n_pages=300, passes=2, write=True))


def test_content_mode_retains_no_payloads():
    """Once a content-mode cluster is dropped, no page payload, checksum
    or erasure stripe outlives it in a process-global memo."""
    _run_content_cluster()  # warm-up: codec tables, lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _run_content_cluster()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.25 * 1024 * 1024, retained


def test_versioner_bump_and_contents():
    v = PageVersioner(page_size=64, content_mode=True)
    assert v.version_of(9) == 0
    assert v.bump(9) == 1
    assert v.bump(9) == 2
    assert v.contents(9) == page_bytes(9, 2, 64)
    assert v.expected(9, 1) == page_bytes(9, 1, 64)


def test_versioner_metadata_mode_contents_none():
    v = PageVersioner(page_size=64, content_mode=False)
    v.bump(1)
    assert v.contents(1) is None
