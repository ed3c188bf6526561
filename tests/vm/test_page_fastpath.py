"""Content fast path: memoised pages, shared zero page, CRC-once.

The memos may only change wall-clock, never values: every test here
compares the cached primitives against the uncached references.
"""

import zlib

from repro.vm.page import (
    _generate_page_bytes,
    clear_fastpath_caches,
    fastpath_stats,
    page_bytes,
    page_checksum,
    zero_page,
)


def test_page_bytes_identity_shared_on_hits():
    a = page_bytes(11, 2, 256)
    b = page_bytes(11, 2, 256)
    assert a is b  # shared immutable object: `==` short-circuits on `is`


def test_page_bytes_values_match_uncached():
    cached = page_bytes(3, 7, 4096)
    assert _generate_page_bytes(3, 7, 4096) == cached
    assert _generate_page_bytes(3, 7, 4096) is not cached


def test_zero_page_shared_and_correct():
    assert zero_page(64) is zero_page(64)
    assert zero_page(64) == bytes(64)


def test_checksum_matches_crc32_and_uncached_path():
    payload = page_bytes(5, 1, 8192)
    expected = zlib.crc32(payload) & 0xFFFFFFFF
    assert page_checksum(payload) == expected
    assert page_checksum(payload) == expected  # memo hit, same value
    # An equal but distinct object misses the identity memo.
    assert page_checksum(bytes(bytearray(payload))) == expected


def test_checksum_distinguishes_equal_length_payloads():
    a = page_bytes(1, 1, 512)
    b = page_bytes(1, 2, 512)
    assert page_checksum(a) != page_checksum(b)


def test_checksum_of_fresh_unshared_bytes():
    # Payloads that never came from the cache (e.g. corrupted ones) must
    # still checksum correctly despite the id-based memo.
    raw = bytes(range(256))
    assert page_checksum(raw) == zlib.crc32(raw) & 0xFFFFFFFF
    mutated = bytes([raw[0] ^ 1]) + raw[1:]
    assert page_checksum(mutated) != page_checksum(raw)


def test_clear_fastpath_caches_flushes():
    page_bytes(9, 9, 128)
    zero_page(128)
    page_checksum(page_bytes(9, 9, 128))
    stats = fastpath_stats()
    assert stats["page_bytes_entries"] >= 1
    clear_fastpath_caches()
    stats = fastpath_stats()
    assert stats["page_bytes_entries"] == 0
    assert stats["checksum_entries"] == 0
    assert stats["zero_page_sizes"] == 0
    # Values after a flush are unchanged.
    assert page_bytes(9, 9, 128) == _generate_page_bytes(9, 9, 128)
