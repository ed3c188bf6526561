"""Page identity and page contents.

Pages are identified by integer ids within one client's address space.
Two content modes exist (see DESIGN.md §5):

* **metadata mode** — pages carry no bytes; timing experiments use this.
* **content mode** — every pageout carries a real byte payload, generated
  deterministically from ``(page_id, version)``.  XOR parity is then
  computed over real data and crash recovery is verified byte-for-byte.

Both modes drive identical control paths in the pager and policies.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Optional

__all__ = [
    "page_bytes",
    "xor_bytes",
    "zero_page",
    "page_checksum",
    "corrupt_bytes",
    "clear_fastpath_caches",
    "fastpath_stats",
    "fragment_memo_get",
    "fragment_memo_put",
    "PageVersioner",
]

_MIX = 0x9E3779B97F4A7C15  # Fibonacci hashing constant: cheap, well mixed

# --------------------------------------------------------------- fast path
# Content-mode runs regenerate, checksum, and compare the same page
# payloads thousands of times (every pageout start, every machine verify,
# every parity XOR).  All three primitives below are pure functions of
# their inputs, so memoising them cannot change any simulated result —
# only wall-clock.
#
# The caches return *shared immutable* ``bytes`` objects; nothing in the
# codebase mutates page payloads in place (parity goes through
# ``xor_bytes``, corruption through ``corrupt_bytes`` — both allocate).
# A bonus of identity-sharing: equality checks on cache hits
# (``contents == expected`` in the machine's verify loop) short-circuit
# on ``a is b`` inside CPython before comparing a single byte.

_ZERO_PAGES: dict = {}  # size -> the shared all-zero page (few sizes ever)
#: id(contents) -> (contents, crc).  The strong reference in the value
#: keeps the id stable; the ``hit[0] is contents`` guard below makes a
#: recycled id (after a cache flush) harmless.
_CHECKSUM_MEMO: dict = {}
_CHECKSUM_MEMO_MAX = 8192
#: id(contents) -> (contents, shape_key, fragment_list).  Erasure
#: stripes memoised by payload identity: ``page_bytes`` hands out shared
#: objects per (page, version), so a page written once and paged out
#: repeatedly (or the shared zero page) is split+encoded exactly once.
#: Same identity discipline as ``_CHECKSUM_MEMO``; purely host-side —
#: simulated CPU charges are unaffected.
_FRAGMENT_MEMO: dict = {}
_FRAGMENT_MEMO_MAX = 4096
_FRAGMENT_MEMO_HITS = [0]


def clear_fastpath_caches() -> None:
    """Drop all memoised pages, checksums and stripes."""
    _ZERO_PAGES.clear()
    _CHECKSUM_MEMO.clear()
    _FRAGMENT_MEMO.clear()
    _FRAGMENT_MEMO_HITS[0] = 0
    _page_bytes_cached.cache_clear()


def fastpath_stats() -> dict:
    """Cache occupancy and hit counters of the memos above."""
    info = _page_bytes_cached.cache_info()
    return {
        "page_bytes_hits": info.hits,
        "page_bytes_misses": info.misses,
        "page_bytes_entries": info.currsize,
        "zero_page_sizes": len(_ZERO_PAGES),
        "checksum_entries": len(_CHECKSUM_MEMO),
        "fragment_entries": len(_FRAGMENT_MEMO),
        "fragment_hits": _FRAGMENT_MEMO_HITS[0],
    }


def fragment_memo_get(contents: bytes, shape_key: tuple) -> Optional[list]:
    """The memoised erasure stripe for ``contents``, or None.

    Trusted only when the stored object *is* ``contents`` and the codec
    shape matches — identical semantics to the checksum memo.
    """
    hit = _FRAGMENT_MEMO.get(id(contents))
    if hit is not None and hit[0] is contents and hit[1] == shape_key:
        _FRAGMENT_MEMO_HITS[0] += 1
        return hit[2]
    return None


def fragment_memo_put(
    contents: bytes, shape_key: tuple, fragments: list
) -> None:
    """Memoise an erasure stripe keyed by payload identity + shape."""
    if len(_FRAGMENT_MEMO) >= _FRAGMENT_MEMO_MAX:
        _FRAGMENT_MEMO.clear()  # epoch flush: O(1) amortised, no LRU links
    _FRAGMENT_MEMO[id(contents)] = (contents, shape_key, fragments)


def _generate_page_bytes(page_id: int, version: int, size: int) -> bytes:
    word = ((page_id * _MIX) ^ (version * 0xC2B2AE3D27D4EB4F)) & (2**64 - 1)
    pattern = word.to_bytes(8, "little")
    reps, rest = divmod(size, 8)
    return pattern * reps + pattern[:rest]


_page_bytes_cached = lru_cache(maxsize=4096)(_generate_page_bytes)


def page_bytes(page_id: int, version: int, size: int) -> bytes:
    """Deterministic page contents for ``(page_id, version)``.

    An 8-byte mixed word repeated to ``size`` so generation is O(size)
    with tiny constants; different (page, version) pairs produce different
    payloads with overwhelming probability.
    """
    if size <= 0:
        raise ValueError(f"page size must be positive: {size}")
    return _page_bytes_cached(page_id, version, size)


def zero_page(size: int) -> bytes:
    """An all-zero page (the initial state of every parity buffer)."""
    if size <= 0:
        raise ValueError(f"page size must be positive: {size}")
    page = _ZERO_PAGES.get(size)
    if page is None:
        page = _ZERO_PAGES[size] = bytes(size)
    return page


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (the parity primitive)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def page_checksum(contents: bytes) -> int:
    """End-to-end integrity checksum of one page's bytes.

    CRC32 is enough here: the threat model is simulated bit-rot and
    transport corruption, not an adversary.  The pager records this at
    pageout and verifies it at pagein (DESIGN.md "Fault model").

    Checksum-once-per-version: because page payloads come out of the
    ``page_bytes`` cache as shared objects, the CRC is memoised by object
    identity.  The stored strong reference pins the id; a hit is only
    trusted when the stored object *is* the argument, so a recycled id
    after a cache flush can never alias a different payload.
    """
    hit = _CHECKSUM_MEMO.get(id(contents))
    if hit is not None and hit[0] is contents:
        return hit[1]
    crc = zlib.crc32(contents) & 0xFFFFFFFF
    if len(_CHECKSUM_MEMO) >= _CHECKSUM_MEMO_MAX:
        _CHECKSUM_MEMO.clear()  # epoch flush: O(1) amortised, no LRU links
    _CHECKSUM_MEMO[id(contents)] = (contents, crc)
    return crc


def corrupt_bytes(contents: bytes, rng, flips: int = 3) -> bytes:
    """Flip ``flips`` bits of ``contents`` at RNG-chosen positions.

    Guaranteed to return bytes that differ from the input (a flipped bit
    can never flip back because positions are sampled without
    replacement).
    """
    if not contents:
        raise ValueError("cannot corrupt an empty payload")
    mutated = bytearray(contents)
    positions = rng.sample(range(len(mutated) * 8), min(flips, len(mutated) * 8))
    for bit in positions:
        mutated[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutated)


class PageVersioner:
    """Tracks the write version of every page in one address space.

    The machine bumps a page's version on each dirtying write interval, so
    successive pageouts of the same page carry distinguishable contents —
    exactly what exercises parity logging's multiple-live-versions
    behaviour (§2.2: "many versions of a given page may be present
    simultaneously at the servers' memory").
    """

    def __init__(self, page_size: int, content_mode: bool = False):
        self.page_size = page_size
        self.content_mode = content_mode
        self._versions: dict = {}

    def bump(self, page_id: int) -> int:
        """Advance and return the page's version (first write -> 1)."""
        version = self._versions.get(page_id, 0) + 1
        self._versions[page_id] = version
        return version

    def version_of(self, page_id: int) -> int:
        """The page's current write version (0 = never written)."""
        return self._versions.get(page_id, 0)

    def contents(self, page_id: int) -> Optional[bytes]:
        """Current contents in content mode, else None."""
        if not self.content_mode:
            return None
        return page_bytes(page_id, self._versions.get(page_id, 0), self.page_size)

    def expected(self, page_id: int, version: int) -> bytes:
        """Contents a given version must have (for integrity checks)."""
        return page_bytes(page_id, version, self.page_size)
