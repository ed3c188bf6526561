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
from functools import reduce
from typing import Iterable, Optional

__all__ = [
    "page_bytes",
    "xor_bytes",
    "xor_all",
    "zero_page",
    "page_checksum",
    "corrupt_bytes",
    "PageVersioner",
]

_MIX = 0x9E3779B97F4A7C15  # Fibonacci hashing constant: cheap, well mixed


def _generate_page_bytes(page_id: int, version: int, size: int) -> bytes:
    word = ((page_id * _MIX) ^ (version * 0xC2B2AE3D27D4EB4F)) & (2**64 - 1)
    pattern = word.to_bytes(8, "little")
    reps, rest = divmod(size, 8)
    return pattern * reps + pattern[:rest]


def page_bytes(page_id: int, version: int, size: int) -> bytes:
    """Deterministic page contents for ``(page_id, version)``.

    An 8-byte mixed word repeated to ``size`` so generation is O(size)
    with tiny constants; different (page, version) pairs produce different
    payloads with overwhelming probability.
    """
    if size <= 0:
        raise ValueError(f"page size must be positive: {size}")
    return _generate_page_bytes(page_id, version, size)


def zero_page(size: int) -> bytes:
    """An all-zero page (the initial state of every parity buffer)."""
    if size <= 0:
        raise ValueError(f"page size must be positive: {size}")
    return bytes(size)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (the parity primitive)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
        len(a), "little"
    )


def xor_all(pieces: Iterable[Optional[bytes]]) -> Optional[bytes]:
    """XOR of every real piece; None when none carries bytes (metadata mode)."""
    real = [p for p in pieces if p is not None]
    if not real:
        return None
    return reduce(xor_bytes, real)


def page_checksum(contents: bytes) -> int:
    """End-to-end integrity checksum of one page's bytes.

    CRC32 is enough here: the threat model is simulated bit-rot and
    transport corruption, not an adversary.  The pager records this at
    pageout and verifies it at pagein (DESIGN.md "Fault model").
    """
    return zlib.crc32(contents) & 0xFFFFFFFF


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
