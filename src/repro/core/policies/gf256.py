"""GF(256) Reed–Solomon codec for the erasure-coded policies.

Deterministic and table-driven: fragments are plain ``bytes`` over the
field GF(2^8) under the AES/QR polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11d); a generator-3 exp/log pair gives O(1) multiply and divide.

The code is *systematic* in Lagrange form (the scheme Hydra and Carbink
build on): an 8 KB page splits into ``k`` equal data fragments, each
treated as the evaluations of ``fragment_size`` independent degree-(k-1)
polynomials at the points ``x = 0 .. k-1``.  Parity fragments are the
same polynomials evaluated at ``x = k .. k+m-1``.  Any ``k`` of the
``k+m`` fragments re-interpolate the polynomials, hence the page —
that's the only algebra the policies need:

* ``encode(data_fragments)`` — evaluate at the parity points;
* ``reconstruct(available)`` — interpolate from any k points to whatever
  points are missing.

Both reduce to XOR-accumulating scalar-multiplied fragments.

A packed-lane numpy kernel does that accumulation: output rows are
processed in pairs, each input fragment viewed as
little-endian uint16 byte pairs and gathered once through a 64K-entry
table whose uint32 values hold ``c*a | c*b<<8`` for both rows'
coefficients (two bytes × two rows per gathered element),
XOR-accumulated in the packed domain and unpacked with strided views.
tests/faults/test_codec_backends.py checks it against a per-byte
:func:`gf_mul` reference.

Coefficient rows are memoised with ``functools.lru_cache`` so every
:class:`ReedSolomon` instance in the process shares them: encode
matrices per ``(k, m)`` shape (a handful ever exist), reconstruction
rows per ``(k, m, survivors, targets)`` subset (repeated degraded reads
against the same crash pattern stop re-deriving Lagrange rows).
Instances count their own deterministic hit/miss stream into an
optional ``stats`` Counter (the erasure policy wires its ``policy.*``
metrics counter in, so the stream lands in every MetricsRegistry
snapshot without breaking run-for-run determinism — it depends only on
the instance's own call sequence, never on process-global cache state).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

#: The packed-lane kernel relies on little-endian uint16/uint32 views.
if sys.byteorder != "little":  # pragma: no cover
    raise ImportError("the GF(256) codec needs a little-endian host")

__all__ = [
    "ReedSolomon",
    "gf_mul",
    "gf_inv",
    "prime_tables",
    "split_page",
    "join_fragments",
]

_GF_POLY = 0x11D

# exp table doubled so gf_mul can skip the mod-255 reduction.
GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _GF_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]
del _x, _i


def gf_mul(a: int, b: int) -> int:
    """Product in GF(256)."""
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(256); ``a`` must be non-zero."""
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return GF_EXP[255 - GF_LOG[a]]


#: 256x256 GF(256) multiplication table (lazy).
_NP_MUL = None


def _np_mul_table():
    """The full GF(256) product table, built once per process."""
    global _NP_MUL
    if _NP_MUL is None:
        exp = _np.array(GF_EXP, dtype=_np.uint8)
        log = _np.array(GF_LOG, dtype=_np.int64)
        table = exp[log[:, None] + log[None, :]]
        table[0, :] = 0
        table[:, 0] = 0
        _NP_MUL = table
    return _NP_MUL


def prime_tables() -> None:
    """Materialise the lazy codec tables in *this* process.

    The parallel runner calls this in the parent before forking its
    worker pool: the 64 KB product table then lives in pages every
    worker shares copy-on-write (the tables are never written after
    construction), instead of each worker rebuilding it on first use.
    """
    _np_mul_table()


@lru_cache(maxsize=64)
def _pair_table(col: tuple):
    """Packed multiply table for one or two coefficient lanes.

    Index = a little-endian byte pair ``(a, b)`` read as uint16; value =
    ``c1*a | c1*b << 8`` in the low lane and (for two-lane tables)
    ``c2*a | c2*b << 8`` in the high lane.  One gather through this
    table therefore advances *two adjacent bytes* of *every packed
    output row* at once — the numpy engine's whole trick.

    Keyed by the coefficient values alone, so every matrix sharing a
    column pair shares the table.  Each uint32 table is 256 KB; the
    bound keeps the working set a few MB.
    """
    mul = _np_mul_table()
    lanes = []
    for c in col:
        row = mul[c].astype(_np.uint16)
        # [b, a] grid raveled in C order == index (b << 8 | a).
        lanes.append((row[:, None] << 8) | row[None, :])
    if len(col) == 1:
        return _np.ascontiguousarray(lanes[0].ravel())
    return (lanes[0].ravel().astype(_np.uint32)
            | (lanes[1].ravel().astype(_np.uint32) << 16))


def _combine_rows(
    fragments: Sequence[bytes],
    rows: Sequence[Sequence[int]],
) -> List[bytes]:
    """All row-combinations of ``fragments`` at once.

    ``rows`` is an ``(n_out, n_in)`` coefficient matrix; the result is
    ``n_out`` fragments, each the GF(256) XOR-accumulation of the inputs
    scaled by its row.  Output rows are processed in packed pairs — one
    64K-entry gather per input fragment covers two bytes of two output
    rows at a time.
    """
    length = len(fragments[0])
    if length == 0:
        return [b"" for _ in rows]
    buf = _np.frombuffer(b"".join(fragments), dtype=_np.uint8)
    if length % 2:
        frags = _np.zeros((len(fragments), length + 1), dtype=_np.uint8)
        frags[:, :length] = buf.reshape(len(fragments), length)
    else:
        frags = buf.reshape(len(fragments), length)
    pairs = frags.view(_np.uint16)
    out: List[bytes] = []
    for base in range(0, len(rows), 2):
        chunk = rows[base : base + 2]
        acc = None
        for i, index_row in enumerate(pairs):
            col = tuple(row[i] for row in chunk)
            if not any(col):
                continue
            gathered = _pair_table(col).take(index_row, mode="clip")
            if acc is None:
                acc = gathered
            else:
                acc ^= gathered
        if acc is None:
            out.extend(bytes(length) for _ in chunk)
        elif len(chunk) == 2:
            lanes = acc.view(_np.uint16).reshape(-1, 2)
            for lane in range(2):
                row_bytes = _np.ascontiguousarray(lanes[:, lane])
                out.append(row_bytes.view(_np.uint8)[:length].tobytes())
        else:
            out.append(acc.view(_np.uint8)[:length].tobytes())
    return out


# --------------------------------------------------------------------------
# Coefficient rows, memoised at module level.
# --------------------------------------------------------------------------

def _lagrange_row(src_points: Sequence[int], y: int) -> Tuple[int, ...]:
    """Coefficients c_i with ``p(y) = XOR_i c_i * p(x_i)`` for the unique
    degree-(len-1) polynomial through the src points.

    In GF(2^n) addition and subtraction are both XOR, so the Lagrange
    basis ``l_i(y) = prod_{j != i} (y - x_j) / (x_i - x_j)`` becomes a
    product of ``(y ^ x_j) / (x_i ^ x_j)`` terms.
    """
    row = []
    for i, xi in enumerate(src_points):
        num = 1
        den = 1
        for j, xj in enumerate(src_points):
            if j == i:
                continue
            num = gf_mul(num, y ^ xj)
            den = gf_mul(den, xi ^ xj)
        row.append(gf_mul(num, gf_inv(den)))
    return tuple(row)


#: A handful of ``(k, m)`` shapes ever exist in one process.
@lru_cache(maxsize=None)
def _encode_rows(k: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    data_points = tuple(range(k))
    return tuple(_lagrange_row(data_points, k + j) for j in range(m))


#: One entry per distinct crash pattern actually seen: combinatorial in
#: principle, tiny in practice.
@lru_cache(maxsize=1024)
def _reconstruction_rows(
    k: int, m: int, src: Tuple[int, ...], todo: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], ...]:
    return tuple(_lagrange_row(src, index) for index in todo)


class ReedSolomon:
    """Systematic RS(k, m) over GF(256) in Lagrange (evaluation) form.

    Fragment index ``i`` is the evaluation point ``x = i``; indices
    ``0..k-1`` are the verbatim data fragments, ``k..k+m-1`` parity.
    Coefficient matrices come from the module-level ``lru_cache`` memos
    (shared across instances); ``stats`` — when set to a Counter-like object — receives
    a *deterministic* per-instance hit/miss stream keyed on whether this
    instance has already requested the same reconstruction subset
    (independent of process-global cache warmth, so metrics snapshots
    stay byte-identical across repeated runs).
    """

    def __init__(self, k: int, m: int):
        if k < 1:
            raise ValueError(f"need at least one data fragment: k={k}")
        if m < 1:
            raise ValueError(f"need at least one parity fragment: m={m}")
        if k + m > 255:
            raise ValueError(f"k+m must fit GF(256) evaluation points: {k + m}")
        self.k = k
        self.m = m
        self.width = k + m
        self._encode_matrix = _encode_rows(k, m)
        #: Reconstruction subsets this instance has asked for before —
        #: the basis of the deterministic hit/miss accounting.
        self._seen_subsets: set = set()
        #: Optional Counter-like sink for ``codec_row_{hits,misses}``.
        self.stats = None

    # ------------------------------------------------------------ encode
    def encode(self, data_fragments: Sequence[bytes]) -> List[bytes]:
        """Parity fragments for ``k`` equal-length data fragments."""
        if len(data_fragments) != self.k:
            raise ValueError(
                f"expected {self.k} data fragments, got {len(data_fragments)}"
            )
        return _combine_rows(data_fragments, self._encode_matrix)

    # ------------------------------------------------------- reconstruct
    def reconstruct(
        self,
        available: Dict[int, bytes],
        want: Optional[Sequence[int]] = None,
    ) -> Dict[int, bytes]:
        """Rebuild fragments from any ``k`` survivors.

        ``available`` maps fragment index -> bytes (at least ``k``
        entries; extras are ignored deterministically, preferring data
        fragments, then lower indices).  ``want`` selects the indices to
        produce (default: every missing index).  Returns
        ``{index: fragment}`` for the requested indices; indices already
        in ``available`` are returned as-is without algebra.
        """
        if want is None:
            want = [i for i in range(self.width) if i not in available]
        out: Dict[int, bytes] = {}
        todo = []
        for index in want:
            if not 0 <= index < self.width:
                raise ValueError(f"fragment index out of range: {index}")
            if index in available:
                out[index] = available[index]
            else:
                todo.append(index)
        if not todo:
            return out
        if len(available) < self.k:
            raise ValueError(
                f"need {self.k} fragments to reconstruct, have {len(available)}"
            )
        src = tuple(sorted(available, key=lambda i: (i >= self.k, i))[: self.k])
        key = (src, tuple(todo))
        if self.stats is not None:
            self.stats.add(
                "codec_row_hits" if key in self._seen_subsets
                else "codec_row_misses"
            )
        self._seen_subsets.add(key)
        rows = _reconstruction_rows(self.k, self.m, src, key[1])
        fragments = [available[i] for i in src]
        for index, fragment in zip(todo, _combine_rows(fragments, rows)):
            out[index] = fragment
        return out

    def data_from(self, available: Dict[int, bytes]) -> List[bytes]:
        """The ``k`` data fragments, reconstructing any that are missing."""
        rebuilt = self.reconstruct(available, want=range(self.k))
        return [rebuilt[i] for i in range(self.k)]


# ------------------------------------------------------------ page <-> frags
def split_page(contents: bytes, k: int, fragment_size: int) -> List[bytes]:
    """Split a page into ``k`` fragments of ``fragment_size`` bytes.

    The last fragment is zero-padded: ``join_fragments`` truncates back
    to the original page size, so the round trip is byte-identical.
    """
    padded = contents.ljust(k * fragment_size, b"\0")
    return [
        padded[i * fragment_size : (i + 1) * fragment_size] for i in range(k)
    ]


def join_fragments(data_fragments: Sequence[bytes], page_size: int) -> bytes:
    """Concatenate data fragments and strip the split-time padding."""
    return b"".join(data_fragments)[:page_size]
