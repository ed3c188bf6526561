"""Unit and property tests for trace primitives and synthetic workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    HotCold,
    Region,
    SequentialScan,
    UniformRandom,
    ZipfAccess,
    sweep,
    zigzag_passes,
)
from repro.workloads.base import Layout


# -------------------------------------------------------------- primitives
def test_sweep_forward_order():
    refs = list(sweep(10, 4, 0.001))
    assert [p for p, _, _ in refs] == [10, 11, 12, 13]
    assert all(not w for _, w, _ in refs)
    assert all(c == 0.001 for _, _, c in refs)


def test_sweep_reverse_order():
    refs = list(sweep(10, 4, 0.0, reverse=True))
    assert [p for p, _, _ in refs] == [13, 12, 11, 10]


def test_sweep_write_flag():
    assert all(w for _, w, _ in sweep(0, 3, 0.0, write=True))


def test_sweep_negative_count_rejected():
    with pytest.raises(ValueError):
        list(sweep(0, -1, 0.0))


def test_zigzag_alternates_direction():
    refs = [p for p, _, _ in zigzag_passes(0, 3, 3, 0.0)]
    assert refs == [0, 1, 2, 2, 1, 0, 0, 1, 2]


def test_zigzag_first_reverse():
    refs = [p for p, _, _ in zigzag_passes(0, 3, 2, 0.0, first_reverse=True)]
    assert refs == [2, 1, 0, 0, 1, 2]


@settings(max_examples=50, deadline=None)
@given(
    start=st.integers(0, 100),
    n=st.integers(1, 50),
    passes=st.integers(1, 5),
)
def test_zigzag_touch_counts(start, n, passes):
    """Every page in the region is touched exactly `passes` times."""
    from collections import Counter

    counts = Counter(p for p, _, _ in zigzag_passes(start, n, passes, 0.0))
    assert set(counts) == set(range(start, start + n))
    assert all(c == passes for c in counts.values())


# ------------------------------------------------------------------ Region
def test_region_properties():
    r = Region("data", 100, 10)
    assert r.end_page == 110
    assert r.page(0) == 100
    assert r.page(9) == 109


def test_region_page_out_of_range():
    r = Region("data", 0, 5)
    with pytest.raises(IndexError):
        r.page(5)
    with pytest.raises(IndexError):
        r.page(-1)


def test_region_empty_rejected():
    with pytest.raises(ValueError):
        Region("x", 0, 0)


def test_layout_allocates_consecutively():
    layout = Layout(page_size=4096)
    a = layout.add("a", 4096 * 3)
    b = layout.add("b", 1)  # rounds up to one page
    assert a.start_page == 0 and a.n_pages == 3
    assert b.start_page == 3 and b.n_pages == 1
    assert layout.total_pages == 4


# -------------------------------------------------------------- synthetics
def test_sequential_scan_shape():
    wl = SequentialScan(n_pages=10, passes=2, write=True)
    refs = list(wl.trace())
    assert len(refs) == 20
    assert all(w for _, w, _ in refs)


def test_uniform_random_deterministic_by_seed():
    a = list(UniformRandom(50, 200, seed=1).trace())
    b = list(UniformRandom(50, 200, seed=1).trace())
    c = list(UniformRandom(50, 200, seed=2).trace())
    assert a == b
    assert a != c


def test_uniform_random_within_region():
    wl = UniformRandom(50, 500, seed=3)
    assert all(0 <= p < 50 for p, _, _ in wl.trace())


def test_uniform_random_write_fraction_extremes():
    all_reads = UniformRandom(10, 100, write_fraction=0.0, seed=0)
    assert not any(w for _, w, _ in all_reads.trace())
    all_writes = UniformRandom(10, 100, write_fraction=1.0, seed=0)
    assert all(w for _, w, _ in all_writes.trace())


def test_uniform_random_validation():
    with pytest.raises(ValueError):
        UniformRandom(10, 10, write_fraction=1.5)


def test_zipf_concentrates_on_low_ranks():
    from collections import Counter

    wl = ZipfAccess(n_pages=100, n_refs=5000, skew=1.2, seed=4)
    counts = Counter(p for p, _, _ in wl.trace())
    top_decile = sum(counts.get(p, 0) for p in range(10))
    assert top_decile > 0.5 * 5000  # the head dominates


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfAccess(n_pages=10, n_refs=10, skew=0.0)


def test_hotcold_hot_dominates():
    wl = HotCold(hot_pages=10, cold_pages=90, n_refs=2000, hot_fraction=0.9, seed=5)
    hot_refs = sum(1 for p, _, _ in wl.trace() if p < 10)
    assert hot_refs > 1600


def test_hotcold_validation():
    with pytest.raises(ValueError):
        HotCold(10, 10, 10, hot_fraction=2.0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize(
    "hot_pages,cold_pages,hot_fraction",
    [(1, 1, 0.5), (3, 64, 0.9), (120, 4096, 0.9995), (100, 129, 0.2), (255, 257, 0.0)],
)
def test_hotcold_stream_matches_randrange_formula(seed, hot_pages, cold_pages, hot_fraction):
    """The inlined rejection draw yields the stream the ``Region.page``
    + ``randrange`` formula gives, reference for reference."""
    import random

    wl = HotCold(hot_pages, cold_pages, n_refs=3000, hot_fraction=hot_fraction, seed=seed)
    rng = random.Random(seed)
    expected = []
    for _ in range(wl.n_refs):
        if rng.random() < hot_fraction:
            page = wl.hot.page(rng.randrange(wl.hot.n_pages))
        else:
            page = wl.cold.page(rng.randrange(wl.cold.n_pages))
        expected.append((page, rng.random() < 0.3, wl.cpu_per_page))
    assert list(wl.trace()) == expected


def test_hotcold_empty_region_raises_instead_of_spinning():
    wl = HotCold(hot_pages=4, cold_pages=4, n_refs=10, hot_fraction=1.0)
    wl.hot.n_pages = 0
    with pytest.raises(ValueError):
        next(wl.trace())
