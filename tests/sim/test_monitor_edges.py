"""Edge cases for the measurement helpers (tally merge, percentile
caching, nested utilisation, time-weighted averages)."""

import math

import pytest

from repro.sim.monitor import Tally, TimeWeighted, UtilizationTracker


# ----------------------------------------------------------- Tally.merge

def test_merge_matches_single_stream_exactly():
    a_values = [0.5, 1.5, 2.5, 10.0]
    b_values = [-3.0, 7.0, 0.0]
    a, b, single = Tally(), Tally(), Tally()
    for value in a_values:
        a.observe(value)
        single.observe(value)
    for value in b_values:
        b.observe(value)
        single.observe(value)
    assert a.merge(b) is a
    assert a.count == single.count
    assert a.total == pytest.approx(single.total, rel=1e-12)
    assert a.mean == pytest.approx(single.mean, rel=1e-12)
    assert a.variance == pytest.approx(single.variance, rel=1e-12)
    assert a.minimum == single.minimum
    assert a.maximum == single.maximum


def test_merge_into_empty_copies_other():
    a, b = Tally(), Tally()
    b.observe(4.0)
    b.observe(6.0)
    a.merge(b)
    assert (a.count, a.mean, a.minimum, a.maximum) == (2, 5.0, 4.0, 6.0)


def test_merge_empty_other_is_a_noop():
    a = Tally()
    a.observe(1.0)
    before = (a.count, a.mean, a._m2, a.minimum, a.maximum, a.total)
    a.merge(Tally())
    assert (a.count, a.mean, a._m2, a.minimum, a.maximum, a.total) == before


def test_merge_concatenates_kept_samples():
    a, b = Tally(keep_samples=True), Tally(keep_samples=True)
    a.observe(3.0)
    b.observe(1.0)
    b.observe(2.0)
    a.merge(b)
    assert sorted(a.samples) == [1.0, 2.0, 3.0]
    assert a.percentile(50) == 2.0


def test_merge_rejects_sample_loss():
    a = Tally(keep_samples=True)
    b = Tally()  # dropped its samples: merging would corrupt percentiles
    b.observe(1.0)
    with pytest.raises(ValueError, match="keep_samples"):
        a.merge(b)


# ----------------------------------------------------- Tally.percentile

def test_percentile_bounds_and_errors():
    tally = Tally(keep_samples=True)
    for value in [5.0, 1.0, 3.0]:
        tally.observe(value)
    assert tally.percentile(0) == 1.0
    assert tally.percentile(100) == 5.0
    with pytest.raises(ValueError, match="out of range"):
        tally.percentile(101)
    with pytest.raises(ValueError, match="out of range"):
        tally.percentile(-1)


def test_percentile_of_empty_is_nan():
    assert math.isnan(Tally(keep_samples=True).percentile(50))


def test_percentile_without_kept_samples_raises():
    tally = Tally()
    tally.observe(1.0)
    with pytest.raises(ValueError, match="keep_samples=False"):
        tally.percentile(50)


def test_percentile_reuses_sorted_cache_until_invalidated():
    """Regression: repeated percentile calls must not re-sort."""
    tally = Tally(keep_samples=True)
    for value in [9.0, 2.0, 7.0]:
        tally.observe(value)
    assert tally._sorted is None
    tally.percentile(50)
    cached = tally._sorted
    assert cached == [2.0, 7.0, 9.0]
    tally.percentile(95)
    assert tally._sorted is cached  # same list object: no re-sort
    tally.observe(1.0)
    assert tally._sorted is None  # new sample invalidates the cache
    assert tally.percentile(0) == 1.0


def test_percentile_sort_matches_sorted_exactly():
    """Every nearest-rank percentile of a large float sample is the
    matching element of ``sorted`` and a native float."""
    import random

    rng = random.Random(20260808)
    samples = [rng.uniform(-1e3, 1e3) for _ in range(500)]
    samples += [samples[7], samples[7], 0.0, -0.0, 1e-300, 1e300]

    tally = Tally(keep_samples=True)
    for value in samples:
        tally.observe(value)
    reference = sorted(samples)
    n = len(reference)
    for q in (0, 1, 25, 50, 75, 95, 99, 100):
        rank = max(1, math.ceil(q / 100.0 * n))  # nearest-rank, as Tally
        value = tally.percentile(q)
        assert value == reference[rank - 1]
        assert type(value) is float


def test_int_samples_keep_python_sort():
    """Integer samples must not round-trip through float64 (a large int
    would silently lose precision): percentiles hand them back exact."""
    big = 2**63 + 1  # not representable as float64
    samples = [big, 1, 3, 2] * 12
    tally = Tally(keep_samples=True)
    for value in samples:
        tally.observe(value)
    assert tally.percentile(100) == big
    assert type(tally.percentile(100)) is int
    assert tally.percentile(50) == 2
    assert type(tally.percentile(0)) is int


# --------------------------------------------------------- TimeWeighted

def test_time_weighted_rejects_time_going_backwards():
    tw = TimeWeighted(now=5.0)
    with pytest.raises(ValueError, match="backwards"):
        tw.record(4.0, 1.0)


def test_time_weighted_average_at_zero_span_is_current_level():
    tw = TimeWeighted(now=2.0, level=0.75)
    assert tw.average(2.0) == 0.75


def test_time_weighted_average_weights_levels_by_duration():
    tw = TimeWeighted(now=0.0, level=0.0)
    tw.record(1.0, 2.0)   # level 0 for 1s
    tw.record(3.0, 0.0)   # level 2 for 2s
    assert tw.average(4.0) == pytest.approx(4.0 / 4.0)


# --------------------------------------------------- UtilizationTracker

def test_nested_busy_intervals_count_once():
    tracker = UtilizationTracker(now=0.0)
    tracker.busy(1.0)
    tracker.busy(2.0)   # nested: still one busy interval
    tracker.idle(3.0)   # depth 1: still busy
    tracker.idle(4.0)   # depth 0: idle again
    assert tracker.utilization(10.0) == pytest.approx(3.0 / 10.0)


def test_idle_without_busy_raises():
    tracker = UtilizationTracker()
    with pytest.raises(ValueError, match="without matching busy"):
        tracker.idle(1.0)
    tracker.busy(1.0)
    tracker.idle(2.0)
    with pytest.raises(ValueError, match="without matching busy"):
        tracker.idle(3.0)


def test_utilization_mid_busy_interval_counts_elapsed_time():
    tracker = UtilizationTracker(now=0.0)
    tracker.busy(2.0)
    assert tracker.utilization(4.0) == pytest.approx(0.5)
