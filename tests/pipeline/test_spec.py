"""PipelineSpec validation and derived properties."""

import pytest

from repro.pipeline import PipelineSpec


def test_defaults_are_the_synchronous_datapath():
    spec = PipelineSpec()
    assert spec.window == 1
    assert spec.prefetch == 0
    assert not spec.enabled
    assert not spec.write_behind


def test_window_enables_write_behind():
    spec = PipelineSpec(window=4)
    assert spec.enabled and spec.write_behind


def test_prefetch_alone_enables_without_write_behind():
    spec = PipelineSpec(prefetch=8)
    assert spec.enabled and not spec.write_behind


def test_default_backlog_scales_with_window():
    assert PipelineSpec(window=4).max_backlog == 32


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(window=0),
        dict(window=-1),
        dict(prefetch=-1),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        PipelineSpec(**kwargs)
