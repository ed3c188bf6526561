"""Configuration for the pipelined paging datapath.

A :class:`PipelineSpec` switches the
:class:`~repro.core.client.RemoteMemoryPager` from the paper's
synchronous one-RPC-per-page datapath to a pipelined one (DESIGN.md
"Pipelined datapath"):

* ``window > 1`` enables the **write-behind pageout queue**: pageouts
  complete at enqueue time, a single drainer transmits them in clustered
  batches of up to ``window`` pages, and a page re-dirtied while queued
  is coalesced in place (one transfer instead of two).
* ``prefetch > 0`` enables the **adaptive prefetcher**: a Leap-style
  majority vote over the recent fault deltas predicts the next pages and
  pulls them into a bounded client-side cache ahead of the faults.

The default spec (``window=1, prefetch=0``) is *disabled*: the pager
keeps the exact synchronous code path, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PipelineSpec"]


@dataclass(frozen=True)
class PipelineSpec:
    """Knobs of the pipelined datapath (all plain data, cache-friendly)."""

    #: Maximum pages per clustered drain batch; 1 = synchronous legacy path.
    window: int = 1
    #: Prefetch depth per detected trend; 0 = prefetcher off.
    prefetch: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1: {self.window}")
        if self.prefetch < 0:
            raise ValueError(f"prefetch must be >= 0: {self.prefetch}")

    @property
    def enabled(self) -> bool:
        """Does this spec change anything at all?"""
        return self.window > 1 or self.prefetch > 0

    @property
    def write_behind(self) -> bool:
        """Is the write-behind queue engaged (vs synchronous pageouts)?"""
        return self.window > 1

    @property
    def max_backlog(self) -> int:
        """Queued-but-untransmitted pageouts before producers block."""
        return 8 * self.window
