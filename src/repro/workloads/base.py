"""Workload framework: page-reference-trace generators.

The pager only ever sees the *page-level* fault stream, so each paper
application (§4: GAUSS, QSORT, FFT, MVEC, FILTER, CC) is modelled as a
generator of ``(page_id, is_write, cpu_seconds)`` references that
reproduces the algorithm's page-level structure: how many regions it
touches, in what order, how often it revisits them, and how much of what
it touches it dirties.

Two modelling decisions (see DESIGN.md §2):

* **Blocked/zigzag sweeps.**  A naive cyclic sweep over a region slightly
  larger than memory makes LRU-class replacement evict every page just
  before reuse — a pathology real scientific codes of the era avoided by
  organising arrays for paged memory (Newman 1995, cited by the paper for
  FILTER).  Sweeping alternately forward and backward ("zigzag") gives
  the realistic behaviour: each extra pass faults roughly on the
  *deficit* (working set minus memory), not on the whole region.  This is
  what makes the paper's measured fault counts (§4.3: 2718 pageouts, 2055
  pageins for a 24 MB FFT on a 32 MB machine) reproducible at all.
* **Calibrated CPU per touch.**  Each workload charges a per-page-touch
  CPU cost (``CPU_SECONDS_PER_PAGE_TOUCH``) chosen so the utime :
  paging-time proportions land near the paper's Fig 2 / §4.3 breakdown
  on the reference machine.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..config import PAGE_SIZE

__all__ = ["Workload", "sweep", "zigzag_passes", "Region"]

Ref = Tuple[int, bool, float]


def sweep(
    start_page: int,
    n_pages: int,
    cpu_per_page: float,
    write: bool = False,
    reverse: bool = False,
) -> Iterator[Ref]:
    """One pass over ``n_pages`` consecutive pages.

    ``reverse`` sweeps high-to-low; alternating direction across passes
    (see :func:`zigzag_passes`) is what keeps re-pass faults proportional
    to the memory deficit instead of the whole region.
    """
    if n_pages < 0:
        raise ValueError(f"negative page count: {n_pages}")
    pages = range(start_page + n_pages - 1, start_page - 1, -1) if reverse else range(
        start_page, start_page + n_pages
    )
    for page in pages:
        yield (page, write, cpu_per_page)


def zigzag_passes(
    start_page: int,
    n_pages: int,
    n_passes: int,
    cpu_per_page: float,
    write: bool = False,
    first_reverse: bool = False,
) -> Iterator[Ref]:
    """``n_passes`` sweeps over a region, alternating direction."""
    for i in range(n_passes):
        reverse = first_reverse ^ (i % 2 == 1)
        yield from sweep(start_page, n_pages, cpu_per_page, write=write, reverse=reverse)


class Region:
    """A named, contiguous page range inside a workload's address space."""

    def __init__(self, name: str, start_page: int, n_pages: int):
        if n_pages <= 0:
            raise ValueError(f"region {name!r} needs at least one page")
        self.name = name
        self.start_page = start_page
        self.n_pages = n_pages

    @property
    def end_page(self) -> int:
        return self.start_page + self.n_pages

    def page(self, index: int) -> int:
        """The absolute page id of the ``index``-th page in the region."""
        if not 0 <= index < self.n_pages:
            raise IndexError(f"page index {index} outside region {self.name!r}")
        return self.start_page + index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Region({self.name!r}, pages [{self.start_page}, {self.end_page}))"


class Layout:
    """Allocates consecutive regions in one address space."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._next_page = 0
        self.regions = {}

    def add(self, name: str, nbytes: int) -> Region:
        """Allocate a region of at least ``nbytes`` (page-rounded)."""
        n_pages = max(1, -(-nbytes // self.page_size))
        region = Region(name, self._next_page, n_pages)
        self._next_page += n_pages
        self.regions[name] = region
        return region

    @property
    def total_pages(self) -> int:
        return self._next_page


class Workload:
    """Base class: a named trace generator with a known footprint."""

    name = "abstract"

    #: True when every :meth:`trace` call yields the same reference
    #: stream (all built-ins: sweeps are pure functions of the layout and
    #: the synthetics re-seed a private RNG per call).  The trace
    #: compiler only engages for deterministic workloads.
    deterministic = True

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.layout = Layout(page_size)

    @property
    def footprint_pages(self) -> int:
        """Total distinct pages the workload touches."""
        return self.layout.total_pages

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_pages * self.page_size

    def trace(self) -> Iterator[Ref]:
        """Yield ``(page_id, is_write, cpu_seconds)`` references."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"{self.footprint_bytes / (1 << 20):.1f} MB>"
        )
