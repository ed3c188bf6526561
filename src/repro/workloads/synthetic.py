"""Synthetic workloads for tests, microbenchmarks, and ablations."""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .base import Ref, Workload, sweep, zigzag_passes

__all__ = ["SequentialScan", "UniformRandom", "ZipfAccess", "HotCold"]


class SequentialScan(Workload):
    """``passes`` zigzag sweeps over one region (pure streaming)."""

    name = "sequential-scan"

    def __init__(
        self,
        n_pages: int,
        passes: int = 1,
        write: bool = False,
        cpu_per_page: float = 1e-4,
        page_size: int = 8192,
    ):
        super().__init__(page_size)
        self.n_pages = n_pages
        self.region = self.layout.add("data", n_pages * page_size)
        self.passes = passes
        self.write = write
        self.cpu_per_page = cpu_per_page

    def trace(self) -> Iterator[Ref]:
        yield from zigzag_passes(
            self.region.start_page,
            self.region.n_pages,
            self.passes,
            self.cpu_per_page,
            write=self.write,
        )


class UniformRandom(Workload):
    """``n_refs`` uniformly random page references."""

    name = "uniform-random"

    def __init__(
        self,
        n_pages: int,
        n_refs: int,
        write_fraction: float = 0.5,
        cpu_per_page: float = 1e-4,
        seed: int = 0,
        page_size: int = 8192,
    ):
        if not 0 <= write_fraction <= 1:
            raise ValueError(f"write_fraction outside [0, 1]: {write_fraction}")
        super().__init__(page_size)
        self.n_pages = n_pages
        self.region = self.layout.add("data", n_pages * page_size)
        self.n_refs = n_refs
        self.write_fraction = write_fraction
        self.cpu_per_page = cpu_per_page
        self.seed = seed

    def trace(self) -> Iterator[Ref]:
        rng = random.Random(self.seed)
        for _ in range(self.n_refs):
            page = self.region.page(rng.randrange(self.region.n_pages))
            is_write = rng.random() < self.write_fraction
            yield (page, is_write, self.cpu_per_page)


class ZipfAccess(Workload):
    """Zipf-distributed references: a few pages dominate."""

    name = "zipf"

    def __init__(
        self,
        n_pages: int,
        n_refs: int,
        skew: float = 1.1,
        write_fraction: float = 0.3,
        cpu_per_page: float = 1e-4,
        seed: int = 0,
        page_size: int = 8192,
    ):
        if skew <= 0:
            raise ValueError(f"skew must be positive: {skew}")
        super().__init__(page_size)
        self.n_pages = n_pages
        self.region = self.layout.add("data", n_pages * page_size)
        self.n_refs = n_refs
        self.skew = skew
        self.write_fraction = write_fraction
        self.cpu_per_page = cpu_per_page
        self.seed = seed

    def trace(self) -> Iterator[Ref]:
        rng = random.Random(self.seed)
        n = self.region.n_pages
        # Inverse-CDF sampling over the (truncated) Zipf weights.
        weights = [1.0 / (rank**self.skew) for rank in range(1, n + 1)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w
            cumulative.append(acc / total)
        import bisect

        for _ in range(self.n_refs):
            rank = bisect.bisect_left(cumulative, rng.random())
            page = self.region.page(min(rank, n - 1))
            yield (page, rng.random() < self.write_fraction, self.cpu_per_page)


class HotCold(Workload):
    """A hot set referenced with probability ``hot_fraction``; classic
    working-set shape for replacement-policy ablations."""

    name = "hot-cold"

    def __init__(
        self,
        hot_pages: int,
        cold_pages: int,
        n_refs: int,
        hot_fraction: float = 0.9,
        cpu_per_page: float = 1e-4,
        seed: int = 0,
        page_size: int = 8192,
    ):
        if not 0 <= hot_fraction <= 1:
            raise ValueError(f"hot_fraction outside [0, 1]: {hot_fraction}")
        super().__init__(page_size)
        self.hot_pages = hot_pages
        self.cold_pages = cold_pages
        self.hot = self.layout.add("hot", hot_pages * page_size)
        self.cold = self.layout.add("cold", cold_pages * page_size)
        self.n_refs = n_refs
        self.hot_fraction = hot_fraction
        self.cpu_per_page = cpu_per_page
        self.seed = seed

    def trace(self) -> Iterator[Ref]:
        # The stream is exactly ``region.page(rng.randrange(n))`` per
        # reference, drawn the way CPython's randrange draws it
        # (``_randbelow_with_getrandbits``: k-bit draws, rejected until
        # below n), without its per-call argument handling.
        rng = random.Random(self.seed)
        uniform = rng.random
        getrandbits = rng.getrandbits
        hot_fraction = self.hot_fraction
        cpu = self.cpu_per_page
        hot = (self.hot.start_page, self.hot.n_pages, self.hot.n_pages.bit_length())
        cold = (self.cold.start_page, self.cold.n_pages, self.cold.n_pages.bit_length())
        for _ in range(self.n_refs):
            start, n, k = hot if uniform() < hot_fraction else cold
            r = getrandbits(k)
            while r >= n:
                if not n:  # k == 0 draws 0 forever: refuse like randrange
                    raise ValueError("cannot draw a page from an empty region")
                r = getrandbits(k)
            yield (start + r, uniform() < 0.3, cpu)
