"""The paper's six evaluation applications as page-trace models.

Each class reproduces the *page-level* structure of the real program the
paper ran (§4.1): address-space regions, sweep order, revisit count, and
read/write mix.  Input-size defaults are the paper's ("for QSORT 3000k
records, for GAUSS a 1700x1700 matrix, for MVEC a 2100x2100 matrix, for
FFT an array with 700 K elements, for FILTER a 12 MB image, and the whole
DEC OSF/1 V3.2 kernel for CC").

The ``CPU_SECONDS_PER_PAGE_TOUCH`` constants calibrate compute density so
that on the reference DEC Alpha machine the utime : paging proportions
land near the paper's Fig 2 breakdown (see DESIGN.md §7); they are *per
workload* because the applications do very different amounts of
arithmetic per byte.
"""

from __future__ import annotations

from typing import Iterator

from .base import Ref, Workload, sweep, zigzag_passes

__all__ = [
    "Mvec",
    "Gauss",
    "Qsort",
    "Fft",
    "ImageFilter",
    "KernelBuild",
    "PAPER_WORKLOADS",
]

_DOUBLE = 8  # bytes per double-precision element


class Mvec(Workload):
    """MVEC: matrix-vector multiply, y = A x.

    The matrix is *generated and consumed in one pass*: each row is
    written, multiplied against the resident vector, and never revisited.
    This produces the paper's distinctive MVEC profile — "many pageouts
    and almost no pageins" — which is what makes MVEC the one application
    where mirroring loses to the disk (every pageout costs two transfers,
    and there are no pageins for remote memory to win back).
    """

    name = "mvec"
    CPU_SECONDS_PER_PAGE_TOUCH = 1.2e-3

    def __init__(self, n: int = 2100, page_size: int = 8192):
        if n < 1:
            raise ValueError(f"matrix dimension must be positive: {n}")
        super().__init__(page_size)
        self.n = n
        self.matrix = self.layout.add("matrix", n * n * _DOUBLE)
        self.vectors = self.layout.add("vectors", 2 * n * _DOUBLE)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        vec_pages = self.vectors.n_pages
        # Keep the x/y vectors hot while streaming the matrix through.
        for i, ref in enumerate(
            sweep(self.matrix.start_page, self.matrix.n_pages, cpu, write=True)
        ):
            yield ref
            yield (self.vectors.page(i % vec_pages), True, 0.0)


class Gauss(Workload):
    """GAUSS: blocked Gaussian elimination on an n x n matrix.

    Structure: one generating write pass, then ``passes`` panel-update
    sweeps over the matrix (read-modify-write), alternating direction as a
    blocked right-looking factorisation does when it reuses the hottest
    panels.  The paper's GAUSS is its most paging-dominated benchmark
    (remote memory is 96% faster than disk), so its compute density is
    the lowest of the six.
    """

    name = "gauss"
    CPU_SECONDS_PER_PAGE_TOUCH = 0.8e-3

    def __init__(self, n: int = 1700, passes: int = 4, page_size: int = 8192):
        if n < 1 or passes < 1:
            raise ValueError("n and passes must be positive")
        super().__init__(page_size)
        self.n = n
        self.passes = passes
        self.matrix = self.layout.add("matrix", n * n * _DOUBLE)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        m = self.matrix
        yield from sweep(m.start_page, m.n_pages, cpu, write=True)
        yield from zigzag_passes(
            m.start_page, m.n_pages, self.passes, cpu, write=True, first_reverse=True
        )


class Qsort(Workload):
    """QSORT: quicksort of ``records`` 8-byte records.

    Depth-first recursion with Hoare-style two-pointer partitioning: a
    partition touches its region's pages from both ends converging to the
    middle, then the left half is sorted completely before the right —
    real quicksort's order.  Only the top one or two recursion levels
    exceed memory; deeper subproblems stay resident, which is why
    quicksort's paging share is moderate.  Leaf regions get
    ``LEAF_PASSES`` extra in-memory passes (the comparison-dominated
    small-sort work), where most of its utime comes from.
    """

    name = "qsort"
    CPU_SECONDS_PER_PAGE_TOUCH = 1.7e-3
    LEAF_PAGES = 64
    LEAF_PASSES = 3

    def __init__(self, records: int = 2_800_000, page_size: int = 8192):
        if records < 1:
            raise ValueError(f"record count must be positive: {records}")
        super().__init__(page_size)
        self.records = records
        self.array = self.layout.add("array", records * _DOUBLE)

    def _partition(self, start: int, n_pages: int, cpu: float) -> Iterator[Ref]:
        """Two-pointer converge: low, high, low+1, high-1, ..."""
        lo, hi = 0, n_pages - 1
        while lo <= hi:
            yield (start + lo, True, cpu)
            if hi != lo:
                yield (start + hi, True, cpu)
            lo += 1
            hi -= 1

    def _sort(self, start: int, n_pages: int, cpu: float) -> Iterator[Ref]:
        if n_pages <= self.LEAF_PAGES:
            yield from zigzag_passes(start, n_pages, self.LEAF_PASSES, cpu, write=True)
            return
        yield from self._partition(start, n_pages, cpu)
        half = n_pages // 2
        yield from self._sort(start, half, cpu)
        yield from self._sort(start + half, n_pages - half, cpu)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        region = self.array
        # Load/generate the input.
        yield from sweep(region.start_page, region.n_pages, cpu, write=True)
        yield from self._sort(region.start_page, region.n_pages, cpu)


class Fft(Workload):
    """FFT: out-of-place blocked Fast Fourier Transform.

    Two arrays (input and output) of ``elements`` complex doubles
    (16 bytes each, 32 bytes per element across both arrays).  A blocked
    radix-32-style factorisation makes ``passes`` full sweeps, each
    reading one array and writing the other — so every pass re-touches
    the whole footprint, and the memory deficit pages in and out each
    pass.  This is the paper's input-scaling workload (Figs 3 and 4):
    ``from_megabytes`` builds the sweep sizes of Fig 3.
    """

    name = "fft"
    CPU_SECONDS_PER_PAGE_TOUCH = 7.8e-3

    #: Twiddle-factor table as a fraction of one data array (a partial
    #: table re-read each pass; brings the paper's "700 K element" FFT to
    #: its measured ~24 MB working set).
    TWIDDLE_FRACTION = 0.143

    def __init__(self, elements: int = 700_000, passes: int = 4, page_size: int = 8192):
        if elements < 1 or passes < 1:
            raise ValueError("elements and passes must be positive")
        super().__init__(page_size)
        self.elements = elements
        self.passes = passes
        bytes_per_array = elements * 16
        self.src = self.layout.add("src", bytes_per_array)
        self.dst = self.layout.add("dst", bytes_per_array)
        self.twiddle = self.layout.add(
            "twiddle", max(1, int(bytes_per_array * self.TWIDDLE_FRACTION))
        )

    @classmethod
    def from_megabytes(cls, megabytes: float, **kwargs) -> "Fft":
        """An FFT whose *total* footprint is ``megabytes`` (Fig 3 x-axis)."""
        elements = int(megabytes * (1 << 20) / (32 * (1 + cls.TWIDDLE_FRACTION / 2)))
        return cls(elements=elements, **kwargs)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        # Generate the input signal.
        yield from sweep(self.src.start_page, self.src.n_pages, cpu, write=True)
        src, dst = self.src, self.dst
        for i in range(self.passes):
            reverse = i % 2 == 1
            # Re-read the twiddle table at the start of the pass.
            yield from sweep(
                self.twiddle.start_page, self.twiddle.n_pages, cpu, reverse=reverse
            )
            # Butterfly pass: stream src, write dst, block by block.
            n = min(src.n_pages, dst.n_pages)
            indices = range(n - 1, -1, -1) if reverse else range(n)
            for j in indices:
                yield (src.page(j), False, cpu / 2)
                yield (dst.page(j), True, cpu / 2)
            src, dst = dst, src


class ImageFilter(Workload):
    """FILTER: two-pass separable image sharpening (paper cites Newman 95).

    Pass 1 reads the input image row-wise and writes an intermediate;
    pass 2 reads the intermediate in blocked-column order (organised for
    paged memory, per Newman) and writes the output.  Three image-sized
    regions make its footprint 3x the image.
    """

    name = "filter"
    CPU_SECONDS_PER_PAGE_TOUCH = 7.5e-3

    def __init__(self, image_bytes: int = 12 * (1 << 20), page_size: int = 8192):
        if image_bytes < 1:
            raise ValueError(f"image size must be positive: {image_bytes}")
        super().__init__(page_size)
        self.image_bytes = image_bytes
        self.image = self.layout.add("image", image_bytes)
        self.temp = self.layout.add("temp", image_bytes)
        self.output = self.layout.add("output", image_bytes)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        n = self.image.n_pages
        # Load the image.
        yield from sweep(self.image.start_page, n, cpu, write=True)
        # Horizontal pass: read image, write temp.
        for j in range(n):
            yield (self.image.page(j), False, cpu / 2)
            yield (self.temp.page(min(j, self.temp.n_pages - 1)), True, cpu / 2)
        # Vertical pass (blocked columns): read temp backward, write output.
        for j in range(n - 1, -1, -1):
            yield (self.temp.page(min(j, self.temp.n_pages - 1)), False, cpu / 2)
            yield (self.output.page(min(j, self.output.n_pages - 1)), True, cpu / 2)


class KernelBuild(Workload):
    """CC: building the DEC OSF/1 kernel.

    ``units`` compilation units are compiled in sequence: each reuses the
    hot compiler region, works in a private scratch region, and emits an
    object region that is then untouched until the final link pass reads
    every object back (paging most of them in) and writes the kernel
    image.  This gives the build's characteristic profile: high utime,
    moderate paging concentrated at link time — the paper's most
    "realistic application" (§4.1), where remote memory still wins ~27%.
    """

    name = "cc"
    CPU_SECONDS_PER_PAGE_TOUCH = 1.55e-3
    COMPILE_PASSES = 2

    def __init__(
        self,
        units: int = 170,
        object_pages: int = 12,
        scratch_pages: int = 96,
        compiler_pages: int = 256,
        page_size: int = 8192,
    ):
        if min(units, object_pages, scratch_pages, compiler_pages) < 1:
            raise ValueError("all sizing parameters must be positive")
        super().__init__(page_size)
        self.units = units
        self.object_pages = object_pages
        self.scratch_pages = scratch_pages
        self.compiler_pages = compiler_pages
        self.link_passes = 2  # symbol resolution, then relocation/emit
        self.compiler = self.layout.add("compiler", compiler_pages * page_size)
        self.scratch = self.layout.add("scratch", scratch_pages * page_size)
        self.objects = [
            self.layout.add(f"object-{i}", object_pages * page_size)
            for i in range(units)
        ]
        self.image = self.layout.add("image", units * object_pages * page_size // 2)

    def trace(self) -> Iterator[Ref]:
        cpu = self.CPU_SECONDS_PER_PAGE_TOUCH
        # Warm the compiler text.
        yield from sweep(self.compiler.start_page, self.compiler.n_pages, cpu)
        for obj in self.objects:
            # Touch some compiler pages (hot, stays resident).
            yield from sweep(self.compiler.start_page, self.compiler.n_pages // 4, cpu)
            # Per-unit scratch work.
            yield from zigzag_passes(
                self.scratch.start_page,
                self.scratch.n_pages,
                self.COMPILE_PASSES,
                cpu,
                write=True,
            )
            # Emit the object file.
            yield from sweep(obj.start_page, obj.n_pages, cpu, write=True)
        # Link: two passes over the objects (symbol resolution, then
        # relocation), emitting the kernel image interleaved with the
        # second read — the pattern that makes the build page at all.
        for obj in self.objects:
            yield from sweep(obj.start_page, obj.n_pages, cpu / 2)
        image_cursor = 0
        for obj in self.objects:
            yield from sweep(obj.start_page, obj.n_pages, cpu / 2)
            emit = self.image.n_pages // self.units
            for k in range(emit):
                yield (self.image.page(min(image_cursor + k, self.image.n_pages - 1)), True, cpu / 2)
            image_cursor += emit


#: The Fig 2 application suite with the paper's input sizes.
def PAPER_WORKLOADS():
    """Fresh instances of the six Fig 2 applications (paper inputs)."""
    return [Mvec(), Gauss(), Qsort(), Fft(), ImageFilter(), KernelBuild()]
