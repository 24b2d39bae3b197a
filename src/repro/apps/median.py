"""Image median filtering (Section 5.1).

A 3x3 median filter over a uint16 image.  The image is divided into
row bands, one per Active Page; each band carries two halo rows (one
above, one below) so the kernel never leaves its page:

* **conventional** — a hand-tuned scan: ~25 instructions per pixel
  (the minimal-comparison median-of-9 network plus loads/stores).
* **Active Pages (median-kernel)** — each page filters its band with a
  pipelined 9-value sorting circuit at 4/3 logic cycles per pixel; the
  processor only dispatches and polls.
* **median-total** — additionally simulates the two processor phases
  around the kernel: transforming the scanline-ordered source image
  into the banded-with-halo page layout (a strided gather whose cost
  depends on the L1 data cache — the Figure 5 stride effects) and
  reading the filtered bands back out.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.apps.base import (
    BEGIN_POST,
    END_POST,
    Application,
    Partitioning,
    Table4Row,
    Workload,
)
from repro.apps.data import apply_byte_mutations, median3x3_reference, noisy_image
from repro.core.functions import PageTask
from repro.core.page import SYNC_BYTES
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Logic cycles per pixel: pipelined sorter at ~1 pixel/cycle plus
#: row-buffer refill overhead.
CYCLES_PER_PIXEL = 4.0 / 3.0
#: Conventional instructions per pixel (minimal median-of-9 network).
CONV_OPS_PER_PIXEL = 25

_PX = 2  # bytes per uint16 pixel


def band_geometry(page_bytes: int) -> Tuple[int, int]:
    """``(width, rows_per_page)`` for a page size.

    Width is the power of two giving roughly square bands; each page
    stores its band rows plus two halo rows.
    """
    data_bytes = page_bytes - SYNC_BYTES
    width = 1 << max(4, int(np.log2(np.sqrt(data_bytes / _PX))))
    rows = data_bytes // (_PX * width) - 2  # minus halo rows
    if rows < 1:
        width //= 2
        rows = data_bytes // (_PX * width) - 2
    return width, max(1, rows)


class MedianApp(Application):
    """3x3 median filter, kernel-only timing (paper "median-kernel")."""

    name = "median-kernel"
    partitioning = Partitioning.MEMORY_CENTRIC
    processor_computation = "Image I/O"
    active_page_computation = "Median of neighboring pixels"
    descriptor_words = 1
    paper_table4 = Table4Row(0.381, 0.580, 3502.0, 9185, 0.997)

    #: whether streams include the layout-transform phases.
    include_transform = False

    def workload(
        self,
        n_pages: float,
        page_bytes: int,
        functional: bool = True,
        memory: Optional[PagedMemory] = None,
        seed: int = 0,
        params: Optional[Mapping[str, float]] = None,
    ) -> Workload:
        w = Workload(
            n_pages=n_pages, page_bytes=page_bytes, functional=functional, memory=memory
        )
        width, rows_per_page = band_geometry(page_bytes)
        height = max(4, int(round(n_pages * rows_per_page)))
        # Axes: ``noise`` is the salt-and-pepper impulse fraction (the
        # image-entropy axis); ``byte_flips`` applies that many seeded
        # byte-level mutations to the generated image (fuzzing).
        noise = self._param(params, "noise", 0.05)
        byte_flips = int(self._param(params, "byte_flips", 0))
        w.data["width"] = width
        w.data["rows_per_page"] = rows_per_page
        w.data["height"] = height
        w.data["params"] = dict(params) if params else {}
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            # Pages for the banded layout plus a contiguous image copy.
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
            image = noisy_image(height, width, seed=seed, noise=noise)
            if byte_flips:
                image = apply_byte_mutations(image, byte_flips, seed=seed)
            w.data["image"] = image
        return w

    # ------------------------------------------------------------------
    def _band_rows(self, w: Workload) -> List[Tuple[int, int]]:
        """``(first_row, n_rows)`` per band."""
        rpp, height = w.data["rows_per_page"], w.data["height"]
        bands = []
        row = 0
        while row < height:
            bands.append((row, min(rpp, height - row)))
            row += rpp
        return bands

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        width, height = w.data["width"], w.data["height"]
        if w.functional:
            w.results["filtered"] = median3x3_reference(w.data["image"])
        row_bytes = width * _PX
        in_base = w.base
        out_base = w.base + height * row_bytes
        for r in range(height):
            # The sliding 3-row window: the newest row streams in, the
            # two rows above are still cached.
            yield O.MemRead(in_base + r * row_bytes, row_bytes)
            yield O.Compute(CONV_OPS_PER_PIXEL * width)
            yield O.MemWrite(out_base + r * row_bytes, row_bytes)

    # ------------------------------------------------------------------
    @staticmethod
    def _tile_rows(row_bytes: int) -> int:
        """Transform tile height: 48 KB of rows.

        The column-major gather keeps one tile's rows live across the
        column sweep.  Rows at this stride collide three-deep in a
        32 KB 2-way L1 (conflict misses on every revisit) but two-deep
        — exactly the associativity — from 64 KB up: the Figure 5
        "stride effects" of the median-total transform phase.
        """
        return max(8, 49152 // row_bytes)

    def _transform_in_stream(self, w: Workload) -> Iterator[O.Op]:
        """Scanline image -> banded page layout.

        The source image is gathered column-group by column-group
        within row tiles (a transpose-like access): the first pass
        over a tile misses, later column groups hit only if the tile
        fits in the L1 D-cache — the paper's "stride effects".
        """
        width = w.data["width"]
        row_bytes = width * _PX
        src_base = w.base + w.whole_pages * w.page_bytes  # staging buffer
        for j, (first_row, n_rows) in enumerate(self._band_rows(w)):
            band_rows = n_rows + 2  # with halos
            tile_start = 0
            tile_rows = self._tile_rows(row_bytes)
            while tile_start < band_rows:
                tile = min(tile_rows, band_rows - tile_start)
                tile_base = src_base + (first_row + tile_start) * row_bytes
                # Column-major gather: column c+1 revisits the lines
                # column c touched; they hit only if the tile's rows
                # stayed resident (L1-size dependent).
                for c in range(width):
                    yield O.StridedRead(
                        addr=tile_base + c * _PX,
                        count=tile,
                        stride_bytes=row_bytes,
                        elem_bytes=_PX,
                    )
                yield O.MemWrite(
                    w.page_base(j) + tile_start * row_bytes, tile * row_bytes
                )
                yield O.Compute(4 * tile * width)
                tile_start += tile
            # The page is about to be activated on this data: flush the
            # tile writes out of the caches so the page logic sees them
            # in DRAM (Section 4 coherence; the dispatch-time dirty-line
            # check in repro.check enforces exactly this).
            yield O.FlushRange(w.page_base(j), band_rows * row_bytes)

    def _transform_out_stream(self, w: Workload) -> Iterator[O.Op]:
        """Banded results -> contiguous output image."""
        width = w.data["width"]
        row_bytes = width * _PX
        dst_base = w.base + w.whole_pages * w.page_bytes
        for j, (first_row, n_rows) in enumerate(self._band_rows(w)):
            yield O.MemRead(w.page_base(j) + row_bytes, n_rows * row_bytes)
            yield O.MemWrite(dst_base + first_row * row_bytes, n_rows * row_bytes)
            yield O.Compute(2 * n_rows * width)

    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        width = w.data["width"]
        bands = self._band_rows(w)
        if self.include_transform:
            yield from self._transform_in_stream(w)

        for j, (first_row, n_rows) in enumerate(bands):
            task = PageTask.simple(n_rows * width * CYCLES_PER_PIXEL)
            yield from self.activate_page(w.page_base(j) // w.page_bytes, task)

        outputs = []
        for j, (first_row, n_rows) in enumerate(bands):
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            yield O.MemRead(w.page_base(j) + w.page_bytes - SYNC_BYTES, 4)
            yield O.Compute(420)
            yield END_POST
            if w.functional:
                outputs.append(self._filter_band(w, first_row, n_rows))

        if self.include_transform:
            yield from self._transform_out_stream(w)
        if w.functional:
            w.results["filtered"] = np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------
    def _filter_band(self, w: Workload, first_row: int, n_rows: int) -> np.ndarray:
        """Functionally filter one band using its halo rows."""
        image = w.data["image"]
        height = w.data["height"]
        lo = max(0, first_row - 1)
        hi = min(height, first_row + n_rows + 1)
        window = image[lo:hi]
        filtered = median3x3_reference(window)
        # median3x3_reference copies borders; rows that are interior to
        # the full image but border rows of the window are correct
        # because the window includes the halo.
        start = first_row - lo
        return filtered[start : start + n_rows]


class MedianTotalApp(MedianApp):
    """Median filter including the layout-transform processor phases."""

    name = "median-total"
    include_transform = True
    paper_table4 = None  # Table 4 lists the kernel variant only
