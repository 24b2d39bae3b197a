"""Largest common subsequence / dynamic programming (Section 5.1).

The n x n DP table is distributed across Active Pages as row bands;
the computation proceeds as a wavefront over a K-band x K-chunk grid.
The processor orchestrates the wavefront: at each anti-diagonal step it
copies boundary-row segments from each band's predecessor into the
band's halo (processor-mediated inter-page communication) and dispatches
the band's next chunk; pages compute chunks at one logic cycle per cell.

This realizes the paper's O(n log n)-flavoured wavefront and its
observed behaviour: non-overlap stays high (the processor is mostly
coordinating, not computing), and for very large problems the
processor-mediated communication dominates, bending the speedup curve
back down.

Backtracking runs entirely on the processor in *both* versions, per
Table 2.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.apps.base import (
    BEGIN_ACTIVATION,
    BEGIN_POST,
    END_ACTIVATION,
    END_POST,
    Application,
    Partitioning,
    Workload,
)
from repro.apps.data import related_sequences
from repro.core.functions import CommRequest, PageTask, Segment
from repro.core.page import SYNC_BYTES
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Logic cycles per DP cell (two chained MAX units, pipelined).
CYCLES_PER_CELL = 1.0
#: Conventional instructions per DP cell.
CONV_OPS_PER_CELL = 6
#: Instructions per backtracking step.
BACKTRACK_OPS = 20

_CELL = 2  # int16 table entries


def cells_per_page(page_bytes: int) -> int:
    return (page_bytes - SYNC_BYTES) // _CELL


class LCSApp(Application):
    """Protein-sequence LCS via wavefront dynamic programming."""

    name = "dynamic-prog"
    partitioning = Partitioning.MEMORY_CENTRIC
    processor_computation = "Backtracking"
    active_page_computation = "Compute MINs and fills table"
    #: per-chunk dispatch: the band's parameters are bound once, each
    #: activation only carries the chunk index.
    descriptor_words = 2
    paper_table4 = None  # dynamic prog is not in Table 4

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
        cpp = cells_per_page(page_bytes)
        n = max(8, int(round(np.sqrt(n_pages * cpp))))
        bands = w.whole_pages
        # Axis: ``similarity`` in [0, 1] is the sequence-similarity
        # axis — 1 gives identical sequences, the legacy default 0.85
        # the homolog-like 15% mutation rate.
        similarity = self._param(params, "similarity", 0.85)
        if not 0.0 <= similarity <= 1.0:
            raise ValueError("similarity must be in [0, 1]")
        w.data["n"] = n
        w.data["bands"] = bands
        w.data["band_rows"] = -(-n // bands)
        w.data["chunk_cols"] = -(-n // bands)
        w.data["params"] = dict(params) if params else {}
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
            a, b = related_sequences(n, mutation_rate=1.0 - similarity, seed=seed)
            w.data["seq_a"] = a
            w.data["seq_b"] = b
        return w

    # ------------------------------------------------------------------
    def _lcs_by_bands(self, w: Workload) -> int:
        """Functional LCS length, computed band of rows at a time."""
        a, b = w.data["seq_a"], w.data["seq_b"]
        band_rows = w.data["band_rows"]
        b_arr = np.frombuffer(b, dtype=np.uint8)
        prev = np.zeros(len(b) + 1, dtype=np.int32)
        for band_start in range(0, len(a), band_rows):
            # The boundary row `prev` is what the wavefront hands from
            # band i-1 to band i, chunk by chunk.
            for ch in a[band_start : band_start + band_rows]:
                curr = np.zeros_like(prev)
                candidate = np.maximum(prev[:-1] + (b_arr == ch), prev[1:])
                np.maximum.accumulate(candidate, out=curr[1:])
                prev = curr
        return int(prev[-1])

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        n = w.data["n"]
        if w.functional:
            w.results["lcs"] = self._lcs_by_bands(w)
        row_bytes = n * _CELL
        for r in range(n):
            yield O.Compute(CONV_OPS_PER_CELL * n)
            yield O.MemWrite(w.base + r * row_bytes, row_bytes)
        yield from self._backtrack_stream(w)

    def _backtrack_stream(self, w: Workload) -> Iterator[O.Op]:
        """Walk the table from (n, n) back to the origin."""
        n = w.data["n"]
        row_bytes = n * _CELL
        steps = 2 * n
        # The path walks up/left one cell at a time: one random-ish
        # table read per step.
        k = np.arange(steps, dtype=np.int64)
        path = (
            w.base
            + (n - 1 - k // 2) * row_bytes
            + (n - 1 - (k + 1) // 2) * _CELL
        )
        chunk = 1 << 12
        for i in range(0, steps, chunk):
            yield O.GatherRead(path[i : i + chunk], elem_bytes=_CELL)
            yield O.Compute(BACKTRACK_OPS * min(chunk, steps - i))

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        n, bands = w.data["n"], w.data["bands"]
        band_rows, chunk_cols = w.data["band_rows"], w.data["chunk_cols"]
        chunk_cells = band_rows * chunk_cols
        chunks = bands  # square chunk grid: one chunk column per band
        if w.functional:
            w.results["lcs"] = self._lcs_by_bands(w)

        # With the Section 10 hardware comm network, boundary rows are
        # in-page references the network satisfies; otherwise the
        # processor copies them (the paper's reference mechanism).
        rconfig = w.data.get("radram_config")
        hardware_comm = (
            rconfig is not None and rconfig.comm_mechanism == "hardware"
        )

        boundary_bytes = chunk_cols * _CELL
        for step in range(bands + chunks - 1):
            active: List[Tuple[int, int]] = [
                (i, step - i)
                for i in range(max(0, step - chunks + 1), min(bands, step + 1))
            ]
            for band, chunk in active:
                yield BEGIN_ACTIVATION
                segments = []
                # This activation touches its halo row and the chunk's
                # cell block — declared so the sanitizer's race detector
                # can prove the boundary copy below (which reads band-1
                # while band-1 computes chunk+1) never overlaps an
                # in-flight span.  The read occupies unit offsets
                # [band_rows-1+chunk, band_rows+chunk) of band-1, the
                # in-flight computed block [(chunk+1)*band_rows,
                # (chunk+2)*band_rows): disjoint for all band_rows >= 1;
                # the in-flight halo overlaps only when band_rows == 2,
                # below any practical sweep size.
                spans = [
                    (
                        w.page_base(band) + chunk * chunk_cells * _CELL,
                        chunk_cells * _CELL,
                    )
                ]
                if band > 0:
                    src = w.page_base(band - 1) + (band_rows - 1) * chunk_cols * _CELL
                    dst = w.page_base(band) + chunk * boundary_bytes
                    spans.append((dst, boundary_bytes))
                    if hardware_comm:
                        # The page pulls its boundary over the in-chip
                        # network before computing.
                        segments.append(
                            Segment(
                                0.0,
                                CommRequest(
                                    nbytes=boundary_bytes,
                                    src_vaddr=src + chunk * boundary_bytes,
                                    dst_vaddr=dst,
                                ),
                            )
                        )
                    else:
                        # Processor-mediated boundary copy; the halo
                        # write must be flushed out of the caches before
                        # dispatch or the page would compute on stale
                        # DRAM (the paper's Section 4 coherence rule).
                        yield O.MemRead(src + chunk * boundary_bytes, boundary_bytes)
                        yield O.MemWrite(dst, boundary_bytes)
                        yield O.FlushRange(dst, boundary_bytes)
                        yield O.Compute(20)
                segments.append(Segment(chunk_cells * CYCLES_PER_CELL))
                task = PageTask.of(segments, working_spans=spans)
                yield O.Activate(
                    w.page_base(band) // w.page_bytes, self.descriptor_words, task
                )
                yield END_ACTIVATION
            # Wavefront barrier: the next anti-diagonal needs these done.
            for band, chunk in active:
                yield BEGIN_POST
                yield O.WaitPage(w.page_base(band) // w.page_bytes)
                yield O.Compute(12)
                yield END_POST
        # Read the final corner cell (the LCS length), then backtrack.
        yield O.MemRead(w.page_base(bands - 1) + w.page_bytes - SYNC_BYTES, 4)
        yield from self._backtrack_stream(w)
