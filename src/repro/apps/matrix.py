"""Sparse-matrix multiply (Section 5.2) — processor-centric.

The key kernel is the sparse vector-vector dot product.  Each Active
Page holds one operand pair (index and value arrays co-located on the
page) plus an output staging area:

* **conventional** — the processor streams both index arrays, merge-
  compares them (~17 instructions per nonzero), gathers the values of
  matching indices, multiplies, and writes results back.  "Sparse
  vector FLOPS on a conventional system are often an order of
  magnitude lower than those for dense vectors."
* **Active Pages** — the compare-gather-compute partitioning: the page
  circuit compares indices (1 cycle per nonzero) and packs matching
  value pairs into cache-line-sized blocks (2 cycles per match); the
  processor reads only the packed pairs, multiplies at peak
  floating-point speed, and writes back cache-line blocks.

Two datasets: ``matrix-simplex`` (register-allocation LPs: constant
row density, so per-page times are constant and the analytic model
fits well) and ``matrix-boeing`` (Harwell-Boeing-like finite-element
rows: strongly varied density, which breaks the constant-time model —
the paper's 0.830 correlation outlier).
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional

import numpy as np

from repro.apps.base import (
    BEGIN_POST,
    END_POST,
    Application,
    Partitioning,
    Table4Row,
    Workload,
)
from repro.apps.data import (
    BOEING_MEAN_NNZ,
    SIMPLEX_INDEX_RANGE,
    SIMPLEX_NNZ,
    SparseVectorPair,
    boeing_pairs,
    simplex_pairs,
)
from repro.core.functions import PageTask
from repro.core.page import SYNC_BYTES
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Logic cycles per nonzero index compared.
CYCLES_PER_NNZ = 1.0
#: Logic cycles per matched pair gathered into the output block.
CYCLES_PER_MATCH = 2.0
#: Conventional instructions per nonzero (loads, compare, branch).
CONV_OPS_PER_NNZ = 17
#: Conventional instructions per match (address calc, FP multiply).
CONV_OPS_PER_MATCH = 8
#: Processor instructions per match in the partitioned version
#: (pipelined FP multiply over packed operands).
RADRAM_OPS_PER_MATCH = 6

_IDX = 4  # int32 indices
_VAL = 8  # float64 values


class _MatrixAppBase(Application):
    """Shared plumbing for the two sparse-matrix datasets."""

    partitioning = Partitioning.PROCESSOR_CENTRIC
    processor_computation = "Floating point multiplies"
    active_page_computation = "Index comparison and gather/scatter of data"

    def _make_pairs(
        self,
        n_pairs: int,
        seed: int,
        params: Optional[Mapping[str, float]] = None,
    ) -> List[SparseVectorPair]:
        raise NotImplementedError

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
        n_pairs = w.whole_pages
        pairs = self._make_pairs(n_pairs, seed, params)
        w.data["params"] = dict(params) if params else {}
        if n_pages < 1.0:
            # Sub-page problem: one pair scaled down proportionally.
            p = pairs[0]
            keep_a = max(2, int(len(p.idx_a) * n_pages))
            keep_b = max(2, int(len(p.idx_b) * n_pages))
            pairs = [
                SparseVectorPair(
                    p.idx_a[:keep_a], p.val_a[:keep_a], p.idx_b[:keep_b], p.val_b[:keep_b]
                )
            ]
        w.data["pairs"] = pairs
        w.data["sizes"] = [
            {"na": len(p.idx_a), "nb": len(p.idx_b), "m": len(p.matches())}
            for p in pairs
        ]
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
        return w

    # ------------------------------------------------------------------
    def _dot_products(self, pairs: List[SparseVectorPair]) -> np.ndarray:
        """Reference dots — identical arithmetic order to both streams."""
        dots = []
        for p in pairs:
            common, ia, ib = np.intersect1d(
                p.idx_a, p.idx_b, assume_unique=True, return_indices=True
            )
            dots.append(float(np.dot(p.val_a[ia], p.val_b[ib])))
        return np.array(dots)

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        if w.functional:
            w.results["dots"] = self._dot_products(w.data["pairs"])
        for j, size in enumerate(w.data["sizes"]):
            na, nb, m = size["na"], size["nb"], size["m"]
            base = w.page_base(j)
            idx_a, val_a = base, base + na * _IDX
            idx_b = val_a + na * _VAL
            val_b = idx_b + nb * _IDX
            out = val_b + nb * _VAL
            yield O.MemRead(idx_a, na * _IDX)
            yield O.MemRead(idx_b, nb * _IDX)
            yield O.Compute(CONV_OPS_PER_NNZ * (na + nb))
            if m:
                # Gather matched values from both value arrays: the
                # matches are spread through them, so most touches are
                # fresh lines.
                step_a = max(1, na // m)
                step_b = max(1, nb // m)
                ks = np.arange(m, dtype=np.int64)
                yield O.GatherRead(val_a + ks * (step_a * _VAL), elem_bytes=_VAL)
                yield O.GatherRead(val_b + ks * (step_b * _VAL), elem_bytes=_VAL)
                yield O.Compute(CONV_OPS_PER_MATCH * m)
                yield O.MemWrite(out, m * _VAL)

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        if w.functional:
            w.results["dots"] = self._dot_products(w.data["pairs"])
        sizes = w.data["sizes"]
        for j, size in enumerate(sizes):
            cycles = (
                CYCLES_PER_NNZ * (size["na"] + size["nb"])
                + CYCLES_PER_MATCH * size["m"]
            )
            task = PageTask.simple(cycles)
            yield from self.activate_page(w.page_base(j) // w.page_bytes, task)
        for j, size in enumerate(sizes):
            m = size["m"]
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            out = w.page_base(j) + w.page_bytes - SYNC_BYTES - 16 * max(m, 1)
            # Packed operand pairs: sequential cache-line blocks.
            yield O.MemRead(out, 16 * m)
            yield O.Compute(RADRAM_OPS_PER_MATCH * m)
            yield O.MemWrite(out, 8 * m)
            yield END_POST


class MatrixSimplexApp(_MatrixAppBase):
    """Simplex method for optimal register allocation (uniform rows)."""

    name = "matrix-simplex"
    descriptor_words = 29
    paper_table4 = Table4Row(2.033, 4.418, 13.422, 8, 0.968)

    def _make_pairs(
        self,
        n_pairs: int,
        seed: int,
        params: Optional[Mapping[str, float]] = None,
    ) -> List[SparseVectorPair]:
        # Axis: ``density`` = nnz / index range (sparsity axis); 0 is a
        # fully sparse row, 1 fully dense.  Legacy operating point
        # 606/6330 ≈ 0.0957.
        density = self._param(params, "density", SIMPLEX_NNZ / SIMPLEX_INDEX_RANGE)
        if not 0.0 <= density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        nnz = int(round(density * SIMPLEX_INDEX_RANGE))
        return simplex_pairs(n_pairs, seed=seed, nnz=nnz)


class MatrixBoeingApp(_MatrixAppBase):
    """Harwell-Boeing finite-element multiply (varied row density)."""

    name = "matrix-boeing"
    descriptor_words = 24
    paper_table4 = Table4Row(1.722, 11.486, 12.814, 9, 0.830)

    def _make_pairs(
        self,
        n_pairs: int,
        seed: int,
        params: Optional[Mapping[str, float]] = None,
    ) -> List[SparseVectorPair]:
        # Axes: ``skew`` is the interface/interior density ratio (None
        # preserves the legacy ≈8.85); ``density`` scales the mean row
        # density (0 fully sparse, 1 legacy, >1 denser).
        skew = (
            None if params is None or "skew" not in params
            else float(params["skew"])
        )
        density = self._param(params, "density", 1.0)
        if density < 0.0:
            raise ValueError("density scale cannot be negative")
        mean_nnz = int(round(density * BOEING_MEAN_NNZ))
        return boeing_pairs(n_pairs, seed=seed, mean_nnz=mean_nnz, skew=skew)
