"""MPEG decode via MMX primitives (Section 5.2) — processor-centric.

The studied kernel applies motion-correction matrices to P/B frames:
``frame = paddsw(frame, correction)`` over large int16 blocks.

* **conventional** — SimpleScalar-style MMX: each instruction produces
  32 bits, so the processor issues one instruction per word plus the
  loads/stores, streaming both operands through the caches.
* **Active Pages** — a RADram MMX instruction operates on up to 256 KB
  in the page's logic; the processor's job shrinks to dispatching the
  wide instruction (a large descriptor: opcode plus correction-block
  parameters, hence the big T_A) and polling.

Each page holds a frame half and a correction half; one wide
instruction corrects the whole frame half in place.
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
from repro.apps.data import apply_byte_mutations, mpeg_blocks
from repro.core.page import SYNC_BYTES
from repro.radram.mmx import (
    conventional_instruction_count,
    mmx_op,
    radram_mmx_task,
)
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Conventional instructions per MMX word beyond the op itself
#: (effective address + load + store pipeline slots).
CONV_OPS_PER_WORD = 3

_PADDSW = mmx_op("paddsw")


def frame_bytes_per_page(page_bytes: int) -> int:
    """Bytes of frame data per page (half the data area, word aligned)."""
    usable = page_bytes - SYNC_BYTES
    return (usable // 2) & ~0x3


class MpegMMXApp(Application):
    """Motion-correction application with MMX primitives."""

    name = "mpeg-mmx"
    partitioning = Partitioning.PROCESSOR_CENTRIC
    processor_computation = "MMX dispatch; discrete cosine transform"
    active_page_computation = "MMX instructions"
    descriptor_words = 136
    paper_table4 = Table4Row(8.484, 0.438, 142.3, 9, 0.997)

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
        fbp = frame_bytes_per_page(page_bytes)
        total_frame_bytes = max(128, int(round(n_pages * fbp)) & ~0x7F)
        # Axes: ``amplitude`` scales the int16 value ranges (how often
        # saturating adds actually saturate); ``byte_flips`` applies
        # seeded byte-level mutations to both operand blocks (fuzzing).
        amplitude = self._param(params, "amplitude", 1.0)
        byte_flips = int(self._param(params, "byte_flips", 0))
        w.data["fbp"] = fbp
        w.data["frame_bytes"] = total_frame_bytes
        w.data["params"] = dict(params) if params else {}
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
            n_blocks = total_frame_bytes // 128  # 8x8 int16 blocks
            frames, corrections = mpeg_blocks(n_blocks, seed=seed, amplitude=amplitude)
            if byte_flips:
                frames = apply_byte_mutations(frames, byte_flips, seed=seed)
                corrections = apply_byte_mutations(
                    corrections, byte_flips, seed=seed + 1
                )
            w.data["frames"] = frames.reshape(-1)
            w.data["corrections"] = corrections.reshape(-1)
        return w

    # ------------------------------------------------------------------
    def _page_frame_bytes(self, w: Workload) -> List[int]:
        fbp, remaining = w.data["fbp"], w.data["frame_bytes"]
        out = []
        while remaining > 0:
            out.append(min(fbp, remaining))
            remaining -= fbp
        return out

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        if w.functional:
            w.results["frames"] = _PADDSW.apply(
                w.data["frames"], w.data["corrections"]
            )
        for j, nbytes in enumerate(self._page_frame_bytes(w)):
            frame_base = w.page_base(j)
            corr_base = frame_base + nbytes
            insns = conventional_instruction_count(nbytes)
            chunk = 1 << 15
            offset = 0
            while offset < nbytes:
                size = min(chunk, nbytes - offset)
                yield O.MemRead(frame_base + offset, size)
                yield O.MemRead(corr_base + offset, size)
                yield O.Compute(CONV_OPS_PER_WORD * (size // 4))
                yield O.MemWrite(frame_base + offset, size)
                offset += size
        yield O.Compute(100)  # dispatch loop epilogue

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        if w.functional:
            w.results["frames"] = _PADDSW.apply(
                w.data["frames"], w.data["corrections"]
            )
        per_page = self._page_frame_bytes(w)
        for j, nbytes in enumerate(per_page):
            task = radram_mmx_task(nbytes)
            yield from self.activate_page(w.page_base(j) // w.page_bytes, task)
        for j in range(len(per_page)):
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            yield O.MemRead(w.page_base(j) + w.page_bytes - SYNC_BYTES, 4)
            yield O.Compute(300)  # select and queue the next instruction
            yield END_POST
