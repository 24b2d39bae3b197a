"""The STL array template application (Section 5.1).

A C++ ``array<T>`` backed by dense storage whose ``insert``, ``delete``
and ``find``/``count`` operations are offloaded to Active Pages:

* **insert** — every page shifts its slice up one slot in parallel;
  the processor performs the cross-page carries (Table 2: "cross-page
  moves") by saving each page's boundary word before activation and
  writing it into the next page afterwards.
* **delete** — the mirror image, shifting down.  For arrays smaller
  than one Active Page the RADram version adaptively falls back to the
  processor, which the SimpleScalar-style ISA favours for deletes
  (the paper's one sub-page anomaly).
* **find** — each page counts matches of a 32-bit key with a binary
  comparison circuit; the processor sums per-page counts.

Layout note: the conventional system stores the array contiguously;
the Active-Page system stores it as the concatenation of per-page data
areas (each page reserves its top 64 bytes for sync variables).  The
equivalence checks compare logical array contents, not raw addresses.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional

import numpy as np

from repro.apps.base import (
    BEGIN_ACTIVATION,
    BEGIN_POST,
    END_ACTIVATION,
    END_POST,
    Application,
    Partitioning,
    Table4Row,
    Workload,
)
from repro.core.functions import PageTask
from repro.core.page import SYNC_BYTES
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Logic cycles per word for the shift circuits (32-bit port, one word
#: read+written per cycle via the row buffer).
SHIFT_CYCLES_PER_WORD = 1.0
#: Logic cycles per word for the compare-and-count circuit.
FIND_CYCLES_PER_WORD = 9.0 / 8.0

_WORD = 4


def words_per_page(page_bytes: int) -> int:
    """32-bit words in one page's data area (page minus sync area)."""
    return (page_bytes - SYNC_BYTES) // _WORD


class _ArrayAppBase(Application):
    """Shared workload construction for the three array primitives."""

    partitioning = Partitioning.MEMORY_CENTRIC
    processor_computation = "C++ code using array class; cross-page moves"
    active_page_computation = "Array insert, delete, and find"

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
            n_pages=n_pages,
            page_bytes=page_bytes,
            functional=functional,
            memory=memory,
        )
        wpp = words_per_page(page_bytes)
        total = max(8, int(round(n_pages * wpp)))
        # Axes: ``position`` is the insert/delete point as a fraction
        # of the array (how many pages shift); ``key_density`` the
        # planted-key fraction (the find/count selectivity).
        position = self._param(params, "position", 1.0 / 3.0)
        key_density = self._param(params, "key_density", 1.0 / 97.0)
        if not 0.0 <= position <= 1.0:
            raise ValueError("position must be in [0, 1]")
        if not 0.0 <= key_density <= 1.0:
            raise ValueError("key_density must be in [0, 1]")
        w.data["wpp"] = wpp
        w.data["total_words"] = total
        # Clamp so insert/delete always have at least one word to move.
        w.data["position"] = min(total - 2, int(position * total)) if params else total // 3
        w.data["key"] = 0x5A5A5A5A
        w.data["params"] = dict(params) if params else {}
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
            rng = np.random.default_rng(seed)
            values = rng.integers(0, 1 << 20, total, dtype=np.uint32)
            # Plant copies of the key at the axis density (legacy ~1%).
            if params is not None and "key_density" in params:
                n_planted = int(round(total * key_density))
            else:
                n_planted = max(1, total // 97)
            planted = rng.choice(total, size=n_planted, replace=False)
            values[planted] = w.data["key"]
            start = 0
            for chunk in self._page_slices(w):
                chunk[:] = values[start : start + len(chunk)]
                start += len(chunk)
            w.data["initial"] = values
        return w

    # -- paged logical array helpers ----------------------------------

    def _page_word_counts(self, w: Workload) -> List[int]:
        """Words stored in each page (last page may be partial)."""
        wpp = w.data["wpp"]
        remaining = w.data["total_words"]
        counts = []
        while remaining > 0:
            counts.append(min(wpp, remaining))
            remaining -= wpp
        return counts

    def _page_slices(self, w: Workload) -> List[np.ndarray]:
        """Typed views of each page's occupied data words."""
        assert w.functional and w.region is not None
        views = []
        for j, count in enumerate(self._page_word_counts(w)):
            start = j * w.page_bytes
            page = w.region.buffer[start : start + w.page_bytes - SYNC_BYTES]
            views.append(page.view(np.uint32)[:count])
        return views

    def logical_array(self, w: Workload) -> np.ndarray:
        """The array as the application sees it (concatenated pages)."""
        return np.concatenate(self._page_slices(w))

    def _sync_addr(self, w: Workload, page_index: int) -> int:
        return w.page_base(page_index) + w.page_bytes - SYNC_BYTES

    def _word_addr(self, w: Workload, index: int) -> int:
        """Virtual address of logical word ``index`` in paged layout."""
        wpp = w.data["wpp"]
        page, offset = divmod(index, wpp)
        return w.page_base(page) + offset * _WORD

    # -- conventional-layout workload ----------------------------------

    def conventional_workload(self, *args, **kwargs) -> Workload:
        """Same problem, contiguous layout (no per-page sync areas)."""
        w = self.workload(*args, **kwargs)
        if w.functional:
            flat = self.logical_array(w).copy()
            w.data["flat"] = flat
        return w


class ArrayInsertApp(_ArrayAppBase):
    """``array.insert(position, value)``."""

    name = "array-insert"
    descriptor_words = 29
    paper_table4 = Table4Row(2.058, 0.387, 1250.0, 3225, 0.999)

    VALUE = 0x1234_5678

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        total, pos = w.data["total_words"], w.data["position"]
        moved = total - pos - 1  # capacity-preserving: last word drops
        if w.functional:
            flat = w.data["flat"]
            tail = flat[pos:-1].copy()
            flat[pos + 1 :] = tail
            flat[pos] = self.VALUE
            w.results["array"] = flat.copy()
        addr = w.base + pos * _WORD
        chunk_words = 1 << 14
        done = 0
        while done < moved:
            n = min(chunk_words, moved - done)
            yield O.MemRead(addr + done * _WORD, n * _WORD)
            yield O.MemWrite(addr + done * _WORD + _WORD, n * _WORD)
            yield O.Compute(2 * n)
            done += n
        yield O.Compute(20)  # bookkeeping: size update, bounds check

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        wpp, total, pos = w.data["wpp"], w.data["total_words"], w.data["position"]
        counts = self._page_word_counts(w)
        first_page = pos // wpp
        pages = list(range(first_page, len(counts)))

        carries = {}
        slices = self._page_slices(w) if w.functional else None
        if w.functional:
            # Save each affected page's last word BEFORE any page
            # shifts (the cross-page carry values).
            for j in pages[:-1]:
                carries[j + 1] = int(slices[j][-1])

        for j in pages:
            yield BEGIN_ACTIVATION
            if j < pages[-1]:
                # Processor saves this page's boundary word (the carry
                # into page j+1) BEFORE activating the page: reading it
                # after dispatch would race the in-flight shift.  Same
                # address set and cost as reading page j-1's last word
                # one iteration later, without the race.
                yield O.GatherRead([self._word_addr(w, (j + 1) * wpp - 1)])
            start_local = pos - j * wpp if j == first_page else 0
            shifted = max(0, counts[j] - start_local - (1 if j == len(counts) - 1 else 0))
            task = PageTask.simple(shifted * SHIFT_CYCLES_PER_WORD)
            yield O.Activate(w.page_base(j) // w.page_bytes, self.descriptor_words, task)
            yield END_ACTIVATION
            if w.functional:
                sl = slices[j]
                lo = start_local
                tail = sl[lo:-1].copy()
                sl[lo + 1 :] = tail

        for j in pages:
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            if j > first_page:
                yield O.ScatterWrite([self._word_addr(w, j * wpp)])
                if w.functional:
                    slices[j][0] = carries[j]
            else:
                if w.functional:
                    slices[j][pos - j * wpp] = self.VALUE
            yield O.MemRead(self._sync_addr(w, j), _WORD)
            yield O.Compute(115)  # size update, iterator fix-up
            yield END_POST
        if w.functional:
            w.results["array"] = self.logical_array(w).copy()


class ArrayDeleteApp(_ArrayAppBase):
    """``array.delete(position)`` (adaptive below one page)."""

    name = "array-delete"
    descriptor_words = 27
    paper_table4 = Table4Row(1.927, 0.512, 1250.0, 2438, 0.999)

    # ------------------------------------------------------------------
    def _move_ops(self, w: Workload) -> Iterator[O.Op]:
        """Timing ops of the processor-side shift-down (memmove)."""
        total, pos = w.data["total_words"], w.data["position"]
        moved = total - pos - 1
        addr = w.base + pos * _WORD
        chunk_words = 1 << 14
        done = 0
        while done < moved:
            n = min(chunk_words, moved - done)
            yield O.MemRead(addr + (done + 1) * _WORD, n * _WORD)
            yield O.MemWrite(addr + done * _WORD, n * _WORD)
            yield O.Compute(2 * n)
            done += n
        yield O.Compute(20)

    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        pos = w.data["position"]
        if w.functional:
            flat = w.data["flat"]
            flat[pos:-1] = flat[pos + 1 :].copy()
            flat[-1] = 0
            w.results["array"] = flat.copy()
        yield from self._move_ops(w)

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        wpp, total, pos = w.data["wpp"], w.data["total_words"], w.data["position"]
        if w.n_pages < 1.0:
            # Sub-page adaptive algorithm: the processor's fast delete
            # beats activation overhead for arrays within one page.
            if w.functional:
                sl = self._page_slices(w)[0]
                sl[pos:-1] = sl[pos + 1 :].copy()
                sl[-1] = 0
                w.results["array"] = self.logical_array(w).copy()
            yield from self._move_ops(w)
            return
        counts = self._page_word_counts(w)
        first_page = pos // wpp
        pages = list(range(first_page, len(counts)))

        carries = {}
        slices = self._page_slices(w) if w.functional else None
        if w.functional:
            # Save each following page's first word BEFORE shifts (it
            # becomes the previous page's new last word).
            for j in pages[1:]:
                carries[j - 1] = int(slices[j][0])

        for j in pages:
            yield BEGIN_ACTIVATION
            if j < pages[-1]:
                yield O.GatherRead([self._word_addr(w, (j + 1) * wpp)])
            start_local = pos - j * wpp if j == first_page else 0
            shifted = max(0, counts[j] - start_local - 1)
            task = PageTask.simple(shifted * SHIFT_CYCLES_PER_WORD)
            yield O.Activate(w.page_base(j) // w.page_bytes, self.descriptor_words, task)
            yield END_ACTIVATION
            if w.functional:
                sl = slices[j]
                lo = start_local
                sl[lo:-1] = sl[lo + 1 :].copy()

        for j in pages:
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            if j < pages[-1]:
                yield O.ScatterWrite([self._word_addr(w, (j + 1) * wpp - 1)])
                if w.functional:
                    slices[j][-1] = carries[j]
            else:
                # Zero-fill the vacated tail slot.
                yield O.ScatterWrite([self._word_addr(w, j * wpp + 0)])
                if w.functional:
                    slices[j][-1] = 0
            yield O.MemRead(self._sync_addr(w, j), _WORD)
            # Size update plus the destructor/iterator fix-up the STL
            # delete path performs per displaced block.
            yield O.Compute(235)
            yield END_POST
        if w.functional:
            w.results["array"] = self.logical_array(w).copy()


class ArrayFindApp(_ArrayAppBase):
    """``array.count(key)`` — the binary comparison circuit."""

    name = "array-find"
    descriptor_words = 25
    paper_table4 = Table4Row(1.776, 0.923, 1500.0, 1624, 0.999)

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        total, key = w.data["total_words"], w.data["key"]
        if w.functional:
            w.results["count"] = int(np.count_nonzero(w.data["flat"] == key))
            w.results["array"] = w.data["flat"].copy()
        chunk_words = 1 << 14
        done = 0
        while done < total:
            n = min(chunk_words, total - done)
            yield O.MemRead(w.base + done * _WORD, n * _WORD)
            yield O.Compute(2 * n)
            done += n
        yield O.Compute(20)

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        key = w.data["key"]
        counts = self._page_word_counts(w)
        slices = self._page_slices(w) if w.functional else None
        page_counts = []

        for j, count in enumerate(counts):
            task = PageTask.simple(count * FIND_CYCLES_PER_WORD)
            yield from self.activate_page(w.page_base(j) // w.page_bytes, task)
            if w.functional:
                page_counts.append(int(np.count_nonzero(slices[j] == key)))

        total_count = 0
        for j in range(len(counts)):
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            # Read the page's result words and fold into the total,
            # plus per-page bookkeeping for the C++ count() caller.
            yield O.MemRead(self._sync_addr(w, j), 64)
            yield O.Compute(640)
            yield END_POST
            if w.functional:
                total_count += page_counts[j]
        if w.functional:
            w.results["count"] = total_count
            w.results["array"] = self.logical_array(w).copy()
