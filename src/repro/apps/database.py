"""Unindexed address-database query (Section 5.1).

Records are fixed 512-byte structures (:data:`repro.apps.data.RECORD_LAYOUT`).
The benchmark counts exact matches on the last-name field:

* **conventional** — the processor walks every record, touching the
  32-byte field at a 512-byte stride (one cache line per record, all
  misses at scale: linear in the number of records).
* **Active Pages** — every page scans its own block of records with a
  custom field-comparison circuit (6 logic cycles per record) and
  leaves a match count in its sync area; the processor initiates the
  query and summarizes per-page counts.  O(1) in record count once
  pages are working in parallel, "however the constant bounding it is
  quite large".
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
    PLANTED_LASTNAME,
    RECORD_BYTES,
    RECORD_LAYOUT,
    address_book,
)
from repro.core.functions import PageTask
from repro.core.page import SYNC_BYTES
from repro.sim import ops as O
from repro.sim.memory import PagedMemory

#: Logic cycles to fetch and compare one record's search field.
CYCLES_PER_RECORD = 6.0
#: Conventional instructions per record (address calc, loads, compares).
CONV_OPS_PER_RECORD = 12

def records_per_page(page_bytes: int) -> int:
    return (page_bytes - SYNC_BYTES) // RECORD_BYTES


class DatabaseApp(Application):
    """Count exact matches on a record field over an unindexed book.

    The paper's custom circuits "search for exact matches on any of
    the string fields": the searched field is a constructor parameter
    (the measured benchmark uses the last name), and the activation
    descriptor carries the field offset/length, so one circuit serves
    every field.
    """

    name = "database"
    partitioning = Partitioning.MEMORY_CENTRIC
    processor_computation = "Initiates queries; summarizes results"
    active_page_computation = "Searches unindexed data"
    descriptor_words = 16
    paper_table4 = Table4Row(1.263, 0.798, 60.43, 76, 0.999)

    def __init__(self, search_field: str = "lastname") -> None:
        if search_field not in RECORD_LAYOUT:
            raise ValueError(
                f"unknown field {search_field!r}; "
                f"records have {sorted(RECORD_LAYOUT)}"
            )
        self.search_field = search_field
        self._field_off, self._field_len = RECORD_LAYOUT[search_field]

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
        rpp = records_per_page(page_bytes)
        if rpp < 1:
            raise ValueError(
                f"page of {page_bytes} bytes cannot hold a {RECORD_BYTES}-byte record"
            )
        # Axes: ``records`` overrides the page-derived record count
        # (down to a single-record database); ``selectivity`` plants an
        # exact fraction of query-matching records.
        records_override = int(self._param(params, "records", 0))
        selectivity = (
            None if params is None or "selectivity" not in params
            else float(params["selectivity"])
        )
        if records_override > 0:
            n_records = records_override
        else:
            n_records = max(4, int(round(n_pages * rpp)))
        w.data["rpp"] = rpp
        w.data["n_records"] = n_records
        w.data["params"] = dict(params) if params else {}
        if functional:
            if memory is None:
                memory = PagedMemory(page_bytes=page_bytes)
                w.memory = memory
            w.region = memory.alloc_pages(w.whole_pages, name=self.name)
            records = address_book(n_records, seed=seed, selectivity=selectivity)
            if selectivity is not None:
                # Query the planted name: the match count is exactly
                # round(selectivity * n_records), monotone in the axis.
                query = np.zeros(self._field_len, dtype=np.uint8)
                name = PLANTED_LASTNAME[: self._field_len]
                query[: len(name)] = np.frombuffer(name, dtype=np.uint8)
            else:
                # Query: the last name of a mid-database record (so the
                # count is at least 1, usually several — names repeat).
                query = records[n_records // 2, self._field_off : self._field_off + self._field_len].copy()
            w.data["records"] = records
            w.data["query"] = query
            start = 0
            for j in range(w.whole_pages):
                count = min(rpp, n_records - start)
                if count <= 0:
                    break
                page = w.region.buffer[
                    j * page_bytes : j * page_bytes + count * RECORD_BYTES
                ]
                page[:] = records[start : start + count].reshape(-1)
                start += count
        else:
            w.data["query"] = None
        return w

    # ------------------------------------------------------------------
    def _page_record_counts(self, w: Workload) -> List[int]:
        rpp, remaining = w.data["rpp"], w.data["n_records"]
        counts = []
        while remaining > 0:
            counts.append(min(rpp, remaining))
            remaining -= rpp
        return counts

    def _count_matches(self, records: np.ndarray, query: np.ndarray) -> int:
        fields = records[:, self._field_off : self._field_off + self._field_len]
        return int(np.count_nonzero(np.all(fields == query, axis=1)))

    # ------------------------------------------------------------------
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        n_records = w.data["n_records"]
        if w.functional:
            w.results["count"] = self._count_matches(w.data["records"], w.data["query"])
        chunk = 1 << 13
        done = 0
        while done < n_records:
            n = min(chunk, n_records - done)
            yield O.StridedRead(
                addr=w.base + done * RECORD_BYTES + self._field_off,
                count=n,
                stride_bytes=RECORD_BYTES,
                elem_bytes=self._field_len,
            )
            yield O.Compute(CONV_OPS_PER_RECORD * n)
            done += n
        yield O.Compute(60)  # query setup and result summary

    # ------------------------------------------------------------------
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        counts = self._page_record_counts(w)
        page_matches = []
        if w.functional:
            records, query = w.data["records"], w.data["query"]
            start = 0
            for count in counts:
                page_matches.append(
                    self._count_matches(records[start : start + count], query)
                )
                start += count

        for j, count in enumerate(counts):
            task = PageTask.simple(count * CYCLES_PER_RECORD)
            yield from self.activate_page(w.page_base(j) // w.page_bytes, task)

        total = 0
        for j in range(len(counts)):
            yield BEGIN_POST
            yield O.WaitPage(w.page_base(j) // w.page_bytes)
            sync_addr = w.page_base(j) + w.page_bytes - SYNC_BYTES
            yield O.MemRead(sync_addr, 4)
            yield O.Compute(660)  # fold count, record block summary
            yield END_POST
            if w.functional:
                total += page_matches[j]
        if w.functional:
            w.results["count"] = total
