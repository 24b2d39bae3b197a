"""The operation vocabulary application kernels are written in.

An application kernel is a Python iterable that yields operations; the
processor model consumes them in order, charging time through the cache
hierarchy, bus and DRAM.  This replaces SimpleScalar's instruction-level
simulation (see DESIGN.md section 4): ``Compute`` ops stand for retired
ALU/branch/FPU instructions, memory ops carry the exact address
footprint the compiled kernel would touch, and the Active-Page ops
(``Activate``/``WaitPage``/...) are the memory-mapped interface of the
paper's Section 2.

Bulk memory ops are expanded to cache-line address sequences, so a
megabyte stream costs one cache lookup per distinct line touched rather
than per byte — identical hit/miss behaviour, tractable in Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Union

import numpy as np

# ----------------------------------------------------------------------
# Processor-local operations


def _require_elem_bytes(op) -> None:
    """An element of no bytes touches no line; the expansions would
    disagree on it, so a strided or indexed op refuses one."""
    if op.elem_bytes <= 0:
        raise ValueError(
            f"{type(op).__name__}: elem_bytes must be positive, got {op.elem_bytes}"
        )


@dataclass(frozen=True)
class Compute:
    """Retire ``ops`` compute instructions (ALU, branch, FP)."""

    ops: float


@dataclass(frozen=True)
class MemRead:
    """Sequential read of ``nbytes`` starting at ``addr``."""

    addr: int
    nbytes: int


@dataclass(frozen=True)
class MemWrite:
    """Sequential write of ``nbytes`` starting at ``addr``."""

    addr: int
    nbytes: int


@dataclass(frozen=True)
class StridedRead:
    """``count`` reads of ``elem_bytes`` each, ``stride_bytes`` apart."""

    addr: int
    count: int
    stride_bytes: int
    elem_bytes: int = 4

    __post_init__ = _require_elem_bytes


@dataclass(frozen=True)
class StridedWrite:
    """``count`` writes of ``elem_bytes`` each, ``stride_bytes`` apart."""

    addr: int
    count: int
    stride_bytes: int
    elem_bytes: int = 4

    __post_init__ = _require_elem_bytes


@dataclass(frozen=True)
class GatherRead:
    """Reads of ``elem_bytes`` at each address in ``addrs``."""

    addrs: Sequence[int]
    elem_bytes: int = 4

    __post_init__ = _require_elem_bytes


@dataclass(frozen=True)
class ScatterWrite:
    """Writes of ``elem_bytes`` at each address in ``addrs``."""

    addrs: Sequence[int]
    elem_bytes: int = 4

    __post_init__ = _require_elem_bytes


@dataclass(frozen=True)
class FlushRange:
    """Write back (and drop) cached lines covering ``[addr, addr+nbytes)``.

    Models the explicit flush the paper's coherence discussion (Section
    4) requires before dispatching a page whose data the processor has
    written through the cache: dirty lines are written back to memory
    (charged as memory time), clean copies are invalidated.
    """

    addr: int
    nbytes: int


# ----------------------------------------------------------------------
# Active-Page operations (handled by the memory system)


@dataclass(frozen=True)
class Activate:
    """Dispatch work to the Active Page holding ``page_no``.

    ``descriptor_words`` 32-bit parameter words are written through the
    bus (memory-mapped, uncached).  ``task`` describes the page-side
    execution (a :class:`repro.radram.subarray.PageTask`); it is opaque
    to the processor model.
    """

    page_no: int
    descriptor_words: int
    task: object


@dataclass(frozen=True)
class WaitPage:
    """Poll the page's synchronization variable until it completes.

    Time spent here is processor-memory *non-overlap* (Section 7.2).
    """

    page_no: int


@dataclass(frozen=True)
class ServicePending:
    """Service any pending inter-page interrupt requests now.

    Applications with inter-page communication insert these at natural
    polling points; the memory system also forces service when the
    processor stalls in :class:`WaitPage` on a blocked page.
    """


@dataclass(frozen=True)
class BeginPhase:
    """Open a named accounting phase (e.g. ``"activation"``)."""

    name: str


@dataclass(frozen=True)
class EndPhase:
    """Close the innermost accounting phase ``name``."""

    name: str


Op = Union[
    Compute,
    MemRead,
    MemWrite,
    StridedRead,
    StridedWrite,
    GatherRead,
    ScatterWrite,
    FlushRange,
    Activate,
    WaitPage,
    ServicePending,
    BeginPhase,
    EndPhase,
]

OpStream = Iterator[Op]

# ----------------------------------------------------------------------
# Line-address expansion

#: Gathers and scatters of at most this many addresses expand to a
#: list in plain Python, which the cache's dict regime walks without a
#: numpy round trip; longer ones go through numpy.  DESIGN.md section
#: 5b records the crossover measurement.
SHORT_GATHER = 64


def lines_for_block(addr: int, nbytes: int, line_bytes: int) -> range:
    """Cache lines touched by a sequential block access."""
    if nbytes <= 0:
        return range(0)
    return range(addr // line_bytes, (addr + nbytes - 1) // line_bytes + 1)


def _element_lines(starts: np.ndarray, elem_bytes: int, line_bytes: int) -> np.ndarray:
    """Lines of the ``elem_bytes``-wide elements at ``starts``, in access
    order, with consecutive duplicate lines collapsed (they would hit
    anyway, so LRU behaviour is exact)."""
    first = starts // line_bytes
    last = (starts + elem_bytes - 1) // line_bytes
    if np.array_equal(first, last):
        lines = first
    else:
        # Expand every [first, last] interval with one segmented arange.
        counts = last - first + 1
        lines = np.repeat(first - (np.cumsum(counts) - counts), counts)
        lines += np.arange(lines.shape[0], dtype=np.int64)
    keep = np.ones(len(lines), dtype=bool)
    keep[1:] = lines[1:] != lines[:-1]
    return lines[keep]


def lines_for_stride(
    addr: int, count: int, stride_bytes: int, elem_bytes: int, line_bytes: int
) -> np.ndarray:
    """Cache lines touched by a strided access, in access order."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    starts = addr + np.arange(count, dtype=np.int64) * stride_bytes
    return _element_lines(starts, elem_bytes, line_bytes)


def lines_for_gather(
    addrs: Sequence[int], elem_bytes: int, line_bytes: int
) -> Union[List[int], np.ndarray]:
    """Cache lines touched by a gather/scatter, in access order.

    Returns a list for at most :data:`SHORT_GATHER` addresses, else an
    int64 array; both hold the lines :func:`lines_for_stride` would
    give for the same element starts.
    """
    if len(addrs) > SHORT_GATHER:
        starts = np.asarray(addrs, dtype=np.int64)
        return _element_lines(starts, elem_bytes, line_bytes)
    if isinstance(addrs, np.ndarray):
        addrs = addrs.tolist()
    out: List[int] = []
    prev = None
    span = elem_bytes - 1
    for a in addrs:
        first = a // line_bytes
        last = (a + span) // line_bytes
        if first != prev:
            out.append(first)
        if last != first:
            out.extend(range(first + 1, last + 1))
        prev = last
    return out
