"""Application framework: the contract between workloads and harness.

An :class:`Application` produces, for a problem size measured in Active
Pages (512 KB superpages, fractional sizes allowed for the sub-page
region):

* a :class:`Workload` — synthesized input data (optionally backed by
  real bytes in a :class:`repro.sim.memory.PagedMemory`),
* a **conventional operation stream** for the baseline system, and
* a **RADram operation stream** for the Active-Page system.

Streams perform the *functional* computation inline (mutating the
workload's arrays) when the workload was built with ``functional=True``;
with ``functional=False`` they emit identical timing operations against
synthesized addresses without touching data, which is how the large
problem-size sweeps stay tractable.

Phase conventions (consumed by the Table 4 harness):

* each activation is wrapped in phase ``"activation"`` — its mean is
  the paper's T_A;
* each per-page post-processing step is wrapped in phase ``"post"`` —
  its wait-excluded mean is T_P (stall time is NO(i), not T_P).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.sim import ops as O
from repro.sim.memory import PagedMemory, Region

#: Virtual base address used for timing-only (unallocated) workloads.
FAKE_BASE = 0x1000_0000

PHASE_ACTIVATION = "activation"
PHASE_POST = "post"

#: Shared phase markers.  The ops are frozen, so every stream can yield
#: these instances instead of building a marker per activation.
BEGIN_ACTIVATION = O.BeginPhase(PHASE_ACTIVATION)
END_ACTIVATION = O.EndPhase(PHASE_ACTIVATION)
BEGIN_POST = O.BeginPhase(PHASE_POST)
END_POST = O.EndPhase(PHASE_POST)


class Partitioning(enum.Enum):
    """Table 2's two partitioning classes."""

    MEMORY_CENTRIC = "memory-centric"
    PROCESSOR_CENTRIC = "processor-centric"


@dataclass(frozen=True)
class Table4Row:
    """The paper's Table 4 reference values for one application."""

    t_a_us: float
    t_p_us: float
    t_c_us: float  # per-page computation time, microseconds
    pages_for_overlap: int
    speedup_correlation: float


@dataclass
class Workload:
    """One synthesized problem instance.

    ``n_pages`` may be fractional (sub-page problems).  ``region`` is
    None for timing-only workloads; ``data`` holds app-specific arrays
    and parameters; ``results`` collects functional outputs for
    equivalence checks.
    """

    n_pages: float
    page_bytes: int
    functional: bool
    memory: Optional[PagedMemory] = None
    region: Optional[Region] = None
    data: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)

    @property
    def whole_pages(self) -> int:
        """Number of Active Pages the problem occupies (at least 1)."""
        return max(1, int(np.ceil(self.n_pages)))

    @property
    def base(self) -> int:
        """Base virtual address of the workload's data."""
        if self.region is not None:
            return self.region.base
        return FAKE_BASE

    def page_base(self, index: int) -> int:
        """Base virtual address of the ``index``-th page."""
        return self.base + index * self.page_bytes


class Application(abc.ABC):
    """One evaluation application in both system versions."""

    #: registry key, e.g. ``"array-insert"``.
    name: str = ""
    #: Table 2 partitioning class.
    partitioning: Partitioning = Partitioning.MEMORY_CENTRIC
    #: Table 2 prose: what the processor does.
    processor_computation: str = ""
    #: Table 2 prose: what the Active Pages do.
    active_page_computation: str = ""
    #: 32-bit words written per activation (drives T_A).
    descriptor_words: int = 8
    #: paper's Table 4 row, when the application appears there.
    paper_table4: Optional[Table4Row] = None
    #: whether conventional cost is linear in pages (enables the
    #: harness's measure-small/extrapolate-large strategy).
    linear_conventional: bool = True

    # ------------------------------------------------------------------
    # Workload construction

    @abc.abstractmethod
    def workload(
        self,
        n_pages: float,
        page_bytes: int,
        functional: bool = True,
        memory: Optional[PagedMemory] = None,
        seed: int = 0,
        params: Optional[Mapping[str, float]] = None,
    ) -> Workload:
        """Synthesize a problem of ``n_pages`` Active Pages.

        ``params`` carries the values of the application's workload
        axes (see :mod:`repro.workloads`); ``None`` and an empty
        mapping both mean "the historical fixed dataset".  Unknown
        keys are ignored, so one parameter dictionary can drive an
        app family.
        """

    @staticmethod
    def _param(
        params: Optional[Mapping[str, float]], name: str, default: float
    ) -> float:
        """One axis value with its legacy default."""
        if params is None:
            return default
        return float(params.get(name, default))

    # ------------------------------------------------------------------
    # Operation streams

    @abc.abstractmethod
    def conventional_stream(self, w: Workload) -> Iterator[O.Op]:
        """The baseline kernel (all work on the processor)."""

    @abc.abstractmethod
    def radram_stream(self, w: Workload) -> Iterator[O.Op]:
        """The partitioned kernel (Active Pages + processor)."""

    # ------------------------------------------------------------------
    # Functional verification

    def check_equivalence(self, conv: Workload, radram: Workload) -> None:
        """Raise AssertionError unless both versions computed the same.

        Default compares every key the two workloads' ``results`` have
        in common; applications may override for richer checks.
        """
        shared = set(conv.results) & set(radram.results)
        if not shared:
            raise AssertionError(
                f"{self.name}: no overlapping results to compare"
            )
        for key in sorted(shared):
            a, b = conv.results[key], radram.results[key]
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    raise AssertionError(
                        f"{self.name}: result {key!r} differs between versions"
                    )
            elif a != b:
                raise AssertionError(
                    f"{self.name}: result {key!r} differs: {a!r} != {b!r}"
                )

    # ------------------------------------------------------------------
    # Shared stream helpers

    def activate_page(
        self, page_no: int, task, descriptor_words: Optional[int] = None
    ) -> Tuple[O.Op, O.Op, O.Op]:
        """One activation wrapped in the T_A accounting phase, as the
        three ops a stream yields (``yield from``)."""
        words = self.descriptor_words if descriptor_words is None else descriptor_words
        return (BEGIN_ACTIVATION, O.Activate(page_no, words, task), END_ACTIVATION)
