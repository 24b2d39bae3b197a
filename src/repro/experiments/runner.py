"""Shared experiment machinery: run one application on one system.

Large conventional runs use a *measure-and-extrapolate* strategy: the
baseline kernels are streaming computations whose cost is linear in
pages once the working set exceeds the caches, so the harness simulates
``cap_pages`` pages and scales (validated by
``tests/experiments/test_runner.py::test_extrapolation_matches_direct``).
RADram runs are always simulated directly — the partitioned kernels'
processor cost is small per page, and overlap effects (the whole point)
are not linear.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.apps.base import Application, Workload
from repro.radram.config import RADramConfig
from repro.radram.system import RADramMemorySystem
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memory import DEFAULT_PAGE_BYTES, PagedMemory
from repro.sim.stats import MachineStats

#: Default conventional-simulation cap (pages) before extrapolating.
DEFAULT_CAP_PAGES = 8.0

#: What :attr:`RunResult.machine_counts` holds, in order.
MACHINE_COUNTS = (
    "l1d.hits", "l1d.misses", "l1d.writebacks",
    "l2.hits", "l2.misses", "l2.writebacks",
    "dram.reads", "dram.writes",
    "bus.bytes", "bus.cycles", "bus.transfers",
)


def machine_counts(machine: Machine) -> Tuple[int, ...]:
    """A machine's counts in :data:`MACHINE_COUNTS` order."""
    l1, l2, bus = machine.l1d.stats, machine.l2.stats, machine.bus
    return (
        l1.hits, l1.misses, l1.writebacks,
        l2.hits, l2.misses, l2.writebacks,
        machine.dram.reads, machine.dram.writes,
        bus.bytes_transferred, bus.cycles, bus.transfers,
    )


@dataclass
class RunResult:
    """One simulated (or extrapolated) kernel execution."""

    app_name: str
    system: str  # "conventional" | "radram"
    n_pages: float
    total_ns: float
    stats: MachineStats
    workload: Workload
    scaled_from_pages: Optional[float] = None  # set when extrapolated
    mean_page_busy_ns: float = 0.0  # RADram only: measured T_C
    #: RADram only: per-subarray busy times in page order — the
    #: data-dependent T_C vector the Figure 7 model accepts directly
    #: (the fuzzer's model oracle uses it when one activation maps to
    #: one page).
    page_busy_ns: Tuple[float, ...] = ()
    #: fault/repair counters (empty unless fault injection was on).
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: the simulated machine's cache, DRAM and bus counts at the end of
    #: the run, in :data:`MACHINE_COUNTS` order (a plain tuple: results
    #: are kept in bulk, so they hold no machine or registry).
    machine_counts: Tuple[int, ...] = ()

    @property
    def stall_fraction(self) -> float:
        return self.stats.wait_ns / self.total_ns if self.total_ns else 0.0


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of a Figure 3 / Figure 4 style sweep."""

    app_name: str
    n_pages: float
    conventional_ns: float
    radram_ns: float
    stall_fraction: float

    @property
    def speedup(self) -> float:
        return self.conventional_ns / self.radram_ns

    @classmethod
    def from_values(
        cls, app_name: str, n_pages: float, values: "dict"
    ) -> "SpeedupPoint":
        """Rebuild a point from a sweep-harness value mapping."""
        return cls(
            app_name=app_name,
            n_pages=n_pages,
            conventional_ns=values["conventional_ns"],
            radram_ns=values["radram_ns"],
            stall_fraction=values["stall_fraction"],
        )


def run_conventional(
    app: Application,
    n_pages: float,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    machine_config: Optional[MachineConfig] = None,
    functional: bool = False,
    seed: int = 0,
    cap_pages: Optional[float] = DEFAULT_CAP_PAGES,
    params: Optional[Mapping[str, float]] = None,
) -> RunResult:
    """Run the baseline version of ``app`` at ``n_pages``."""
    simulate_pages = n_pages
    scaled_from = None
    if (
        cap_pages is not None
        and app.linear_conventional
        and not functional
        and n_pages > cap_pages
    ):
        simulate_pages = cap_pages
        scaled_from = cap_pages

    machine = Machine(config=machine_config, memory=PagedMemory(page_bytes=page_bytes))
    if functional:
        w = getattr(app, "conventional_workload", app.workload)(
            simulate_pages,
            page_bytes,
            functional=True,
            memory=machine.memory,
            seed=seed,
            params=params,
        )
    else:
        w = getattr(app, "conventional_workload", app.workload)(
            simulate_pages, page_bytes, functional=False, seed=seed, params=params
        )
    stats = machine.run(app.conventional_stream(w))
    total = stats.total_ns
    if scaled_from is not None:
        total *= n_pages / simulate_pages
    return RunResult(
        app_name=app.name,
        system="conventional",
        n_pages=n_pages,
        total_ns=total,
        stats=stats,
        workload=w,
        scaled_from_pages=scaled_from,
        machine_counts=machine_counts(machine),
    )


def run_radram(
    app: Application,
    n_pages: float,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    machine_config: Optional[MachineConfig] = None,
    radram_config: Optional[RADramConfig] = None,
    functional: bool = False,
    seed: int = 0,
    params: Optional[Mapping[str, float]] = None,
) -> RunResult:
    """Run the Active-Page version of ``app`` at ``n_pages``."""
    rconfig = radram_config or RADramConfig.reference()
    if rconfig.page_bytes != page_bytes:
        rconfig = rconfig.with_page_bytes(page_bytes)
    memsys = RADramMemorySystem(rconfig)
    machine = Machine(
        config=machine_config,
        memory=PagedMemory(page_bytes=page_bytes),
        memsys=memsys,
    )
    if functional:
        w = app.workload(
            n_pages,
            page_bytes,
            functional=True,
            memory=machine.memory,
            seed=seed,
            params=params,
        )
    else:
        w = app.workload(n_pages, page_bytes, functional=False, seed=seed, params=params)
    # Applications may adapt their partitioning to the technology
    # (e.g. LCS uses in-page references when hardware comm exists).
    w.data["radram_config"] = rconfig
    stats = machine.run(app.radram_stream(w))
    activations = memsys.total_activations
    per_page = tuple(
        memsys.page_busy_ns(p) for p in sorted(memsys.subarrays)
    )
    busy = sum(per_page)
    return RunResult(
        app_name=app.name,
        system="radram",
        n_pages=n_pages,
        total_ns=stats.total_ns,
        stats=stats,
        workload=w,
        mean_page_busy_ns=busy / activations if activations else 0.0,
        page_busy_ns=per_page,
        fault_counters=memsys.fault_counters(),
        machine_counts=machine_counts(machine),
    )


def measure_speedup(
    app: Application,
    n_pages: float,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    machine_config: Optional[MachineConfig] = None,
    radram_config: Optional[RADramConfig] = None,
    seed: int = 0,
    cap_pages: Optional[float] = DEFAULT_CAP_PAGES,
    params: Optional[Mapping[str, float]] = None,
) -> SpeedupPoint:
    """Conventional vs RADram at one problem size (timing mode)."""
    conv = run_conventional(
        app,
        n_pages,
        page_bytes=page_bytes,
        machine_config=machine_config,
        seed=seed,
        cap_pages=cap_pages,
        params=params,
    )
    rad = run_radram(
        app,
        n_pages,
        page_bytes=page_bytes,
        machine_config=machine_config,
        radram_config=radram_config,
        seed=seed,
        params=params,
    )
    return SpeedupPoint(
        app_name=app.name,
        n_pages=n_pages,
        conventional_ns=conv.total_ns,
        radram_ns=rad.total_ns,
        stall_fraction=rad.stall_fraction,
    )
