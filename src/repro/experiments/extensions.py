"""Extension studies beyond the paper's tables and figures.

Quantitative evaluations of directions the paper raises qualitatively
(Sections 2, 3, 8, 10).  Each ``*_study`` returns an
:class:`repro.experiments.results.ExperimentResult`; the benchmark
suite asserts each study's conclusion and ``report --extensions``
prints them all.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.apps.registry import get_app
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import measure_speedup, run_radram
from repro.radram.config import RADramConfig
from repro.sim.config import CPUConfig, MachineConfig


def comm_mechanism_study(
    pages: Sequence[float] = (16, 64, 128),
) -> ExperimentResult:
    """Processor-mediated vs hardware inter-page comm on dynamic-prog."""
    app = get_app("dynamic-prog")
    rows = []
    for n_pages in pages:
        base = measure_speedup(app, n_pages)
        hw = measure_speedup(
            app, n_pages, radram_config=RADramConfig.reference().with_hardware_comm()
        )
        rows.append(
            {
                "pages": n_pages,
                "processor_mediated": base.speedup,
                "hardware_comm": hw.speedup,
                "gain": hw.speedup / base.speedup,
            }
        )
    return ExperimentResult(
        experiment_id="ext-comm-mechanism",
        title="Inter-page communication mechanism (Section 10)",
        columns=["pages", "processor_mediated", "hardware_comm", "gain"],
        rows=rows,
        notes=["hardware comm removes dynamic programming's decline"],
    )


def reconfiguration_study(
    reconfig_us: Sequence[float] = (0.0, 1.0, 100.0, 1000.0),
    pages: int = 64,
) -> ExperimentResult:
    """ap_bind reconfiguration cost on an array kernel (Section 6/10)."""
    app = get_app("array-insert")
    rows = []
    for us in reconfig_us:
        cfg = replace(RADramConfig.reference(), reconfig_ns_per_page=us * 1e3)
        result = run_radram(app, pages, radram_config=cfg)
        bind_ns = cfg.reconfig_ns_per_page * pages
        rows.append(
            {
                "reconfig_us_per_page": us,
                "kernel_ms": result.total_ns / 1e6,
                "with_bind_ms": (result.total_ns + bind_ns) / 1e6,
            }
        )
    return ExperimentResult(
        experiment_id="ext-reconfiguration",
        title="Reconfiguration cost per ap_bind (Section 6/10)",
        columns=["reconfig_us_per_page", "kernel_ms", "with_bind_ms"],
        rows=rows,
        notes=["DPGA-class (<=1 us) binds are in the noise; FPGA-era dominates"],
    )


def technology_study_result(app_name: str = "array-insert") -> ExperimentResult:
    """The Section 8 technology catalog on a scalable application."""
    from repro.radram.technologies import technology_study

    rows = technology_study(get_app(app_name))
    return ExperimentResult(
        experiment_id="ext-technologies",
        title="Active-Page technologies (Section 8)",
        columns=[
            "technology",
            "max_pages",
            "effective_logic_mhz",
            "miss_latency_ns",
            "speedup",
        ],
        rows=rows,
        notes=["capacity, not logic speed, separates the technologies"],
    )


def reduction_study(
    page_counts: Sequence[int] = (16, 64, 256),
) -> ExperimentResult:
    """Hierarchical reduction vs processor folding (Section 10)."""
    from repro.radram.reduction import processor_fold_stream, tree_reduce_stream
    from repro.radram.system import RADramMemorySystem
    from repro.sim.machine import Machine
    from repro.sim.memory import PagedMemory

    def run(n_pages, strategy, hardware):
        cfg = RADramConfig.reference().with_page_bytes(4096)
        if hardware:
            cfg = cfg.with_hardware_comm()
        memsys = RADramMemorySystem(cfg)
        machine = Machine(memory=PagedMemory(page_bytes=4096), memsys=memsys)
        region = machine.memory.alloc_pages(n_pages)
        page_nos = list(machine.memory.pages_of(region))
        addrs = [region.base + i * 4096 for i in range(n_pages)]
        return machine.run(iter(strategy(page_nos, addrs))).total_ns

    rows = []
    for n_pages in page_counts:
        rows.append(
            {
                "pages": n_pages,
                "processor_fold_us": run(n_pages, processor_fold_stream, False) / 1e3,
                "tree_mediated_us": run(n_pages, tree_reduce_stream, False) / 1e3,
                "tree_hardware_us": run(n_pages, tree_reduce_stream, True) / 1e3,
            }
        )
    return ExperimentResult(
        experiment_id="ext-reduction",
        title="Hierarchical reduction (Section 10)",
        columns=["pages", "processor_fold_us", "tree_mediated_us", "tree_hardware_us"],
        rows=rows,
        notes=["combining trees need the hardware network to pay off"],
    )


#: The saturated database query the SMP study splits across CPUs.
SMP_PAGES = 256
SMP_CYCLES_PER_PAGE = 6.0 * 1023  # the database scan circuit


def query_makespan(n_cpus: int) -> float:
    """Makespan (ns) of the query with its activations split over
    ``n_cpus`` processors, folded with an atomic add and a barrier."""
    import numpy as np

    from repro.core.functions import PageTask
    from repro.radram.system import RADramMemorySystem
    from repro.sim import ops as O
    from repro.sim.memory import PagedMemory
    from repro.sim.smp import AtomicRMW, Barrier, SMPMachine

    memory = PagedMemory()
    memsys = RADramMemorySystem(RADramConfig.reference())
    smp = SMPMachine(n_cpus, memory=memory, memsys=memsys)
    counter = memory.alloc(64).base

    share = SMP_PAGES // n_cpus
    streams = []
    for cpu in range(n_cpus):
        ops = []
        lo, hi = cpu * share, (cpu + 1) * share
        for p in range(lo, hi):
            ops.append(O.Activate(p, 16, PageTask.simple(SMP_CYCLES_PER_PAGE)))
        for p in range(lo, hi):
            ops.append(O.WaitPage(p))
            ops.append(O.MemRead(0x4000_0000 + p * 512 * 1024, 4))
            ops.append(O.Compute(660))
        # Fold this CPU's partial count into the shared total with an
        # atomic fetch-and-add on an ordinary sync variable.
        ops.append(AtomicRMW(counter, "add", operand=cpu + 1))
        ops.append(Barrier(1))
        streams.append(ops)
    smp.run(streams)
    total = int(memory.read(counter, 4).view(np.uint32)[0])
    assert total == sum(range(1, n_cpus + 1))  # atomicity held
    return smp.makespan_ns


def smp_study(cpu_counts: Sequence[int] = (1, 2, 4)) -> ExperimentResult:
    """SMP scaling of a saturated database query (Section 2)."""
    rows = []
    base = None
    for n_cpus in cpu_counts:
        t = query_makespan(n_cpus)
        base = base or t
        rows.append(
            {"cpus": n_cpus, "makespan_ms": t / 1e6, "scaling": base / t}
        )
    return ExperimentResult(
        experiment_id="ext-smp",
        title="SMP scaling of a saturated query (Section 2)",
        columns=["cpus", "makespan_ms", "scaling"],
        rows=rows,
        notes=["the saturated ceiling is activation/post-processing throughput"],
    )


def partition_study() -> ExperimentResult:
    """The partitioning compiler vs Table 2 (Section 10)."""
    from repro.partition.estimator import PartitionEstimator
    from repro.partition.library import TABLE2_EXPECTATIONS
    from repro.partition.partitioner import exhaustive_partition

    rows = []
    for name, (factory, expected) in TABLE2_EXPECTATIONS.items():
        kernel = factory()
        est = PartitionEstimator(kernel)
        partition = exhaustive_partition(kernel, est)
        rows.append(
            {
                "kernel": name,
                "page_stages": ", ".join(sorted(partition.page_stages)),
                "matches_table2": partition.page_stages == expected,
                "estimated_speedup": partition.speedup_over_all_processor(est),
            }
        )
    return ExperimentResult(
        experiment_id="ext-partitioning",
        title="Automatic partitioning vs Table 2 (Section 10)",
        columns=["kernel", "page_stages", "matches_table2", "estimated_speedup"],
        rows=rows,
    )


def processor_speed_study() -> ExperimentResult:
    """What bounds the saturated region: CPU work or bus traffic."""
    rows = []
    for name, pages in (("database", 256), ("matrix-simplex", 32)):
        app = get_app(name)
        base = None
        for ghz in (0.5, 1.0, 2.0, 4.0):
            cfg = replace(
                MachineConfig.reference(), cpu=CPUConfig(clock_hz=ghz * 1e9)
            )
            result = run_radram(app, pages, machine_config=cfg)
            base = base or result.total_ns
            rows.append(
                {
                    "application": name,
                    "cpu_ghz": ghz,
                    "saturated_kernel_us": result.total_ns / 1e3,
                    "vs_half_ghz": base / result.total_ns,
                }
            )
    return ExperimentResult(
        experiment_id="ext-processor-speed",
        title="Saturation cause: CPU work vs bus traffic (Section 7.1)",
        columns=["application", "cpu_ghz", "saturated_kernel_us", "vs_half_ghz"],
        rows=rows,
        notes=[
            "database shrinks with clock (work-bound); matrix does not (traffic-bound)"
        ],
    )


ALL_EXTENSION_STUDIES = {
    "ext-comm-mechanism": comm_mechanism_study,
    "ext-reconfiguration": reconfiguration_study,
    "ext-technologies": technology_study_result,
    "ext-reduction": reduction_study,
    "ext-smp": smp_study,
    "ext-partitioning": partition_study,
    "ext-processor-speed": processor_speed_study,
}


def run_all_extensions() -> List[ExperimentResult]:
    """Run every extension study."""
    return [fn() for fn in ALL_EXTENSION_STUDIES.values()]
