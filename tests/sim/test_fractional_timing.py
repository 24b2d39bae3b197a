"""Fused vs per-op execution with timings that are not whole numbers.

With the reference timings every latency is integer-valued, so any
summation order gives the same float and a fold-order bug stays hidden.
Here the L1/L2 hit times, the DRAM miss latency, the bus cycle and the
CPU clock are all fractional, so the fused executor's per-op folds,
its clock and the bus's occupancy must follow the per-op run's
left-to-right arithmetic exactly to compare equal.
"""

import contextlib
import random

import pytest

from repro.core.functions import PageTask
from repro.radram.config import RADramConfig
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.cache import Cache
from repro.sim.config import (
    BusConfig,
    CacheConfig,
    CPUConfig,
    DRAMConfig,
    KB,
    MachineConfig,
)
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory
from repro.sim.processor_reference import per_op_reference

PAGE = 4 * KB
N_PAGES = 4
BASE = 0x100000  # PagedMemory's first allocation base

CONFIG = MachineConfig(
    cpu=CPUConfig(clock_hz=1.1e9),
    l1d=CacheConfig(size_bytes=4 * KB, assoc=2, hit_ns=1.3),
    l2=CacheConfig(size_bytes=16 * KB, assoc=4, hit_ns=6.7),
    bus=BusConfig(ns_per_transfer=10.1),
    dram=DRAMConfig(miss_latency_ns=50.3),
)


def stream(radram: bool):
    """Tiny gathers and scatters, 1-8-line blocks, one op wider than
    ``Cache._SMALL_BATCH``, flushes and phases; RADram adds
    activations and waits between the straight-line stretches.

    Every memory op runs in a phase of its own, so ``phase_ns`` holds
    its total as folded: one ulp of fold-order drift shows there, while
    the run-wide accumulators would round it away.
    """
    rng = random.Random(7)
    span = N_PAGES * PAGE - 64
    ops = []

    def own_phase(op):
        name = f"op{len(ops)}"
        ops.extend([O.BeginPhase(name), op, O.EndPhase(name)])

    for rnd in range(6):
        ops.append(O.BeginPhase("work"))
        for _ in range(40):
            addr = BASE + rng.randrange(span)
            kind = rng.randrange(5)
            if kind == 0:
                addrs = [BASE + rng.randrange(span) for _ in range(rng.randint(1, 16))]
                cls = O.GatherRead if rng.random() < 0.5 else O.ScatterWrite
                own_phase(cls(addrs, elem_bytes=rng.choice([2, 4, 8])))
            elif kind == 1:
                cls = O.MemRead if rng.random() < 0.5 else O.MemWrite
                own_phase(cls(addr - addr % 32, 32 * rng.randint(1, 8)))
            elif kind == 2:
                ops.append(O.Compute(rng.randint(1, 50)))
            elif kind == 3:
                own_phase(O.StridedRead(addr, rng.randint(1, 12), 72, 4))
            else:
                addrs = [BASE + rng.randrange(span) for _ in range(O.SHORT_GATHER + 8)]
                own_phase(O.GatherRead(addrs, elem_bytes=4))
        ops.append(O.EndPhase("work"))
        wide = 32 * (Cache._SMALL_BATCH + 20)
        own_phase(O.MemWrite(BASE + (rnd % 2) * wide, wide))
        ops.append(O.FlushRange(BASE + rng.randrange(span // 2), 2 * KB))
        if radram:
            for page in range(N_PAGES):
                ops.append(O.Activate(page, 2, PageTask.simple(333.3)))
            own_phase(O.MemRead(BASE + rng.randrange(span), 64))
            for page in range(N_PAGES):
                ops.append(O.WaitPage(page))
    return ops


def machine(radram: bool) -> Machine:
    memsys = None
    if radram:
        memsys = RADramMemorySystem(RADramConfig.reference().with_page_bytes(PAGE))
    m = Machine(config=CONFIG, memory=PagedMemory(page_bytes=PAGE), memsys=memsys)
    m.memory.alloc_pages(N_PAGES, name="data")
    return m


def snapshot(radram: bool, reference: bool):
    m = machine(radram)
    with per_op_reference() if reference else contextlib.nullcontext():
        stats = m.run(iter(stream(radram)))
    return {
        "stats": stats.as_dict(),
        "phase_ns": dict(stats.phase_ns),
        "now": m.processor.now,
        "busy_ns": m.bus.busy_ns,
        "bytes": m.bus.bytes_transferred,
    }


@pytest.mark.parametrize("radram", [False, True], ids=["conventional", "radram"])
def test_fused_matches_per_op_exactly(radram):
    fused = snapshot(radram, reference=False)
    per_op = snapshot(radram, reference=True)
    # The stream must exercise what it claims to: fractional sums and
    # enough memory traffic to reach the wide-batch paths.
    assert fused["now"] != int(fused["now"])
    assert fused["stats"]["mem_ns"] > 0
    assert fused == per_op
