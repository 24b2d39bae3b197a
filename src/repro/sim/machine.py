"""Machine assembly: processor + caches + bus + DRAM + memory system.

A :class:`Machine` wires the pieces of Table 1 together.  The memory
system is pluggable: :class:`ConventionalMemorySystem` (plain DRAM,
Active-Page ops rejected) or :class:`repro.radram.system.RADramSystem`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.sim.bus import Bus
from repro.sim.cache import Cache, build_hierarchy
from repro.sim.config import MachineConfig
from repro.sim.dram import DRAM
from repro.sim.memory import PagedMemory
from repro.sim import ops as O
from repro.sim.processor import MemorySystemBase, Processor
from repro.sim.stats import MachineStats


class ConventionalMemorySystem(MemorySystemBase):
    """Plain DRAM behind the caches — the paper's baseline system."""


class Machine:
    """A complete simulated machine.

    Parameters
    ----------
    config:
        Timing parameters (defaults to the Table 1 reference machine).
    memory:
        Functional backing store shared with the application; one is
        created on demand if not supplied.
    memsys:
        The memory system.  ``None`` selects the conventional system.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        memory: Optional[PagedMemory] = None,
        memsys: Optional[MemorySystemBase] = None,
    ) -> None:
        self.config = config or MachineConfig.reference()
        self.memory = memory if memory is not None else PagedMemory()
        self.bus = Bus(self.config.bus)
        self.dram = DRAM(self.config.dram, self.bus)
        self.l1d, self.l1i, self.l2 = build_hierarchy(
            self.config.l1d, self.config.l2, self.dram, l1i_cfg=self.config.l1i
        )
        self.memsys = memsys if memsys is not None else ConventionalMemorySystem()
        attach = getattr(self.memsys, "attach", None)
        if attach is not None:
            attach(self)
        self.processor = Processor(self.config, self.l1d, self.memsys)

    def run(self, stream: Iterable[O.Op]) -> MachineStats:
        """Run one operation stream to completion."""
        return self.processor.run(stream)

    def reset_timing(self) -> None:
        """Clear caches and statistics but keep memory contents."""
        self.l1d.invalidate_all()
        self.l2.invalidate_all()
        if self.l1i is not None:
            self.l1i.invalidate_all()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        if self.l1i is not None:
            self.l1i.reset_stats()
        self.bus.reset()
        self.dram.reset()
        self.processor.now = 0.0
        self.processor.stats = MachineStats()
        reset = getattr(self.memsys, "reset", None)
        if reset is not None:
            reset()
