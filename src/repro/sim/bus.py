"""The processor-memory bus.

The paper assumes "a memory bus capable of transferring 32 bits of data
between memory and cache every 10 ns".  The bus accounts occupancy so
experiments can observe how much traffic each system generates — a key
Active Pages claim is that only *useful* data crosses the bus.
"""

from __future__ import annotations

from repro.sim.config import BusConfig
from repro.trace import events as _trace


class Bus:
    """Occupancy-accounting wrapper over :class:`BusConfig` timing.

    Occupancy is a whole count of bus ``cycles``, so ``busy_ns`` does
    not depend on how transfers were grouped into calls."""

    def __init__(self, config: BusConfig) -> None:
        self.config = config
        self.bytes_transferred: int = 0
        self.cycles: int = 0
        self.transfers: int = 0

    @property
    def busy_ns(self) -> float:
        """Time the bus has been occupied."""
        return self.cycles * self.config.ns_per_transfer

    def _trace_counters(self, tr) -> None:
        ts = tr.now
        tr.counter("bus", "bytes", ts, self.bytes_transferred)
        tr.counter("bus", "busy_ns", ts, self.busy_ns)

    def transfer(self, nbytes: int) -> float:
        """Account a transfer of ``nbytes``; returns its duration in ns."""
        if nbytes <= 0:
            return 0.0
        cycles = self.config.transfer_cycles(nbytes)
        self.bytes_transferred += nbytes
        self.cycles += cycles
        self.transfers += 1
        tr = _trace.TRACER
        if tr is not None:
            self._trace_counters(tr)
        return cycles * self.config.ns_per_transfer

    def transfer_batch(self, count: int, nbytes_each: int) -> float:
        """Account ``count`` equal transfers; returns the per-transfer ns.

        Equivalent to calling :meth:`transfer` ``count`` times, bit for
        bit.
        """
        if count <= 0 or nbytes_each <= 0:
            return 0.0
        cycles = self.config.transfer_cycles(nbytes_each)
        self.bytes_transferred += nbytes_each * count
        self.cycles += cycles * count
        self.transfers += count
        tr = _trace.TRACER
        if tr is not None:
            self._trace_counters(tr)
        return cycles * self.config.ns_per_transfer

    def reset(self) -> None:
        """Clear accumulated statistics."""
        self.bytes_transferred = 0
        self.cycles = 0
        self.transfers = 0
