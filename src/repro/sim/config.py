"""Machine configuration — the paper's Table 1 parameters.

All timing in the simulator is expressed in nanoseconds.  The reference
machine runs a 1 GHz processor (1 cycle = 1 ns), 64 KB split L1 caches,
a 1 MB L2, a 50 ns cache-miss penalty, and a memory bus that moves
32 bits every 10 ns.

Table 1 of the paper:

==============  =========  ============
Parameter       Reference  Variation
==============  =========  ============
CPU Clock       1 GHz      --
L1 I-Cache      64K        --
L1 D-Cache      64K        32K-256K
L2 Cache        1M         256K-4M
Reconf Logic    100 MHz    10-500 MHz
Cache Miss      50 ns      0-600 ns
==============  =========  ============
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.errors import ConfigError

KB = 1024
MB = 1024 * KB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CPUConfig:
    """In-order processor timing parameters.

    ``clock_hz`` is the core clock; compute operations retire at
    ``issue_width`` operations per cycle.
    """

    clock_hz: float = 1e9
    issue_width: int = 1

    def __post_init__(self) -> None:
        _require(self.clock_hz > 0, "CPU clock must be positive")
        _require(self.issue_width >= 1, "issue width must be >= 1")

    @property
    def cycle_ns(self) -> float:
        """Duration of one CPU cycle in nanoseconds."""
        return 1e9 / self.clock_hz

    def compute_ns(self, ops: float) -> float:
        """Time to retire ``ops`` compute operations."""
        return (ops / self.issue_width) * self.cycle_ns


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 32
    hit_ns: float = 1.0

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.assoc >= 1, "associativity must be >= 1")
        _require(self.line_bytes > 0, "line size must be positive")
        _require(
            self.size_bytes % (self.assoc * self.line_bytes) == 0,
            "cache size must be a multiple of assoc * line size",
        )
        _require(self.hit_ns >= 0, "hit latency cannot be negative")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class BusConfig:
    """The processor-memory bus: 32 bits of data every 10 ns."""

    bytes_per_transfer: int = 4
    ns_per_transfer: float = 10.0

    def __post_init__(self) -> None:
        _require(self.bytes_per_transfer > 0, "bus width must be positive")
        _require(self.ns_per_transfer > 0, "bus cycle must be positive")

    def transfer_cycles(self, nbytes: int) -> int:
        """Whole bus cycles needed to move ``nbytes``."""
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.bytes_per_transfer)

    def transfer_ns(self, nbytes: int) -> float:
        """Time to move ``nbytes`` across the bus (whole transfers)."""
        if nbytes <= 0:
            return 0.0
        return self.transfer_cycles(nbytes) * self.ns_per_transfer


@dataclass(frozen=True)
class DRAMConfig:
    """Conventional DRAM access timing.

    ``miss_latency_ns`` is the paper's "cache miss" parameter: the
    latency from the L2 miss to the first data word returning.
    """

    miss_latency_ns: float = 50.0

    def __post_init__(self) -> None:
        _require(self.miss_latency_ns >= 0, "miss latency cannot be negative")


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine description (paper Table 1 reference values)."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * KB, assoc=2, hit_ns=1.0)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * KB, assoc=2, hit_ns=1.0)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1 * MB, assoc=4, hit_ns=6.0)
    )
    bus: BusConfig = field(default_factory=BusConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    @classmethod
    def reference(cls) -> "MachineConfig":
        """The reference configuration of Table 1."""
        return cls()

    def with_l1d_size(self, size_bytes: int) -> "MachineConfig":
        """Vary the L1 D-cache size (Figure 5 sweep)."""
        return replace(self, l1d=replace(self.l1d, size_bytes=size_bytes))

    def with_l2_size(self, size_bytes: int) -> "MachineConfig":
        """Vary the L2 cache size (Section 7.3 sweep)."""
        return replace(self, l2=replace(self.l2, size_bytes=size_bytes))

    def with_miss_latency(self, latency_ns: float) -> "MachineConfig":
        """Vary the cache-miss penalty (Figure 8 sweep)."""
        return replace(self, dram=replace(self.dram, miss_latency_ns=latency_ns))
