"""Unit tests for bus occupancy and DRAM timing."""

import pytest

from repro.sim.bus import Bus
from repro.sim.config import BusConfig, DRAMConfig
from repro.sim.dram import DRAM


class TestBus:
    def test_accumulates_bytes_and_busy_time(self):
        bus = Bus(BusConfig())
        bus.transfer(32)
        bus.transfer(4)
        assert bus.bytes_transferred == 36
        assert bus.busy_ns == 80.0 + 10.0
        assert bus.transfers == 2

    def test_zero_transfer_is_free_and_uncounted(self):
        bus = Bus(BusConfig())
        assert bus.transfer(0) == 0.0
        assert bus.transfers == 0

    def test_reset_clears_counters(self):
        bus = Bus(BusConfig())
        bus.transfer(100)
        bus.reset()
        assert bus.bytes_transferred == 0
        assert bus.busy_ns == 0.0

    def test_batch_matches_single_transfers_bit_for_bit(self):
        # A fractional cycle: summing 100 x 80.8 drifts by ulps, so
        # occupancy must come from the whole-cycle count.
        cfg = BusConfig(ns_per_transfer=10.1)
        one, batch = Bus(cfg), Bus(cfg)
        durations = {one.transfer(32) for _ in range(100)}
        assert durations == {batch.transfer_batch(100, 32)}
        assert one.busy_ns == batch.busy_ns == 800 * 10.1
        assert one.cycles == batch.cycles == 800


class TestDRAM:
    def test_read_line_pays_latency_plus_bus(self):
        dram = DRAM(DRAMConfig(miss_latency_ns=50), Bus(BusConfig()))
        assert dram.read_line(32) == pytest.approx(50.0 + 80.0)
        assert dram.reads == 1

    def test_writeback_is_posted(self):
        dram = DRAM(DRAMConfig(miss_latency_ns=50), Bus(BusConfig()))
        assert dram.write_line(32) == pytest.approx(80.0)

    def test_uncached_write_pays_full_latency(self):
        dram = DRAM(DRAMConfig(miss_latency_ns=50), Bus(BusConfig()))
        assert dram.uncached_write(4) == pytest.approx(50.0 + 10.0)

    def test_zero_miss_latency_supported(self):
        # Figure 8 sweeps the miss penalty down to 0 ns.
        dram = DRAM(DRAMConfig(miss_latency_ns=0), Bus(BusConfig()))
        assert dram.read_line(32) == pytest.approx(80.0)

    def test_reset_clears_counters(self):
        dram = DRAM(DRAMConfig(), Bus(BusConfig()))
        dram.read_line(32)
        dram.reset()
        assert dram.reads == 0 and dram.writes == 0
