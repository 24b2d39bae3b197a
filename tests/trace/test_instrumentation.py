"""End-to-end tests: a traced machine run emits the expected events.

These exercise the instrumentation hooks threaded through the simulator
core (engine, processor, caches, DRAM, bus) and the RADram layer, and
prove the trace-native Gantt path is equivalent to the legacy
memory-system path.
"""

import pytest

from repro.core.functions import PageTask
from repro.radram.config import RADramConfig
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory
from repro.trace import events as trace_events
from repro.viz.gantt import (
    page_intervals,
    page_intervals_from_events,
    render_gantt,
    render_gantt_events,
)


def build_machine(page_bytes=4096):
    cfg = RADramConfig.reference().with_page_bytes(page_bytes)
    memsys = RADramMemorySystem(cfg)
    machine = Machine(memory=PagedMemory(page_bytes=page_bytes), memsys=memsys)
    return machine, memsys


def page_ops(n_pages=3, cycles=500):
    ops = [O.Activate(p, 1, PageTask.simple(cycles)) for p in range(n_pages)]
    ops += [O.WaitPage(p) for p in range(n_pages)]
    return ops


def traced_run(n_pages=3, cycles=500):
    machine, memsys = build_machine()
    with trace_events.tracing() as tracer:
        stats = machine.run(iter(page_ops(n_pages, cycles)))
    return tracer.events(), memsys, stats


class TestMachineInstrumentation:
    def test_untraced_run_emits_nothing(self):
        machine, _ = build_machine()
        assert trace_events.TRACER is None
        machine.run(iter(page_ops()))  # must not blow up nor emit

    def test_traced_run_covers_the_machine(self):
        events, _, _ = traced_run()
        tracks = {e.track for e in events}
        assert "cpu" in tracks  # processor charge spans
        assert any(t.startswith("page/") for t in tracks)  # RADram layer
        names = {(e.track, e.name) for e in events}
        assert ("page/0", "activate") in names
        assert any(
            n == "compute" and t.startswith("page/") for t, n in names
        )

    def test_cpu_spans_named_after_charge_categories(self):
        events, _, stats = traced_run()
        cpu_spans = [
            e for e in events if e.ph == "X" and e.track == "cpu"
        ]
        assert cpu_spans
        assert {e.name for e in cpu_spans} <= {
            "total", "compute", "mem", "activation", "wait", "interrupt"
        }
        # Span durations on the cpu track reconcile with MachineStats.
        total = sum(e.dur for e in cpu_spans)
        assert total == pytest.approx(stats.busy_ns + stats.wait_ns)

    def test_page_compute_spans_match_memsys_intervals(self):
        events, memsys, _ = traced_run(n_pages=4)
        assert page_intervals_from_events(events) == page_intervals(memsys)

    def test_gantt_from_events_matches_gantt_from_memsys(self):
        events, memsys, stats = traced_run(n_pages=4)
        assert render_gantt_events(events, stats) == render_gantt(
            memsys, stats
        )

    def test_traced_run_timing_identical_to_untraced(self):
        machine, _ = build_machine()
        untraced = machine.run(iter(page_ops()))
        machine2, _ = build_machine()
        with trace_events.tracing():
            traced = machine2.run(iter(page_ops()))
        assert traced.as_dict() == untraced.as_dict()

    def test_rerun_does_not_duplicate_page_spans(self):
        machine, memsys = build_machine()
        with trace_events.tracing() as tracer:
            machine.run(iter(page_ops(n_pages=2)))
            first = len(
                [e for e in tracer.events() if e.name == "compute"]
            )
            machine.run(iter(page_ops(n_pages=2)))
        compute = [e for e in tracer.events() if e.name == "compute"]
        # Second run flushes only its own new intervals.
        assert len(compute) == 2 * first

    def test_cache_batches_and_memory_counters_appear(self):
        # Drive the cache hierarchy through explicit memory references.
        machine, _ = build_machine()
        refs = [O.MemRead(i * 64, 64) for i in range(128)]
        with trace_events.tracing() as tracer:
            machine.run(iter(refs))
        events = tracer.events()
        cache_tracks = {
            e.track for e in events if e.track.startswith("cache.")
        }
        assert cache_tracks  # batched cache instrumentation fired
        counters = {
            (e.track, e.name) for e in events if e.ph == "C"
        }
        assert ("dram", "reads") in counters
        assert ("bus", "bytes") in counters


def narrow_ops():
    """Narrow reads, writes and flushes that miss at both levels and
    evict dirty lines: 64 KB apart, they share their L1 set (two ways)
    and land in four L2 sets of four ways."""
    ops = []
    for i in range(48):
        addr = (i % 12) * 64 * 1024 + (i // 12) * 32
        ops.append(O.MemWrite(addr, 72) if i % 3 else O.MemRead(addr, 40))
        if i % 10 == 9:
            ops.append(O.FlushRange(addr, 64))
    return ops


class TestNarrowCounters:
    """Narrow cache calls commit DRAM and bus traffic once per call, so
    they sample the ``dram`` and ``bus`` counters once per call too;
    the samples still end at the machine's own counts."""

    def test_final_counters_equal_the_machine_and_stats_equal_untraced(self):
        untraced = Machine().run(iter(narrow_ops()))
        machine = Machine()
        with trace_events.tracing() as tracer:
            traced = machine.run(iter(narrow_ops()))
        assert traced.as_dict() == untraced.as_dict()
        last = {}
        samples = {}
        for e in tracer.events():
            if e.ph == "C" and e.track in ("dram", "bus"):
                last[(e.track, e.name)] = e.args["value"]
                samples[(e.track, e.name)] = samples.get((e.track, e.name), 0) + 1
        assert machine.dram.writes > 0 and machine.l1d.stats.writebacks > 0
        assert last == {
            ("dram", "reads"): machine.dram.reads,
            ("dram", "writes"): machine.dram.writes,
            ("bus", "bytes"): machine.bus.bytes_transferred,
            ("bus", "busy_ns"): machine.bus.busy_ns,
        }
        # One sample per commit, not one per line.
        assert samples[("dram", "reads")] < machine.dram.reads

    def test_per_line_entry_points_remain(self):
        """The caches no longer call the per-line DRAM and bus entry
        points, but a span profiler may still wrap each by name from
        its class dict, so each stays defined there."""
        from repro.sim.bus import Bus
        from repro.sim.cache import Cache
        from repro.sim.dram import DRAM

        for owner, names in (
            (Cache, ("access_lines", "access_lines_batch", "flush_range")),
            (
                DRAM,
                (
                    "read_line", "write_line", "read_lines", "write_lines",
                    "uncached_read", "uncached_write",
                ),
            ),
            (Bus, ("transfer", "transfer_batch")),
        ):
            for name in names:
                assert callable(owner.__dict__.get(name)), f"{owner.__name__}.{name}"
