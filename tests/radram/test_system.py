"""Integration tests: RADram memory system co-simulated with the CPU."""

import pytest

from repro.core.functions import CommRequest, PageTask, Segment
from repro.radram.config import RADramConfig
from repro.radram.dispatch import activation_ns
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory


def make_machine(radram_config=None):
    cfg = radram_config or RADramConfig.reference().with_page_bytes(4096)
    memsys = RADramMemorySystem(cfg)
    machine = Machine(
        memory=PagedMemory(page_bytes=cfg.page_bytes), memsys=memsys
    )
    return machine, memsys


def simple_activate(page_no=0x1000_0000 // 4096, cycles=100, words=1):
    return O.Activate(page_no, words, PageTask.simple(cycles))


class TestActivation:
    def test_activation_charges_dispatch_cost(self):
        machine, memsys = make_machine()
        stats = machine.run(iter([simple_activate(words=5)]))
        expected = activation_ns(
            5, memsys.config, machine.config.dram, machine.config.bus
        )
        assert stats.activation_ns == pytest.approx(expected)
        assert stats.activations == 1

    def test_page_runs_in_parallel_with_processor(self):
        machine, _ = make_machine()
        # 100 logic cycles at 10 ns = 1000 ns of page time; the CPU
        # computes 2000 ns meanwhile, so the wait is free.
        stats = machine.run(
            iter([simple_activate(cycles=100), O.Compute(2000), O.WaitPage(simple_activate().page_no)])
        )
        assert stats.wait_ns == 0.0

    def test_idle_processor_stalls_for_page(self):
        machine, _ = make_machine()
        act = simple_activate(cycles=100)
        stats = machine.run(iter([act, O.WaitPage(act.page_no)]))
        # Page completes 1000 ns after activation ends; processor
        # arrives immediately, so it stalls the full 1000 ns.
        assert stats.wait_ns == pytest.approx(1000.0)
        assert stats.waits == 1

    def test_wait_without_activation_is_noop(self):
        machine, _ = make_machine()
        stats = machine.run(iter([O.WaitPage(12345)]))
        assert stats.total_ns == 0.0

    def test_simulated_stalls_match_figure7_model_exactly(self):
        # K pages, zero processor work between waits: total stall time
        # must equal the analytic model's sum of NO(i) (Figure 7).
        import numpy as np

        from repro.core.model import non_overlap_times

        machine, memsys = make_machine()
        k, cycles = 8, 1000
        acts = [O.Activate(page, 1, PageTask.simple(cycles)) for page in range(k)]
        waits = [O.WaitPage(page) for page in range(k)]
        stats = machine.run(iter(acts + waits))
        t_c = cycles * 10.0
        t_a = activation_ns(1, memsys.config, machine.config.dram, machine.config.bus)
        expected = float(np.sum(non_overlap_times(t_a, 0.0, t_c, k)))
        assert stats.wait_ns == pytest.approx(expected, rel=1e-9)


class TestInterPage:
    def test_blocked_page_serviced_during_wait(self):
        machine, memsys = make_machine()
        page = 0
        task = PageTask.of([Segment(10, CommRequest(nbytes=64)), Segment(10)])
        stats = machine.run(iter([O.Activate(page, 1, task), O.WaitPage(page)]))
        assert stats.interrupts == 1
        assert stats.interrupt_ns > 0
        assert memsys.comm_bytes == 64
        # Total: stall to block point, service, then final segment.
        assert stats.total_ns > stats.activation_ns + 200.0

    def test_interrupt_serviced_while_computing(self):
        machine, _ = make_machine()
        page = 0
        task = PageTask.of([Segment(10, CommRequest(nbytes=4)), Segment(10)])
        # Long compute spans the block point; poll() services it at an
        # op boundary without the processor ever waiting.
        stats = machine.run(
            iter(
                [
                    O.Activate(page, 1, task),
                    O.Compute(500),
                    O.Compute(500),
                    O.WaitPage(page),
                ]
            )
        )
        assert stats.interrupts == 1
        assert stats.wait_ns == 0.0

    def test_batched_service_amortizes_interrupt_entry(self):
        cfg = RADramConfig.reference().with_page_bytes(4096)
        machine, _ = make_machine(cfg)
        # Long first segments: all four pages raise their interrupts
        # while the processor is inside one long compute op, so a
        # single batch services them at the next op boundary.
        task = lambda: PageTask.of([Segment(500, CommRequest(nbytes=4)), Segment(10)])
        ops = [O.Activate(p, 1, task()) for p in range(4)]
        ops += [O.Compute(6000)]
        ops += [O.WaitPage(p) for p in range(4)]
        stats = machine.run(iter(ops))
        assert stats.interrupts == 4
        # 1 entry overhead + 4 copies, not 4 entries.
        copy = 2 * (50.0 + 10.0)
        assert stats.interrupt_ns == pytest.approx(cfg.interrupt_base_ns + 4 * copy)

    def test_functional_copy_applied(self):
        machine, memsys = make_machine()
        mem = machine.memory
        region = mem.alloc_pages(2)
        src = region.base
        dst = region.base + mem.page_bytes
        import numpy as np

        mem.write(src, np.full(16, 9, dtype=np.uint8))
        page_no = src // mem.page_bytes
        task = PageTask.of(
            [Segment(10, CommRequest(nbytes=16, src_vaddr=src, dst_vaddr=dst))]
        )
        machine.run(iter([O.Activate(page_no, 1, task), O.WaitPage(page_no)]))
        assert np.all(mem.read(dst, 16) == 9)


class TestLogicSpeedScaling:
    def test_slower_logic_lengthens_page_time(self):
        # Figure 9: higher divisor = slower logic = longer T_C.
        def wait_time(divisor):
            cfg = (
                RADramConfig.reference()
                .with_page_bytes(4096)
                .with_logic_divisor(divisor)
            )
            machine, _ = make_machine(cfg)
            act = O.Activate(0, 1, PageTask.simple(1000))
            stats = machine.run(iter([act, O.WaitPage(0)]))
            return stats.wait_ns

        assert wait_time(100) > wait_time(10) > wait_time(2)

    def test_reset_clears_page_state(self):
        machine, memsys = make_machine()
        machine.run(iter([simple_activate()]))
        machine.reset_timing()
        assert memsys.subarrays == {}
        assert memsys.comm_bytes == 0


class TestOneDispatchPath:
    """``handle_activate`` and ``handle_wait`` are the only code that
    dispatches an activation or retires a wait: plain runs (through the
    batch hooks), traced runs (through ``_step``) and zero-rate faulted
    runs must each hand them every Activate and WaitPage, in order."""

    @staticmethod
    def _stream():
        base = 0x1000_0000
        first = base // 4096
        comm = PageTask.of(
            [
                Segment(40, CommRequest(nbytes=64, src_vaddr=base, dst_vaddr=base + 8192)),
                Segment(20),
            ]
        )
        ops = [O.BeginPhase("dispatch")]
        for r in range(3):
            ops += [O.Activate(first + p, 1 + p, PageTask.simple(200)) for p in range(4)]
            ops.append(O.Activate(first + 4, 2, comm))  # blocks: per-op stretch
            ops.append(O.EndPhase("dispatch") if r == 2 else O.Compute(30))
            ops += [O.WaitPage(first + p) for p in range(5)]
            ops.append(O.MemRead(base + 64 * r, 128))
        return ops

    @pytest.mark.parametrize("regime", ["plain", "traced", "zero-rate-faults"])
    def test_every_sync_op_reaches_the_per_op_handlers(self, regime, monkeypatch):
        from repro.faults.models import FaultConfig
        from repro.trace import events as trace_events

        faults = FaultConfig() if regime == "zero-rate-faults" else None
        cfg = RADramConfig.reference().with_page_bytes(4096).with_faults(faults)
        machine, _ = make_machine(cfg)
        seen = []
        for name in ("handle_activate", "handle_wait"):
            orig = getattr(RADramMemorySystem, name)

            def spy(self, op, proc, _orig=orig):
                seen.append(op)
                return _orig(self, op, proc)

            monkeypatch.setattr(RADramMemorySystem, name, spy)
        ops = self._stream()
        if regime == "traced":
            with trace_events.tracing():
                stats = machine.run(iter(ops))
        else:
            stats = machine.run(iter(ops))
        expected = [op for op in ops if isinstance(op, (O.Activate, O.WaitPage))]
        assert [id(op) for op in seen] == [id(op) for op in expected]
        assert stats.activations == 15
        assert stats.interrupts > 0


class TestMachineLifetime:
    def test_finished_machine_needs_no_cyclic_collection(self):
        """The memory system keeps the machine's parts, not the
        machine: a finished RADram machine (caches, pages and all) is
        freed as soon as its last reference goes."""
        import gc
        import weakref

        from repro.apps.registry import get_app
        from repro.experiments.runner import run_radram
        from repro.faults.models import FaultConfig

        made = []
        orig = Machine.__init__

        def init(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            made.append(weakref.ref(self))

        enabled = gc.isenabled()
        gc.disable()
        try:
            Machine.__init__ = init
            run_radram(get_app("array-insert"), 2.0, seed=0)
            run_radram(
                get_app("dynamic-prog"),
                2.0,
                seed=0,
                radram_config=RADramConfig.reference().with_faults(FaultConfig()),
            )
            # Read before the collector is back: re-enabling it lets the
            # next allocation collect any cycle.
            alive = [ref() is not None for ref in made]
        finally:
            Machine.__init__ = orig
            if enabled:
                gc.enable()
        assert alive == [False, False]
