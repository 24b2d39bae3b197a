"""Differential suite: the production executor vs the per-op reference.

``Processor.run`` fuses straight-line segments; the per-op reference
(:func:`repro.sim.processor_reference.run_per_op`, ``_step`` plus a
``poll`` per op) is the oracle it must match **bit for bit** — same
``MachineStats.as_dict`` (floats compared exactly, not approximately),
same per-phase accounting, same clock, same final functional memory
image.  Every test here runs the same op stream on fresh machines, once
per executor, and diffs the snapshots.  Traced, checked and zero-rate
faulted runs take the same executor and are held to the same standard,
plus identical ``cpu``/``cpu.phase``/``page/*``/``check`` trace events
and identical checker violations.

Hypothesis generates the streams: straight-line segments of
compute/memory ops interleaved with Activate/WaitPage sync points,
phase markers, inter-page communication (which parks pages on the
blocked queue and forces the executor onto per-op stepping mid-run),
and explicit ServicePending polls.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import runtime as check_runtime
from repro.core.functions import CommRequest, PageTask, Segment
from repro.faults.models import FaultConfig
from repro.radram.config import RADramConfig
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.cache import Cache
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory
from repro.sim.processor import Processor
from repro.sim.processor_reference import per_op_reference
from repro.trace import events as trace_events

KB = 1024
PAGE_BYTES = 4 * KB
N_PAGES = 6
#: All generated addresses stay inside this span of the data region.
DATA_SPAN = N_PAGES * PAGE_BYTES - 512


def _radram_machine(faults=None):
    cfg = RADramConfig.reference().with_page_bytes(PAGE_BYTES).with_faults(faults)
    machine = Machine(
        memory=PagedMemory(page_bytes=PAGE_BYTES),
        memsys=RADramMemorySystem(cfg),
    )
    region = machine.memory.alloc_pages(N_PAGES, name="data")
    # A recognizable pattern so functional copies show up in the image.
    region.buffer[:] = (np.arange(region.buffer.shape[0]) % 251).astype(np.uint8)
    return machine, region


def _conventional_machine():
    machine = Machine(memory=PagedMemory(page_bytes=PAGE_BYTES))
    region = machine.memory.alloc_pages(N_PAGES, name="data")
    return machine, region


def _snapshot(machine, stats):
    return {
        "stats": stats.as_dict(),
        "phase_ns": dict(stats.phase_ns),
        "total_ns": stats.total_ns,
        "now": machine.processor.now,
        "image": {
            base: region.buffer.tobytes()
            for base, region in machine.memory._regions.items()
        },
    }


def _run_both(ops, machine_factory):
    """Run ``ops`` on fresh machines, production then the per-op
    reference; returns both snapshots."""
    snaps = []
    for reference in (False, True):
        machine, _ = machine_factory()
        with per_op_reference() if reference else contextlib.nullcontext():
            stats = machine.run(iter(ops))
        snaps.append(_snapshot(machine, stats))
    return snaps


def _assert_identical(batched, scalar):
    # Dict equality compares floats bitwise-for-equality: any fold-order
    # drift in the batched executor shows up here.
    assert batched["stats"] == scalar["stats"]
    assert sorted(batched["phase_ns"]) == sorted(scalar["phase_ns"])
    assert batched["phase_ns"] == scalar["phase_ns"]
    assert batched["total_ns"] == scalar["total_ns"]
    assert batched["now"] == scalar["now"]
    assert batched["image"] == scalar["image"]


# ----------------------------------------------------------------------
# Stream strategies


_addrs = st.integers(min_value=0, max_value=DATA_SPAN)


@st.composite
def _straightline(draw, min_size=0, max_size=12):
    """A run of non-sync ops (compute + memory + balanced phases)."""
    base = 0x100000  # matches PagedMemory's first allocation base
    ops = []
    n = draw(st.integers(min_size, max_size))
    in_phase = None
    for _ in range(n):
        kind = draw(st.integers(0, 7))
        addr = base + draw(_addrs)
        if kind == 0:
            ops.append(O.Compute(draw(st.integers(1, 2000))))
        elif kind == 1:
            ops.append(O.MemRead(addr, draw(st.integers(1, 300))))
        elif kind == 2:
            ops.append(O.MemWrite(addr, draw(st.integers(1, 300))))
        elif kind == 3:
            ops.append(
                O.StridedRead(
                    addr,
                    count=draw(st.integers(1, 12)),
                    stride_bytes=draw(st.integers(4, 160)),
                    elem_bytes=draw(st.sampled_from([1, 4, 8])),
                )
            )
        elif kind == 4:
            ops.append(
                O.StridedWrite(
                    addr,
                    count=draw(st.integers(1, 12)),
                    stride_bytes=draw(st.integers(4, 160)),
                    elem_bytes=draw(st.sampled_from([1, 4, 8])),
                )
            )
        elif kind == 5:
            k = draw(st.integers(1, 10))
            gathered = [base + draw(_addrs) for _ in range(k)]
            cls = O.GatherRead if draw(st.booleans()) else O.ScatterWrite
            ops.append(cls(gathered, elem_bytes=draw(st.sampled_from([4, 8]))))
        elif kind == 6:
            ops.append(O.FlushRange(addr, draw(st.integers(1, 2 * KB))))
        else:
            if in_phase is None:
                in_phase = draw(st.sampled_from(["alpha", "beta", "gamma"]))
                ops.append(O.BeginPhase(in_phase))
            else:
                ops.append(O.EndPhase(in_phase))
                in_phase = None
    if in_phase is not None:
        ops.append(O.EndPhase(in_phase))
    return ops


@st.composite
def _page_task(draw, with_comm):
    cycles = draw(st.floats(10.0, 3000.0))
    if not with_comm:
        return PageTask.simple(cycles)
    base = 0x100000
    src = base + draw(_addrs)
    dst = base + draw(_addrs)
    return PageTask.of(
        [
            Segment(
                cycles,
                CommRequest(
                    nbytes=draw(st.integers(1, 128)),
                    src_vaddr=src,
                    dst_vaddr=dst,
                ),
            ),
            Segment(draw(st.floats(5.0, 500.0))),
        ]
    )


@st.composite
def radram_streams(draw):
    """Rounds of straight-line work + activate/wait sync bursts."""
    region_first_page = 0x100000 // PAGE_BYTES
    ops = []
    rounds = draw(st.integers(1, 3))
    for _ in range(rounds):
        ops += draw(_straightline())
        pages = draw(
            st.lists(
                st.integers(0, N_PAGES - 1),
                unique=True,
                min_size=1,
                max_size=N_PAGES,
            )
        )
        with_comm = draw(st.booleans())
        phase_burst = draw(st.booleans())
        if phase_burst:
            ops.append(O.BeginPhase("activation"))
        for p in pages:
            task = draw(_page_task(with_comm and draw(st.booleans())))
            ops.append(
                O.Activate(region_first_page + p, draw(st.integers(1, 8)), task)
            )
        if phase_burst:
            ops.append(O.EndPhase("activation"))
        if draw(st.booleans()):
            ops.append(O.ServicePending())
        ops += draw(_straightline(max_size=6))
        if phase_burst:
            ops.append(O.BeginPhase("post"))
        for p in pages:
            ops.append(O.WaitPage(region_first_page + p))
        if phase_burst:
            ops.append(O.EndPhase("post"))
    ops += draw(_straightline(max_size=6))
    return ops


# ----------------------------------------------------------------------
# Differential properties


_DIFF_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchedMatchesScalar:
    @_DIFF_SETTINGS
    @given(ops=radram_streams())
    def test_radram_streams_bit_identical(self, ops):
        batched, scalar = _run_both(ops, _radram_machine)
        _assert_identical(batched, scalar)

    @_DIFF_SETTINGS
    @given(ops=_straightline(min_size=1, max_size=40))
    def test_conventional_straightline_bit_identical(self, ops):
        batched, scalar = _run_both(ops, _conventional_machine)
        _assert_identical(batched, scalar)

    @_DIFF_SETTINGS
    @given(ops=radram_streams())
    def test_batched_regime_actually_engages(self, ops):
        """Guard against a vacuous pass: production must fuse segments
        and the reference must not."""
        calls = []
        orig = Processor._flush_segment

        def spy(self, *args):
            calls.append(True)
            return orig(self, *args)

        Processor._flush_segment = spy
        try:
            machine, _ = _radram_machine()
            machine.run(iter([O.Compute(1)] + list(ops)))
            assert calls, "production run fused no segment"
            calls.clear()
            machine, _ = _radram_machine()
            with per_op_reference():
                machine.run(iter(list(ops)))
            assert not calls, "the per-op reference fused a segment"
        finally:
            Processor._flush_segment = orig


class TestRegimeFlip:
    """Streams engineered to bounce between fused and per-op execution."""

    def _comm_task(self):
        base = 0x100000
        return PageTask.of(
            [
                Segment(50.0, CommRequest(nbytes=64, src_vaddr=base, dst_vaddr=base + 8 * KB)),
                Segment(25.0),
            ]
        )

    def test_blocked_pages_force_scalar_fallback_and_recover(self):
        """Comm tasks park pages on the blocked queue: the executor
        must step op by op, polling, while service is pending, then
        resume fusing — with identical accounting throughout."""
        first = 0x100000 // PAGE_BYTES
        ops = []
        for r in range(4):
            for p in range(3):
                ops.append(O.Activate(first + p, 2, self._comm_task()))
            # Straight-line work while pages sit blocked: the executor
            # may not skip the polls that service them.
            for i in range(20):
                ops.append(O.MemRead(0x100000 + (i * 192) % DATA_SPAN, 128))
                ops.append(O.Compute(64))
            for p in range(3):
                ops.append(O.WaitPage(first + p))
        batched, scalar = _run_both(ops, _radram_machine)
        _assert_identical(batched, scalar)
        assert batched["stats"]["interrupts"] > 0

    @_DIFF_SETTINGS
    @given(flips=st.lists(st.booleans(), min_size=2, max_size=5))
    def test_mid_sequence_regime_flips(self, flips):
        """Alternate production and reference runs on one machine:
        cache and page state carried between runs must not diverge
        from a machine that only ever ran the reference."""
        first = 0x100000 // PAGE_BYTES

        def chunk(i):
            ops = [O.MemWrite(0x100000 + (i * 640) % DATA_SPAN, 256)]
            ops.append(O.Activate(first + (i % N_PAGES), 1, PageTask.simple(100.0)))
            ops.append(O.Compute(32))
            ops.append(O.WaitPage(first + (i % N_PAGES)))
            return ops

        flipper, reference = _radram_machine()[0], _radram_machine()[0]
        for i, flip in enumerate(flips):
            with per_op_reference() if flip else contextlib.nullcontext():
                flipper.run(iter(chunk(i)))
            with per_op_reference():
                reference.run(iter(chunk(i)))
        a = _snapshot(flipper, flipper.processor.stats)
        b = _snapshot(reference, reference.processor.stats)
        _assert_identical(a, b)


# ----------------------------------------------------------------------
# Instrumented runs: same executor, same numbers, same observations


#: Trace tracks whose events must equal the per-op reference's exactly;
#: cache, DRAM and bus events may coarsen to one per fused batch.
_EXACT_TRACKS = ("cpu", "cpu.phase", "check")

_REGIMES = {
    "traced": dict(trace=True),
    "checked": dict(check=True),
    "zero-rate-faults": dict(faults=True),
    "all": dict(trace=True, check=True, faults=True),
}


def _observed_run(ops, regime, reference=False, conventional=False):
    """One run under ``regime``; returns snapshot, exact-track events,
    checker violations and clock, and the access_lines_batch call count."""
    opts = _REGIMES[regime]
    if conventional:
        machine, _ = _conventional_machine()
    else:
        machine, _ = _radram_machine(FaultConfig() if opts.get("faults") else None)
    batch_calls = []
    orig = Cache.access_lines_batch

    def spy(self, *args):
        batch_calls.append(True)
        return orig(self, *args)

    with contextlib.ExitStack() as stack:
        tracer = ck = None
        if opts.get("trace"):
            tracer = stack.enter_context(trace_events.tracing())
        if opts.get("check"):
            ck = stack.enter_context(check_runtime.checking())
        if reference:
            stack.enter_context(per_op_reference())
        Cache.access_lines_batch = spy
        try:
            stats = machine.run(iter(ops))
        finally:
            Cache.access_lines_batch = orig
    events = [
        e
        for e in (tracer.events() if tracer is not None else [])
        if e.track in _EXACT_TRACKS or e.track.startswith("page/")
    ]
    checked = (list(ck.violations), ck.now) if ck is not None else None
    return _snapshot(machine, stats), events, checked, len(batch_calls)


def _wide_stream():
    """Fused segments wide enough for ``access_lines_batch`` around
    activations, a seeded race and phase markers."""
    first = 0x100000 // PAGE_BYTES
    ops = [O.BeginPhase("pre")]
    for i in range(24):
        ops.append(O.MemRead(0x100000 + i * 640, 256))
        ops.append(O.Compute(40))
        ops.append(O.MemWrite(0x100000 + 12 * KB + i * 96, 128))
    ops.append(O.EndPhase("pre"))
    ops.append(O.FlushRange(0x100000, N_PAGES * PAGE_BYTES))
    ops.append(O.BeginPhase("activation"))
    ops += [O.Activate(first + p, 2, PageTask.simple(300.0)) for p in range(3)]
    ops.append(O.EndPhase("activation"))
    ops.append(O.MemWrite(0x100000 + 64, 16))  # races in-flight page 0
    ops.append(O.Compute(10))
    ops += [O.WaitPage(first + p) for p in range(3)]
    for i in range(24):
        ops.append(O.StridedRead(0x100000 + i * 32, count=8, stride_bytes=512, elem_bytes=4))
        ops.append(O.Compute(25))
    return ops


class TestInstrumentedRuns:
    """Tracer, checker and zero-rate faults observe the production
    executor: the fused cache batch engages, and numbers, trace events
    and violations equal the per-op reference's."""

    @pytest.mark.parametrize("regime", sorted(_REGIMES))
    def test_instrumented_run_calls_access_lines_batch(self, regime):
        snap, events, checked, calls = _observed_run(_wide_stream(), regime)
        assert calls > 0, f"{regime} run never fused a cache batch"
        ref, ref_events, ref_checked, ref_calls = _observed_run(
            _wide_stream(), regime, reference=True
        )
        assert ref_calls == 0
        _assert_identical(snap, ref)
        assert events == ref_events
        assert checked == ref_checked
        if checked is not None:
            assert [v.detector for v in checked[0]] == ["race"]

    @pytest.mark.parametrize("regime", sorted(_REGIMES))
    def test_instrumented_run_matches_plain_run(self, regime):
        plain, _ = _run_both(_wide_stream(), _radram_machine)
        snap, _, _, _ = _observed_run(_wide_stream(), regime)
        _assert_identical(snap, plain)

    def test_traced_and_plain_runs_agree(self):
        """Tracing only observes: a traced run produces the same
        numbers as the plain run."""
        first = 0x100000 // PAGE_BYTES
        ops = [O.MemRead(0x100000, 512), O.Compute(100)]
        ops.append(O.Activate(first, 2, PageTask.simple(200.0)))
        ops.append(O.WaitPage(first))
        machine, _ = _radram_machine()
        plain = _snapshot(machine, machine.run(iter(ops)))
        machine, _ = _radram_machine()
        with trace_events.tracing():
            traced = _snapshot(machine, machine.run(iter(ops)))
        _assert_identical(traced, plain)

    @_DIFF_SETTINGS
    @given(ops=radram_streams(), regime=st.sampled_from(sorted(_REGIMES)))
    def test_radram_streams_observed_identically(self, ops, regime):
        snap, events, checked, _ = _observed_run(ops, regime)
        ref, ref_events, ref_checked, _ = _observed_run(ops, regime, reference=True)
        _assert_identical(snap, ref)
        assert events == ref_events
        assert checked == ref_checked

    @_DIFF_SETTINGS
    @given(
        ops=_straightline(min_size=1, max_size=40),
        regime=st.sampled_from(["traced", "checked"]),
    )
    def test_conventional_streams_observed_identically(self, ops, regime):
        snap, events, checked, _ = _observed_run(ops, regime, conventional=True)
        ref, ref_events, ref_checked, _ = _observed_run(
            ops, regime, reference=True, conventional=True
        )
        _assert_identical(snap, ref)
        assert events == ref_events
        assert checked == ref_checked


class TestPaperApps:
    """The six paper applications, both memory systems, bit-identical."""

    @pytest.mark.parametrize("system", ["conventional", "radram"])
    def test_apps_bit_identical(self, system):
        from repro.apps import ALL_APPS
        from repro.experiments.runner import run_conventional, run_radram

        runner = run_conventional if system == "conventional" else run_radram
        for name in sorted(ALL_APPS):
            app = ALL_APPS[name]
            res_batched = runner(app, n_pages=2, seed=3)
            with per_op_reference():
                res_scalar = runner(app, n_pages=2, seed=3)
            assert res_batched.stats.as_dict() == res_scalar.stats.as_dict(), name
            assert res_batched.stats.phase_ns == res_scalar.stats.phase_ns, name
            assert res_batched.total_ns == res_scalar.total_ns, name
