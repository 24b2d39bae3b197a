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
from repro.radram.dispatch import activation_ns
from repro.radram.interpage import service_ns
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory
from repro.sim.processor import _SEGMENT_MAX_LINES, Processor
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


def _blocking_task(cycles, tail_cycles, reblock=None):
    """Compute ``cycles``, block on a one-line inter-page copy, compute
    ``tail_cycles``; ``reblock`` (cycles) blocks once more after that."""
    base = 0x100000

    def comm():
        return CommRequest(nbytes=32, src_vaddr=base, dst_vaddr=base + 8 * KB)

    segments = [Segment(cycles, comm())]
    if reblock is not None:
        segments.append(Segment(reblock, comm()))
    segments.append(Segment(tail_cycles))
    return PageTask.of(segments)


@st.composite
def close_block_streams(draw):
    """Activation bursts whose comm pages block within one interrupt
    service of each other.

    Servicing one blocked page moves the clock past the next page's
    request, so which op each service lands after depends on every
    poll's exact placement.  Generic streams almost never build this:
    each comm page's block time is drawn as a common target plus less
    than one service time, and its compute cycles are derived from the
    activation costs before it.
    """
    cfg = RADramConfig.reference().with_page_bytes(PAGE_BYTES)
    mc = MachineConfig.reference()
    cycle_ns = cfg.logic_cycle_ns
    service = service_ns(
        CommRequest(nbytes=32, src_vaddr=0, dst_vaddr=0), cfg, mc.dram, mc.bus
    )
    first = 0x100000 // PAGE_BYTES
    pages = draw(st.permutations(range(N_PAGES)))[: draw(st.integers(2, N_PAGES))]
    n_comm = draw(st.integers(2, len(pages)))
    comm_pages = set(draw(st.permutations(pages))[:n_comm])
    words = [draw(st.integers(1, 8)) for _ in pages]
    done_at = []  # activation end times, from a clock of 0
    t = 0.0
    for w in words:
        t += activation_ns(w, cfg, mc.dram, mc.bus)
        done_at.append(t)
    target = t + draw(st.floats(-0.5, 2.0)) * service
    ops = []
    for p, w, end in zip(pages, words, done_at):
        if p in comm_pages:
            block = target + draw(st.floats(0.0, 1.0)) * service
            cycles = max(1.0, (block - end) / cycle_ns)
            reblock = draw(st.one_of(st.none(), st.floats(1.0, service / cycle_ns)))
            task = _blocking_task(cycles, draw(st.floats(1.0, 200.0)), reblock)
        else:
            task = PageTask.simple(draw(st.floats(10.0, 500.0)))
        ops.append(O.Activate(first + p, w, task))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            ops.append(O.Compute(draw(st.integers(1, 3000))))
        elif kind == 1:
            addr = 0x100000 + draw(_addrs)
            ops.append(O.MemRead(addr, draw(st.integers(1, 300))))
        else:
            ops.append(O.ServicePending())
    ops += [O.WaitPage(first + p) for p in draw(st.permutations(pages))]
    return ops


# ----------------------------------------------------------------------
# Differential properties


#: The differential properties are the suite's slowest, so each takes
#: 60% of the loaded profile's example budget: 60 under the default
#: profile, more under ``--hypothesis-profile=deep`` (tests/conftest.py).
_DIFF_SETTINGS = settings(
    max_examples=max(1, settings.default.max_examples * 3 // 5),
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

    def test_batched_regime_actually_engages(self):
        """Guard against a vacuous pass, both ways: narrow RADram
        stretches are applied as they arrive and never reach
        ``_flush_segment``, a wide stretch still fuses, and the per-op
        reference fuses nothing."""
        first = 0x100000 // PAGE_BYTES

        def narrow(i):
            return [
                O.Compute(40),
                O.BeginPhase("post"),
                O.MemRead(0x100000 + (i * 320) % DATA_SPAN, 256),
                O.EndPhase("post"),
                O.Compute(8),
            ]

        ops = []
        for i in range(8):
            ops += [O.Activate(first + i % N_PAGES, 2, PageTask.simple(200.0))]
            ops += narrow(i)
            ops += [O.WaitPage(first + i % N_PAGES)]
        wide = [O.MemRead(0x100000 + i * 512, 512) for i in range(N_PAGES * 8 - 1)]
        calls = []
        orig = Processor._flush_segment

        def spy(self, *args):
            calls.append(True)
            return orig(self, *args)

        Processor._flush_segment = spy
        try:
            machine, _ = _radram_machine()
            machine.run(iter(narrow(99)))  # a fresh L1D buffers once
            assert machine.l1d._scalar_sets is not None
            calls.clear()
            proc = machine.processor
            inline = proc.ops_inline
            machine.run(iter(ops))
            assert not calls, "a narrow stretch reached _flush_segment"
            assert proc.ops_inline - inline == 5 * 8
            machine.run(iter(wide))
            assert calls, "a wide stretch fused no segment"
            calls.clear()
            machine, _ = _radram_machine()
            with per_op_reference():
                machine.run(iter(ops + wide))
            assert not calls, "the per-op reference fused a segment"
        finally:
            Processor._flush_segment = orig


class TestStreamedStretches:
    """Where the executor stops applying ops as they arrive: the rest
    of a stretch wider than one small batch, and a whole stretch that
    finds the L1D in its matrix regime, are buffered into fused
    segments, so no narrow access flips a matrix-regime cache to
    dicts."""

    def _matrix_machine(self):
        machine, _ = _conventional_machine()
        wide = 1024 * machine.l1d.config.line_bytes
        machine.run(iter([O.MemRead(0x100000, wide)]))  # one wide batch
        assert machine.l1d._scalar_sets is None
        return machine, wide

    def _regime_counts(self, machine):
        l1, l2 = machine.l1d, machine.l2
        return l1.dict_entries, l1.dict_exits, l2.dict_entries, l2.dict_exits

    def test_split_segment_keeps_buffering(self):
        """A stretch longer than ``_SEGMENT_MAX_LINES`` flushes at the
        split and buffers on: the narrow ops right after the split fuse
        into one more wide batch instead of walking the dict regime."""
        machine, wide = self._matrix_machine()
        big = [
            O.MemRead(0x100000 + i * wide, wide)
            for i in range(_SEGMENT_MAX_LINES // 1024)
        ]
        narrow = [O.MemWrite(0x100000 + i * 4096, 256) for i in range(20)]
        ops = big + narrow
        before = self._regime_counts(machine)
        proc = machine.processor
        machine.run(iter(ops))
        assert self._regime_counts(machine) == before
        assert proc.segments_fused == 3  # the warm-up, the split, the rest
        assert proc.ops_inline == 0
        ref, _ = self._matrix_machine()
        with per_op_reference():
            ref.run(iter(ops))
        _assert_identical(
            _snapshot(machine, machine.processor.stats),
            _snapshot(ref, ref.processor.stats),
        )

    def test_narrow_op_in_matrix_regime_is_buffered(self):
        """With the L1D in its matrix regime, even the first narrow op
        of a stretch is buffered: the stretch fuses into one wide batch
        and the caches keep their regime."""
        ops = [O.MemRead(0x100000 + i * 4096, 256) for i in range(20)]
        machine, _ = self._matrix_machine()
        before = self._regime_counts(machine)
        proc = machine.processor
        fused = proc.segments_fused
        machine.run(iter(ops))
        assert self._regime_counts(machine) == before
        assert proc.segments_fused == fused + 1
        assert proc.ops_inline == 0

    def test_stretch_past_small_batch_fuses_the_rest(self):
        """In the dict regime, ops apply as they arrive until the
        stretch's footprint would pass ``_SMALL_BATCH``; the rest of
        the stretch fuses."""
        machine, _ = _conventional_machine()
        machine.run(iter([O.MemRead(0x100000, 64)]))
        proc = machine.processor
        inline, fused = proc.ops_inline, proc.segments_fused
        small = machine.l1d._SMALL_BATCH
        nbytes = 8 * machine.l1d.config.line_bytes
        n_fit = small // 8
        ops = [O.MemRead(0x100000 + i * nbytes, nbytes) for i in range(n_fit + 5)]
        machine.run(iter(ops))
        assert proc.ops_inline - inline == n_fit
        assert proc.segments_fused - fused == 1
        ref, _ = _conventional_machine()
        with per_op_reference():
            ref.run(iter([O.MemRead(0x100000, 64)]))
            ref.run(iter(ops))
        _assert_identical(
            _snapshot(machine, machine.processor.stats),
            _snapshot(ref, ref.processor.stats),
        )


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

    @pytest.mark.parametrize("faults", [None, FaultConfig()], ids=["plain", "zero-rate-faults"])
    def test_batch_hook_stop_polls_like_per_op(self, faults):
        """The activate hook stops once page 3 blocks, and pages 4 and
        5 are stepped with a poll each.  The poll after page 5 services
        page 3, which moves the clock past page 5's request; one more
        poll after the run would service page 5 before the ``Compute``
        instead of after it (``wait_ns`` 200 against the per-op
        reference's 250)."""
        first = 0x100000 // PAGE_BYTES

        def comm(cycles):
            return PageTask.of(
                [
                    Segment(
                        cycles,
                        CommRequest(nbytes=1, src_vaddr=0x100000, dst_vaddr=0x100000),
                    ),
                    Segment(5.0),
                ]
            )

        plain = PageTask.simple(10.0)
        ops = [O.Activate(first, 1, plain), O.WaitPage(first)] * 2
        ops += [
            O.Activate(first, 1, plain),
            O.Activate(first + 1, 5, plain),
            O.Activate(first + 2, 4, plain),
            O.Activate(first + 3, 1, comm(74.0)),
            O.Activate(first + 4, 5, plain),
            O.Activate(first + 5, 2, comm(10.0)),
            O.Compute(1150),
        ]
        ops += [O.WaitPage(first + p) for p in range(N_PAGES)]
        snaps, services = [], []
        orig = RADramMemorySystem._service_pending

        def spy(self, proc, force_page=None):
            services[-1].append((proc.now, force_page))
            return orig(self, proc, force_page)

        RADramMemorySystem._service_pending = spy
        try:
            for reference in (False, True):
                services.append([])
                machine, _ = _radram_machine(faults)
                with per_op_reference() if reference else contextlib.nullcontext():
                    stats = machine.run(iter(ops))
                snaps.append(_snapshot(machine, stats))
        finally:
            RADramMemorySystem._service_pending = orig
        assert services[0] == services[1]
        _assert_identical(*snaps)
        assert snaps[0]["stats"]["wait_ns"] == 250.0

    @_DIFF_SETTINGS
    @given(
        ops=close_block_streams(),
        faults=st.sampled_from([None, FaultConfig()]),
    )
    def test_close_block_times_service_like_per_op(self, ops, faults):
        """Comm pages that block within one service of each other: the
        batch hooks, the per-op remainder after a hook stops and the
        polls around them service every page after the same op as the
        per-op reference (``test_batch_hook_stop_polls_like_per_op`` is
        one such stream, found by hand)."""
        batched, scalar = _run_both(ops, lambda: _radram_machine(faults))
        _assert_identical(batched, scalar)

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
