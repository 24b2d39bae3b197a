"""In-order processor timing model.

The processor consumes an operation stream (:mod:`repro.sim.ops`),
advancing its clock ``now`` (nanoseconds):

* ``Compute`` ops retire at ``issue_width`` per cycle.  Kernel authors
  include load/store issue slots in their compute counts; memory ops
  below charge only the memory-hierarchy latency of the footprint.
* Memory ops expand to cache-line sequences and walk the L1D/L2/DRAM
  hierarchy (blocking, in-order — conservative, like the paper's
  conventional system).
* Active-Page ops (``Activate``/``WaitPage``/``ServicePending``) are
  delegated to the attached memory system, which charges activation
  cost, stall (non-overlap) time, and interrupt service time.

Between operations the memory system is polled so pages blocked on
inter-page references get serviced at instruction granularity, matching
the paper's processor-mediated communication.

Execution
---------
``run`` has one executor.  A *stretch* is the run of straight-line ops
between sync points (``Activate``/``WaitPage``/``ServicePending``/
``FlushRange``).  In an unobserved run, while the L1D is in its dict
regime, a stretch's ops are applied as they arrive — compute and
phase charges directly, memory footprints through
``Cache.access_lines`` — as long as the stretch's footprint stays
within ``Cache._SMALL_BATCH`` lines, so every access is narrow and the
L1D stays in that regime.  From the first memory op that would pass
the bound, and from the start of a stretch that finds the L1D in its
matrix regime or runs observed, the stretch is buffered up to its
sync point: its memory footprints are expanded once and resolved by
the cache in one wide batch per segment (``_flush_segment``), and the
per-op clock/stats charges replayed sequentially from the per-line
latencies.  Either way the fold order matches the per-op interpreter
(``_step`` plus a ``poll`` per op) exactly, so ``MachineStats`` is
bit-identical, not merely close (``tests/sim/test_batched_exec.py``
runs that interpreter as the reference oracle).

Polls are skipped inside a stretch only while the memory system
reports no pending service work — while the blocked-page queue is
empty, ``poll`` is by construction a no-op, so skipping it cannot
change behaviour.  Every sync op is followed by exactly the poll the
per-op interpreter would make.  While a sync op leaves service
pending, ops go through ``_step`` one at a time, each followed by a
poll, until the queue drains.

Instrumentation observes the same executor:

* a live tracer gets the ``cpu`` spans and ``cpu.phase`` events from
  the segment replay, with the timestamps ``charge`` and ``_step``
  give them; cache, DRAM and bus events come once per fused batch;
* a live checker sees every op through ``Checker.on_op`` with the
  exact clock: sync ops, and every op while the checker has working
  spans in flight or sync lines watched, run through ``_step``; in
  between, ``on_op`` could only move the checker's clock hint, which
  the replay sets to each op's start time;
* with a tracer or checker live, ``Activate``/``WaitPage`` runs go
  through ``_step`` per op; otherwise they go to the memory system's
  batch hooks, which on RADram hand each op to the same per-op
  handlers ``_step`` calls, fault controller or not.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.sim.cache import Cache
from repro.sim.config import MachineConfig
from repro.sim.errors import OperationError
from repro.sim import ops as O
from repro.sim.stats import MachineStats
from repro.check import runtime as _check
from repro.trace import events as _trace

#: Stream-exhausted marker for the executor (never a valid op).
_SENTINEL = object()

#: Segment-entry tags for the executor.
_ENT_COMPUTE = 0
_ENT_MEM = 1
_ENT_BEGIN = 2
_ENT_END = 3

#: Flush a fused segment when its footprint reaches this many lines —
#: bounds buffering memory; flushing mid-segment is always safe.
_SEGMENT_MAX_LINES = 1 << 17


def _fold_slices(lat: np.ndarray, counts: List[int]) -> List[float]:
    """Left-to-right float sum of each consecutive ``counts`` slice.

    ``sum()`` will not do: from Python 3.12 it compensates rounding.
    Slices are grouped by bit length into matrix rows as wide as the
    group's widest slice, shorter ones zero-padded (``x + 0.0 == x``);
    ``np.add.accumulate`` along a row is strictly sequential, so each
    row's last column is the per-op fold.  A group of equal widths
    needs no padding, and one whose slices also lie back to back (a
    segment of same-sized blocks, the common shape) is a reshaped view
    of ``lat`` with no gather at all.
    """
    cnt = np.array(counts, dtype=np.int64)
    starts = np.cumsum(cnt) - cnt
    bits = np.frexp(cnt)[1]  # bit length; 0 for an empty slice
    out = np.zeros(cnt.shape[0])
    ext = None
    for b in np.unique(bits[bits > 0]).tolist():
        rows = np.flatnonzero(bits == b)
        widths = cnt[rows]
        width = int(widths.max())
        first = int(starts[rows[0]])
        if int(widths.min()) < width:
            if ext is None:
                ext = np.append(lat, 0.0)  # index len(lat) pads
            cols = np.arange(width)
            idx = starts[rows, None] + cols
            idx[cols >= widths[:, None]] = lat.shape[0]
            grid = ext[idx]
        elif int(starts[rows[-1]]) - first == (rows.shape[0] - 1) * width:
            grid = lat[first : first + rows.shape[0] * width].reshape(-1, width)
        else:
            grid = lat[starts[rows, None] + np.arange(width)]
        out[rows] = np.add.accumulate(grid, axis=1)[:, -1]
    return out.tolist()


class MemorySystemBase:
    """Interface the processor uses to reach the memory system."""

    #: Whether :meth:`poll` must be called between ops.  Passive memory
    #: systems (conventional DRAM) leave this False and skip a Python
    #: call per op; RADram keeps instruction-granularity polling.
    needs_poll: bool = False

    def on_run_begin(self, proc: "Processor") -> None:
        """Called once before an op stream starts."""

    def on_run_end(self, proc: "Processor") -> None:
        """Called once after the op stream is exhausted."""

    def poll(self, proc: "Processor") -> None:
        """Called between ops; service anything pending."""

    def has_pending_service(self) -> bool:
        """Whether :meth:`poll` could do work right now.

        The executor skips per-op polls only while this is False.  The
        conservative default (always True) keeps any polling system
        that does not override it on the per-op path.
        """
        return True

    def handle_activate(self, op: O.Activate, proc: "Processor") -> None:
        raise OperationError("this memory system does not support Active Pages")

    def handle_wait(self, op: O.WaitPage, proc: "Processor") -> None:
        raise OperationError("this memory system does not support Active Pages")

    def handle_service(self, proc: "Processor") -> None:
        """Explicit ServicePending op; default is a no-op."""

    # ------------------------------------------------------------------
    # Batch hooks.  Only invoked with tracer and sanitizer disabled;
    # ``ops`` is a run of Activate/WaitPage ops with phase markers
    # interleaved, to be applied strictly in order.  Both return the
    # number of ops consumed — a handler stops early (and the executor
    # finishes the rest per op) as soon as one leaves service work
    # pending.  Like their per-op siblings, the defaults reject Active
    # Pages.

    def handle_activate_batch(self, ops: List[O.Op], proc: "Processor") -> int:
        raise OperationError("this memory system does not support Active Pages")

    def handle_wait_batch(self, ops: List[O.Op], proc: "Processor") -> int:
        raise OperationError("this memory system does not support Active Pages")


class Processor:
    """Single in-order core attached to an L1D and a memory system."""

    def __init__(
        self,
        config: MachineConfig,
        l1d: Cache,
        memsys: MemorySystemBase,
    ) -> None:
        self.config = config
        self.l1d = l1d
        self.memsys = memsys
        self.now: float = 0.0
        self.stats = MachineStats()
        #: Tracer bound for the current run() dynamic extent.
        #: ``charge`` reads this instead of the module attribute — one
        #: global lookup per run instead of one per charge.
        self._tr = _trace.TRACER
        # Executor routing counters, summed over runs: fused segments
        # flushed, ops applied as they arrived, ops run through
        # ``_step``.  Plain ints, no stats role.
        self.segments_fused = 0
        self.ops_inline = 0
        self.ops_stepped = 0

    # ------------------------------------------------------------------
    # Time charging helpers (used by the memory system too)

    def charge(self, category: str, ns: float) -> None:
        """Advance the clock by ``ns``, billed to ``category``."""
        if ns < 0:
            raise OperationError("cannot charge negative time")
        start = self.now
        self.now = start + ns
        self.stats.charge(category, ns)
        tr = self._tr
        if tr is not None:
            tr.now = self.now
            if ns > 0:
                # "compute_ns" -> span "compute" on the cpu timeline.
                tr.complete("cpu", category[:-3], start, self.now)

    def stall_until(self, when: float) -> None:
        """Stall (non-overlap) until absolute time ``when``."""
        if when > self.now:
            self.stats.waits += 1
            self.charge("wait_ns", when - self.now)

    # ------------------------------------------------------------------
    # Operation interpretation

    def _step(self, op: O.Op, ck, tr) -> None:
        """Interpret one op, with the instrumentation guards hoisted to
        arguments (bound once per run by the caller).

        ``run`` uses it for sync ops and per-op stretches; SMP
        co-simulation steps every op through it."""
        if ck is not None:
            ck.on_op(op, self)
        line = self.l1d.config.line_bytes
        if isinstance(op, O.Compute):
            self.charge("compute_ns", self.config.cpu.compute_ns(op.ops))
        elif isinstance(op, O.MemRead):
            lines = O.lines_for_block(op.addr, op.nbytes, line)
            self.charge("mem_ns", self.l1d.access_lines(lines, write=False))
        elif isinstance(op, O.MemWrite):
            lines = O.lines_for_block(op.addr, op.nbytes, line)
            self.charge("mem_ns", self.l1d.access_lines(lines, write=True))
        elif isinstance(op, O.StridedRead):
            lines = O.lines_for_stride(
                op.addr, op.count, op.stride_bytes, op.elem_bytes, line
            )
            self.charge("mem_ns", self.l1d.access_lines(lines, write=False))
        elif isinstance(op, O.StridedWrite):
            lines = O.lines_for_stride(
                op.addr, op.count, op.stride_bytes, op.elem_bytes, line
            )
            self.charge("mem_ns", self.l1d.access_lines(lines, write=True))
        elif isinstance(op, O.GatherRead):
            lines = O.lines_for_gather(op.addrs, op.elem_bytes, line)
            self.charge("mem_ns", self.l1d.access_lines(lines, write=False))
        elif isinstance(op, O.ScatterWrite):
            lines = O.lines_for_gather(op.addrs, op.elem_bytes, line)
            self.charge("mem_ns", self.l1d.access_lines(lines, write=True))
        elif isinstance(op, O.FlushRange):
            if op.nbytes > 0:
                lo_line = op.addr // line
                hi_line = (op.addr + op.nbytes - 1) // line
                self.charge("mem_ns", self.l1d.flush_range(lo_line, hi_line))
        elif isinstance(op, O.Activate):
            self.memsys.handle_activate(op, self)
        elif isinstance(op, O.WaitPage):
            self.memsys.handle_wait(op, self)
        elif isinstance(op, O.ServicePending):
            self.memsys.handle_service(self)
        elif isinstance(op, O.BeginPhase):
            self.stats.begin_phase(op.name)
            if tr is not None:
                tr.begin("cpu.phase", op.name, self.now)
        elif isinstance(op, O.EndPhase):
            self.stats.end_phase(op.name)
            if tr is not None:
                tr.end("cpu.phase", op.name, self.now)
        else:
            raise OperationError(f"unknown operation {op!r}")

    def run(self, stream: Iterable[O.Op]) -> MachineStats:
        """Execute an op stream to completion; returns the stats.

        Between sync points, an unobserved run applies ops as they
        arrive while the L1D is in its dict regime and the stretch's
        footprint fits one small batch.  From the first memory op that
        would pass that bound (and for every straight-line op of an
        observed run, or of a stretch that finds the L1D in its matrix
        regime) the stretch accumulates into a segment: Compute charges
        are precomputed, memory ops expand their line footprints once,
        and ``_flush_segment`` resolves the footprint in one wide
        cache batch and replays the per-op charges sequentially.  Sync
        ops end the stretch; uninstrumented runs of Activate/WaitPage
        ops (with interleaved phase markers) go to the memory system's
        batch handlers, every other sync op through ``_step``.  While
        service is pending, or a live checker has spans in flight or
        lines watched, ops run through ``_step`` with per-op polls.
        """
        memsys = self.memsys
        memsys.on_run_begin(self)
        ck = _check.CHECKER
        self._tr = tr = _trace.TRACER
        observed = ck is not None or tr is not None
        needs_poll = memsys.needs_poll
        poll = memsys.poll
        pending = memsys.has_pending_service
        step = self._step
        l1d = self.l1d
        access = l1d.access_lines
        small = l1d._SMALL_BATCH
        line = l1d.config.line_bytes
        compute_ns = self.config.cpu.compute_ns
        lines_for_block = O.lines_for_block
        lines_for_stride = O.lines_for_stride
        lines_for_gather = O.lines_for_gather
        Compute = O.Compute
        MemRead = O.MemRead
        MemWrite = O.MemWrite
        StridedRead = O.StridedRead
        StridedWrite = O.StridedWrite
        GatherRead = O.GatherRead
        ScatterWrite = O.ScatterWrite
        Activate = O.Activate
        WaitPage = O.WaitPage
        BeginPhase = O.BeginPhase
        EndPhase = O.EndPhase
        flush = self._flush_segment
        stats = self.stats
        d = stats.__dict__
        stack = stats._phase_stack
        phase_ns = stats.phase_ns
        get = phase_ns.get
        begin_phase = stats.begin_phase
        end_phase = stats.end_phase
        fused = inline = stepped = 0

        it = iter(stream)
        op = next(it, _SENTINEL)
        while op is not _SENTINEL:
            # Per-op stretch: a poll may do work, or the checker may
            # record a violation whose context must be exact.
            while op is not _SENTINEL and (
                (needs_poll and pending()) or (ck is not None and ck.observing())
            ):
                step(op, ck, tr)
                poll(self)
                stepped += 1
                op = next(it, _SENTINEL)

            # Straight-line stretch.  ``tags is None`` while ops are
            # applied as they arrive: the L1D stays in its dict regime
            # (narrow accesses never leave it) and ``n_lines`` counts
            # the stretch's footprint so far.  Once buffering starts it
            # lasts to the sync point, across ``_SEGMENT_MAX_LINES``
            # splits, and ``n_lines`` counts the segment's lines.
            if observed or l1d._scalar_sets is None:
                tags, vals, footprints, writes, counts = [], [], [], [], []
            else:
                tags = None
            n_lines = 0
            now = self.now
            while op is not _SENTINEL:
                t = op.__class__
                if t is Compute:
                    ns = compute_ns(op.ops)
                    if ns < 0:
                        break  # ``_step`` raises once the stretch is done
                    if tags is None:
                        d["compute_ns"] += ns
                        now += ns
                        if stack:
                            p = stack[-1]
                            phase_ns[p] = get(p, 0.0) + ns
                        inline += 1
                    else:
                        tags.append(_ENT_COMPUTE)
                        vals.append(ns)
                    op = next(it, _SENTINEL)
                    continue
                w = True
                if t is MemRead:
                    fp = lines_for_block(op.addr, op.nbytes, line)
                    w = False
                elif t is MemWrite:
                    fp = lines_for_block(op.addr, op.nbytes, line)
                elif t is StridedRead:
                    fp = lines_for_stride(
                        op.addr, op.count, op.stride_bytes, op.elem_bytes, line
                    )
                    w = False
                elif t is StridedWrite:
                    fp = lines_for_stride(
                        op.addr, op.count, op.stride_bytes, op.elem_bytes, line
                    )
                elif t is GatherRead:
                    fp = lines_for_gather(op.addrs, op.elem_bytes, line)
                    w = False
                elif t is ScatterWrite:
                    fp = lines_for_gather(op.addrs, op.elem_bytes, line)
                elif t is BeginPhase:
                    if tags is None:
                        begin_phase(op.name)
                        inline += 1
                    else:
                        tags.append(_ENT_BEGIN)
                        vals.append(op.name)
                    op = next(it, _SENTINEL)
                    continue
                elif t is EndPhase:
                    if tags is None:
                        end_phase(op.name)
                        inline += 1
                    else:
                        tags.append(_ENT_END)
                        vals.append(op.name)
                    op = next(it, _SENTINEL)
                    continue
                else:
                    break  # sync point
                k = len(fp)
                n_lines += k
                if tags is None:
                    if n_lines <= small:
                        ns = access(fp, w)
                        d["mem_ns"] += ns
                        now += ns
                        if stack:
                            p = stack[-1]
                            phase_ns[p] = get(p, 0.0) + ns
                        inline += 1
                        op = next(it, _SENTINEL)
                        continue
                    # Past one small batch: buffer from here on.
                    self.now = now
                    tags, vals, footprints, writes, counts = [], [], [], [], []
                    n_lines = k
                tags.append(_ENT_MEM)
                vals.append(len(footprints))
                footprints.append(fp)
                writes.append(w)
                counts.append(k)
                if n_lines >= _SEGMENT_MAX_LINES:
                    flush(tags, vals, footprints, writes, counts, n_lines, ck, tr)
                    fused += 1
                    tags, vals, footprints, writes, counts = [], [], [], [], []
                    n_lines = 0
                op = next(it, _SENTINEL)
            if tags is None:
                self.now = now
            elif tags:
                flush(tags, vals, footprints, writes, counts, n_lines, ck, tr)
                fused += 1
            if op is _SENTINEL:
                break
            t = op.__class__
            if observed or not (t is Activate or t is WaitPage):
                step(op, ck, tr)
                stepped += 1
                op = next(it, _SENTINEL)
                if needs_poll:
                    poll(self)
                continue
            run_ops = [op]
            op = next(it, _SENTINEL)
            cls = op.__class__
            while cls is t or cls is BeginPhase or cls is EndPhase:
                run_ops.append(op)
                op = next(it, _SENTINEL)
                cls = op.__class__
            if t is Activate:
                done = memsys.handle_activate_batch(run_ops, self)
            else:
                done = memsys.handle_wait_batch(run_ops, self)
            # The poll after the last op consumed; the ones before it
            # had an empty queue to look at.  Pending service stopped
            # the batch early: finish the run per op.
            poll(self)
            while done < len(run_ops):
                step(run_ops[done], ck, tr)
                poll(self)
                stepped += 1
                done += 1
        self.segments_fused += fused
        self.ops_inline += inline
        self.ops_stepped += stepped
        memsys.on_run_end(self)
        self.stats.total_ns = self.now
        return self.stats

    def _flush_segment(
        self,
        tags: list,
        vals: list,
        footprints: list,
        writes: list,
        counts: List[int],
        n_lines: int,
        ck,
        tr,
    ) -> None:
        """Resolve one fused segment and replay its charges in order.

        ``counts`` holds each footprint's line count, ``n_lines`` their
        sum.  Memory latencies come from one wide cache batch; each
        op's total is folded left-to-right over its slice of the
        per-line latency array — the same association order as
        ``_step``'s per-op accumulation, hence bit-identical.  Clock and
        stats updates are then applied sequentially per entry (float
        addition is not associative, so they cannot be collapsed).
        """
        l1d = self.l1d
        if len(footprints) > 1 and n_lines > l1d._SMALL_BATCH:
            lat = l1d.access_lines_batch(footprints, writes, counts)
            mem_totals = _fold_slices(lat, counts)
        else:
            access = l1d.access_lines
            mem_totals = [access(fp, w) for fp, w in zip(footprints, writes)]
        stats = self.stats
        if ck is not None or tr is not None:
            # The per-op observations: ``on_op``'s clock hint, then the
            # charge spans and phase events ``_step`` would emit.
            for tag, val in zip(tags, vals):
                if ck is not None:
                    ck.now = self.now
                if tag == _ENT_COMPUTE:
                    self.charge("compute_ns", val)
                elif tag == _ENT_MEM:
                    self.charge("mem_ns", mem_totals[val])
                elif tag == _ENT_BEGIN:
                    stats.begin_phase(val)
                    if tr is not None:
                        tr.begin("cpu.phase", val, self.now)
                else:
                    stats.end_phase(val)
                    if tr is not None:
                        tr.end("cpu.phase", val, self.now)
            return
        d = stats.__dict__
        stack = stats._phase_stack
        phase_ns = stats.phase_ns
        begin_phase = stats.begin_phase
        end_phase = stats.end_phase
        get = phase_ns.get
        now = self.now
        for tag, val in zip(tags, vals):
            if tag == _ENT_COMPUTE:
                d["compute_ns"] += val
            elif tag == _ENT_MEM:
                val = mem_totals[val]
                d["mem_ns"] += val
            elif tag == _ENT_BEGIN:
                begin_phase(val)
                continue
            else:
                end_phase(val)
                continue
            now += val
            if stack:
                p = stack[-1]
                phase_ns[p] = get(p, 0.0) + val
        self.now = now
