"""The timed RADram memory system.

``RADramMemorySystem`` plugs into :class:`repro.sim.machine.Machine`
and co-simulates Active-Page execution against the processor:

* :class:`repro.sim.ops.Activate` charges the dispatch cost
  (:func:`repro.radram.dispatch.activation_ns`) and starts the page's
  :class:`repro.radram.subarray.PageExecution` at the current time.
  Pages then run *in parallel* with the processor.
* :class:`repro.sim.ops.WaitPage` stalls the processor until the page
  completes — stall time is the paper's processor-memory non-overlap.
  If the page is blocked on an inter-page reference, the processor
  services it (and any other pending requests, batched) before
  continuing to wait.
* Between ops the system is polled, so interrupts raised while the
  processor is computing get serviced at instruction granularity.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.faults.controller import FaultController
from repro.radram.config import RADramConfig
from repro.radram.dispatch import activation_ns, descriptor_bytes
from repro.radram.interpage import service_ns
from repro.radram.subarray import PageExecution, Subarray
from repro.check import runtime as _check
from repro.sim import ops as O
from repro.sim.errors import FaultError, OperationError
from repro.sim.processor import MemorySystemBase, Processor
from repro.trace import events as _trace
from repro.trace.events import Event


class RADramMemorySystem(MemorySystemBase):
    """RADram behind the caches: DRAM subarrays with active logic."""

    # Blocked inter-page references are serviced at instruction
    # granularity, so the processor must poll between ops.
    needs_poll = True

    def has_pending_service(self) -> bool:
        """While no page is queued for service, ``poll`` is a no-op.

        This is the invariant the processor's executor relies on to skip
        per-op polls inside a straight-line segment: ``_blocked`` only
        ever grows inside the Activate/WaitPage/ServicePending
        handlers, which are segment boundaries.
        """
        return bool(self._blocked)

    def __init__(self, config: Optional[RADramConfig] = None) -> None:
        self.config = config or RADramConfig.reference()
        self.subarrays: Dict[int, Subarray] = {}
        self.machine = None  # set by Machine via attach()
        # Min-heap of (block_time_ns, page_no) for pages awaiting service.
        self._blocked: List[Tuple[float, int]] = []
        self.comm_bytes: int = 0
        self.comm_requests: int = 0
        self.interchip_requests: int = 0
        # Page intervals already flushed to a tracer (page_no -> count).
        self._trace_flushed: Dict[int, int] = {}
        # Fault injection/tolerance (None on a perfect machine — every
        # handler below guards on it, so the fault-free hot path pays
        # one attribute test per activation and nothing per cycle).
        self.faults: Optional[FaultController] = None
        if self.config.faults is not None:
            self.faults = FaultController(self.config.faults, self.config)

    # ------------------------------------------------------------------
    # Machine wiring

    def attach(self, machine) -> None:
        """Called by :class:`repro.sim.machine.Machine` at build time."""
        self.machine = machine

    def reset(self) -> None:
        """Forget all page executions (machine.reset_timing)."""
        self.subarrays.clear()
        self._blocked.clear()
        self.comm_bytes = 0
        self.comm_requests = 0
        self.interchip_requests = 0
        self._trace_flushed.clear()
        if self.config.faults is not None:
            # Fresh controller: identical fault history every run.
            self.faults = FaultController(self.config.faults, self.config)

    def subarray(self, page_no: int) -> Subarray:
        sub = self.subarrays.get(page_no)
        if sub is None:
            sub = Subarray(page_no, self.config)
            self.subarrays[page_no] = sub
        return sub

    # ------------------------------------------------------------------
    # Operation handlers

    def handle_activate(self, op: O.Activate, proc: Processor) -> None:
        if op.task is None:
            raise OperationError("Activate op carries no page task")
        cost = activation_ns(
            op.descriptor_words,
            self.config,
            self.machine.config.dram,
            self.machine.config.bus,
            trace_ts=proc.now,
        )
        proc.stats.activations += 1
        proc.charge("activation_ns", cost)
        nbytes = 4 * op.descriptor_words
        self.machine.bus.transfer(nbytes)
        if self.faults is not None:
            retry = self.faults.transfer_retry_ns(nbytes, self.machine.bus, proc.now)
            if retry:
                proc.charge("activation_ns", retry)
            sub = self.subarray(op.page_no)
            try:
                healthy = self.faults.on_activate(op.page_no, sub.logic, proc)
            except FaultError:
                healthy = False
            if not healthy:
                self._run_degraded(op.page_no, op.task, proc)
                return
        execution = self.subarray(op.page_no).start(op.task, proc.now)
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(
                f"page/{op.page_no}",
                "activate",
                proc.now,
                words=op.descriptor_words,
            )
        if execution.is_blocked:
            self._note_blocked(execution, op.page_no)

    def handle_activate_batch(self, ops, proc: Processor) -> int:
        """Dispatch a run of Activates (+ phase markers) without the
        per-op interpreter overhead.

        The processor calls this only with tracer and sanitizer off;
        with a fault controller attached every op goes to
        :meth:`handle_activate`, which carries the fault hooks.
        Otherwise the per-activation work reduces to the dispatch-cost
        formula, the stats/clock charges and the subarray start.  The
        cost expression reuses the exact integer/float operation order
        of :func:`repro.radram.dispatch.activation_ns`, so charges are
        bit-identical to the per-op path.  Stops (returning the count
        consumed) as soon as an activation blocks on a
        processor-mediated reference, handing control back to the
        processor's per-op loop.
        """
        if self.faults is not None:
            return super().handle_activate_batch(ops, proc)
        mconfig = self.machine.config
        per_word = mconfig.dram.miss_latency_ns + mconfig.bus.transfer_ns(4)
        base = self.config.activation_base_ns
        bus = self.machine.bus
        config = self.config
        subarrays = self.subarrays
        stats = proc.stats
        sd = stats.__dict__
        stack = stats._phase_stack
        phase_ns = stats.phase_ns
        blocked = self._blocked
        Activate = O.Activate
        BeginPhase = O.BeginPhase
        # Streams overwhelmingly reuse one descriptor size: memoize the
        # (nbytes, cost, bus duration) triple for the last size seen.
        memo_words = None
        nbytes = 0
        cost = 0.0
        bus_ns = 0.0
        transfer_ns = self.machine.config.bus.transfer_ns
        consumed = 0
        for op in ops:
            cls = op.__class__
            if cls is Activate:
                if op.task is None:
                    raise OperationError("Activate op carries no page task")
                words = op.descriptor_words
                if words != memo_words:
                    nbytes = descriptor_bytes(words)  # validates >= 0
                    cost = base + (nbytes // 4) * per_word
                    if cost < 0:
                        raise OperationError("cannot charge negative time")
                    bus_ns = transfer_ns(nbytes) if nbytes > 0 else 0.0
                    memo_words = words
                stats.activations += 1
                proc.now = now = proc.now + cost
                sd["activation_ns"] += cost
                if stack:
                    p = stack[-1]
                    phase_ns[p] = phase_ns.get(p, 0.0) + cost
                if nbytes > 0:
                    # Inline Bus.transfer (tracer is off by precondition);
                    # the busy accumulation stays sequential, so counters
                    # match the per-op path bit-for-bit.
                    bus.bytes_transferred += nbytes
                    bus.busy_ns += bus_ns
                    bus.transfers += 1
                sub = subarrays.get(op.page_no)
                if sub is None:
                    sub = Subarray(op.page_no, config)
                    subarrays[op.page_no] = sub
                execution = sub.start(op.task, now)
                consumed += 1
                if execution.blocked_on is not None:
                    self._note_blocked(execution, op.page_no)
                    if blocked:
                        return consumed
                continue
            if cls is BeginPhase:
                stats.begin_phase(op.name)
            else:
                stats.end_phase(op.name)
            consumed += 1
        return consumed

    def handle_wait_batch(self, ops, proc: Processor) -> int:
        """Retire a run of WaitPage ops (+ phase markers).

        Preconditions and the fault hand-off as for
        :meth:`handle_activate_batch`.  A page that ran to completion
        unblocked — the common case — needs only the completion-time
        stall; anything blocked goes through :meth:`handle_wait`, and
        the batch stops once service work is left pending.
        """
        if self.faults is not None:
            return super().handle_wait_batch(ops, proc)
        subarrays = self.subarrays
        stats = proc.stats
        sd = stats.__dict__
        stack = stats._phase_stack
        phase_ns = stats.phase_ns
        phase_wait_ns = stats.phase_wait_ns
        blocked = self._blocked
        WaitPage = O.WaitPage
        consumed = 0
        for op in ops:
            cls = op.__class__
            if cls is WaitPage:
                sub = subarrays.get(op.page_no)
                consumed += 1
                if sub is None or sub.current is None:
                    continue  # nothing outstanding on this page
                execution = sub.current
                if execution.blocked_on is None and not execution._segments:
                    # Inline stall_until(completion_ns): one wait
                    # charge, with its phase attribution.
                    when = execution.t_ns
                    now = proc.now
                    if when > now:
                        stats.waits += 1
                        delta = when - now
                        # charge() folds as ``start + ns`` — and
                        # ``now + (when - now) != when`` in floats, so
                        # assigning ``when`` directly drifts by an ulp.
                        proc.now = now + delta
                        sd["wait_ns"] += delta
                        if stack:
                            p = stack[-1]
                            phase_ns[p] = phase_ns.get(p, 0.0) + delta
                            phase_wait_ns[p] = (
                                phase_wait_ns.get(p, 0.0) + delta
                            )
                else:
                    self.handle_wait(op, proc)
                    if blocked:
                        return consumed
                continue
            if cls is O.BeginPhase:
                stats.begin_phase(op.name)
            else:
                stats.end_phase(op.name)
            consumed += 1
        return consumed

    def _note_blocked(self, execution, page_no: int) -> None:
        """Route a blocked page to its comm mechanism.

        Processor-mediated: queue for interrupt service.  Hardware:
        the in-chip network satisfies the reference immediately after
        a hop plus port-rate transfer — no processor involvement.
        """
        if self.config.comm_mechanism == "hardware":
            page_bytes = self.config.page_bytes
            while execution.is_blocked:
                request = execution.blocked_on
                self.comm_requests += 1
                self.comm_bytes += request.nbytes
                tr = _trace.TRACER
                if tr is not None:
                    tr.instant(
                        f"page/{page_no}",
                        "hwcomm",
                        execution.block_time_ns,
                        bytes=request.nbytes,
                    )
                if request.nbytes > 0 and request.src_vaddr != request.dst_vaddr:
                    self._functional_copy(request)
                transfer = self.config.hw_hop_ns + (
                    request.nbytes / self.config.port_bytes
                ) * self.config.logic_cycle_ns
                # References crossing chip boundaries pay the
                # inter-chip hop (Section 10's inter-chip question;
                # this is why the OS co-locates groups).
                if request.src_vaddr or request.dst_vaddr:
                    src_chip = self.config.chip_of(request.src_vaddr // page_bytes)
                    dst_chip = self.config.chip_of(request.dst_vaddr // page_bytes)
                    if src_chip != dst_chip:
                        transfer += self.config.interchip_hop_ns
                        self.interchip_requests += 1
                execution.resume(execution.block_time_ns + transfer)
        else:
            heapq.heappush(self._blocked, (execution.block_time_ns, page_no))

    def _run_degraded(self, page_no: int, task, proc: Processor) -> None:
        """Execute the activation's work on the processor instead.

        Graceful degradation: a page whose repair budget is exhausted
        still holds data, so its computation falls back to the
        processor at conventional speed — no page parallelism, no
        overlap, which is exactly the slowdown the faults experiment
        measures.  Functional copies still happen so results stay
        correct.
        """
        proc.charge("compute_ns", self.machine.config.cpu.compute_ns(task.total_cycles))
        if self.faults is not None:
            self.faults.counters["degraded_activations"] += 1
        for request in task.comm_requests:
            if request.nbytes > 0 and request.src_vaddr != request.dst_vaddr:
                self._functional_copy(request)
        ck = _check.CHECKER
        if ck is not None:
            # The degraded run completed synchronously: release the
            # page's working spans for the race detector.
            ck.on_degraded(page_no, proc)
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(f"page/{page_no}", "degraded", proc.now)

    def _drop_blocked(self, page_no: int) -> None:
        """Purge a page's stale entries from the blocked queue."""
        kept = [(when, p) for when, p in self._blocked if p != page_no]
        if len(kept) != len(self._blocked):
            self._blocked = kept
            heapq.heapify(self._blocked)

    def handle_wait(self, op: O.WaitPage, proc: Processor) -> None:
        sub = self.subarrays.get(op.page_no)
        if sub is None or sub.current is None:
            return  # nothing outstanding on this page
        # In-flight faults strike while the activation runs in wall
        # time; the lazily-advanced execution may already be "done"
        # in simulated terms, but the processor only discovers the
        # page's fate on arrival at the wait.
        if self.faults is not None:
            try:
                replay = self.faults.on_wait(op.page_no, proc)
            except FaultError:
                # The in-flight fault degraded the page: abandon the
                # execution and redo its work on the processor.
                task = sub.last_task
                sub.abort()
                self._drop_blocked(op.page_no)
                if task is not None:
                    self._run_degraded(op.page_no, task, proc)
                return
            if replay:
                ck = _check.CHECKER
                if ck is not None:
                    ck.on_replay(op.page_no, proc)
                self._drop_blocked(op.page_no)
                execution = sub.restart(proc.now)
                if execution.is_blocked:
                    self._note_blocked(execution, op.page_no)
        execution = sub.current
        ck = _check.CHECKER
        while not execution.is_done:
            if execution.is_blocked:
                # Wait for the interrupt, then service everything pending.
                proc.stall_until(execution.block_time_ns)
                if ck is not None:
                    ck.on_wait_iteration(op.page_no, proc)
                self._service_pending(proc, force_page=op.page_no)
            else:
                break
        proc.stall_until(execution.completion_ns)
        if self.faults is not None:
            self.faults.on_complete(op.page_no)

    def handle_service(self, proc: Processor) -> None:
        self._service_pending(proc)

    def poll(self, proc: Processor) -> None:
        if self._blocked and self._blocked[0][0] <= proc.now:
            self._service_pending(proc)

    # ------------------------------------------------------------------
    # Inter-page request service

    def _service_pending(self, proc: Processor, force_page: Optional[int] = None) -> None:
        """Service all requests raised by time ``proc.now`` (batched).

        ``force_page`` additionally services that page even if its
        request is nominally in the processor's future (the processor
        has already stalled up to the raise time in ``handle_wait``).
        """
        batch: List[int] = []
        requeue: List[Tuple[float, int]] = []
        while self._blocked:
            when, page_no = self._blocked[0]
            if when <= proc.now or page_no == force_page:
                heapq.heappop(self._blocked)
                batch.append(page_no)
            else:
                break
        if force_page is not None and force_page not in batch:
            # The forced page may sit behind later-blocking pages.
            remaining = []
            for when, page_no in self._blocked:
                if page_no == force_page:
                    batch.append(page_no)
                else:
                    remaining.append((when, page_no))
            if len(batch) and remaining != self._blocked:
                self._blocked = remaining
                heapq.heapify(self._blocked)

        first = True
        for page_no in batch:
            execution = self.subarrays[page_no].current
            if execution is None or not execution.is_blocked:
                continue
            request = execution.blocked_on
            cost = service_ns(
                request,
                self.config,
                self.machine.config.dram,
                self.machine.config.bus,
                batched=self.config.batch_interrupts and not first,
            )
            first = False
            proc.stats.interrupts += 1
            self.comm_requests += 1
            self.comm_bytes += request.nbytes
            tr = _trace.TRACER
            if tr is not None:
                tr.instant(
                    f"page/{page_no}",
                    "interpage",
                    proc.now,
                    bytes=request.nbytes,
                )
                tr.counter("radram", "comm_bytes", proc.now, self.comm_bytes)
            proc.charge("interrupt_ns", cost)
            service_bytes = 2 * request.nbytes
            self.machine.bus.transfer(service_bytes)
            if self.faults is not None:
                retry = self.faults.transfer_retry_ns(
                    service_bytes, self.machine.bus, proc.now
                )
                if retry:
                    proc.charge("interrupt_ns", retry)
            if request.nbytes > 0 and request.src_vaddr != request.dst_vaddr:
                self._functional_copy(request)
            execution.resume(proc.now)
            if execution.is_blocked:
                self._note_blocked(execution, page_no)

    def _functional_copy(self, request) -> None:
        """Perform the request's copy on the functional memory."""
        memory = self.machine.memory
        try:
            memory.region_of(request.src_vaddr)
            memory.region_of(request.dst_vaddr)
        except Exception:
            return  # timing-only request with no functional payload
        memory.copy(request.src_vaddr, request.dst_vaddr, request.nbytes)

    # ------------------------------------------------------------------
    # Tracing

    def on_run_end(self, proc: Processor) -> None:
        """Flush page activation spans into the active tracer, if any.

        Page executions advance lazily against the processor clock, so
        their (start, end) spans are only final once the op stream is
        drained; emitting here keeps the per-op hot path untouched.
        """
        tr = _trace.TRACER
        if tr is not None:
            for event in self.page_trace_events(new_only=True):
                tr.emit(event)
            self._trace_flushed = {
                page_no: len(sub.intervals())
                for page_no, sub in self.subarrays.items()
            }

    def page_trace_events(self, new_only: bool = False) -> List[Event]:
        """Completed activations as ``"X"`` events on ``page/<n>`` tracks.

        This is the canonical event form of the per-subarray interval
        history — the Gantt renderer and the Figure 6 experiment consume
        these events rather than reaching into subarray state.
        ``new_only`` skips intervals already flushed to a tracer by a
        previous :meth:`on_run_end` (repeat runs stay duplicate-free).
        """
        flushed = self._trace_flushed if new_only else {}
        out: List[Event] = []
        for page_no, sub in sorted(self.subarrays.items()):
            intervals = sub.intervals()
            for start, end in intervals[flushed.get(page_no, 0):]:
                out.append(
                    Event(
                        "X",
                        start,
                        end - start,
                        f"page/{page_no}",
                        "compute",
                        None,
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Introspection

    def page_busy_ns(self, page_no: int) -> float:
        sub = self.subarrays.get(page_no)
        if sub is None:
            return 0.0
        busy = sub.total_busy_ns
        if sub.current is not None:
            busy += sub.current.busy_ns
        return busy

    @property
    def total_activations(self) -> int:
        return sum(s.activations for s in self.subarrays.values())

    def fault_counters(self) -> Dict[str, float]:
        """Fault/repair counters (empty on a fault-free machine)."""
        return {} if self.faults is None else self.faults.counters_dict()
