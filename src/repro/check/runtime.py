"""Runtime sanitizer core: detectors, violations, and the global hook.

The paper's Active-Page model rests on correctness invariants the
simulator otherwise trusts silently (Section 2 "Coordination", the
Section 4 coherence discussion):

* processor and page functions must not touch the same page data
  unsynchronized (**race** detector),
* cached copies must not go stale across an activation — dirty lines
  over a page's working set at dispatch, or sync words served from a
  copy fetched before the page completed (**coherence** detector),
* the ``SyncState`` protocol ``IDLE -> ARMED -> RUNNING -> (BLOCKED
  <->) -> DONE`` must be obeyed, with no double activation of a busy
  page and no result reads before ``DONE`` (**protocol** detector),
* the co-simulation must make progress — no event storms at a frozen
  timestamp, no wait-service loops that never advance, no SMP barrier
  deadlock (**watchdog** detector).

Zero overhead when off
----------------------
Checking follows the exact pattern of :mod:`repro.trace.events`: the
module-level :data:`CHECKER` is ``None`` when disabled, and every
instrumented hot path guards with::

    ck = runtime.CHECKER
    if ck is not None:
        ck.on_op(op, self)

so a disabled checker costs one module-attribute load and a ``None``
test per operation (and one per *batch* on the vectorized cache paths).
``benchmarks/test_sim_hotpath.py`` gates that disabled cost at ±5%.

Modes
-----
Default is **warn-and-count**: violations are recorded (bounded by
``max_violations``), tallied per detector, and mirrored onto the
``check`` trace track when a tracer is live.  **Strict** mode raises
:class:`CheckError` at the first violation.

Working spans
-------------
The race detector needs to know which bytes an activation may touch.
A :class:`repro.core.functions.PageTask` can declare explicit
``working_spans`` (absolute ``(vaddr, nbytes)`` pairs); tasks that
declare none default to the activated page's whole data region (the
page minus its sync area), which is the conservative reading of the
paper's "one page's function operates on that page's data".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim import ops as O
from repro.sim.errors import SimulationError
from repro.trace import events as _trace

#: Bytes reserved for sync variables at the top of every Active Page.
#: Mirrors ``repro.core.page.SYNC_BYTES`` (asserted equal in tests);
#: duplicated here because ``repro.core.sync`` imports this module.
SYNC_BYTES = 64

#: Detector identifiers (the ``Violation.detector`` vocabulary).
RACE = "race"
COHERENCE = "coherence"
PROTOCOL = "protocol"
WATCHDOG = "watchdog"

DETECTORS = (RACE, COHERENCE, PROTOCOL, WATCHDOG)

#: ``SyncState`` transitions the protocol permits (as int pairs).
#: IDLE=0, ARMED=1, RUNNING=2, BLOCKED=3, DONE=4 — see
#: ``repro.core.sync.SyncState``.  Any state may reset to IDLE.
_STATE_NAMES = ("IDLE", "ARMED", "RUNNING", "BLOCKED", "DONE")
_ALLOWED_TRANSITIONS = frozenset(
    [(0, 1), (4, 1), (1, 2), (2, 3), (3, 2), (2, 4), (3, 4)]
    + [(s, 0) for s in range(5)]
)
_DONE = 4


class CheckError(SimulationError):
    """A sanitizer violation in strict mode."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation, with structured context."""

    detector: str  # "race" | "coherence" | "protocol" | "watchdog"
    message: str
    page: Optional[int] = None
    addr_lo: Optional[int] = None
    addr_hi: Optional[int] = None  # exclusive
    time_ns: float = 0.0
    op: str = ""  # originating operation / hook, e.g. "MemWrite"
    app: str = ""  # application under check, when known

    def render(self) -> str:
        """One human-readable report line."""
        parts = [f"[{self.detector}]", self.message]
        ctx = []
        if self.app:
            ctx.append(f"app={self.app}")
        if self.page is not None:
            ctx.append(f"page={self.page}")
        if self.addr_lo is not None and self.addr_hi is not None:
            ctx.append(f"addr=0x{self.addr_lo:x}..0x{self.addr_hi:x}")
        if self.op:
            ctx.append(f"op={self.op}")
        ctx.append(f"t={self.time_ns:.1f}ns")
        return " ".join(parts) + " (" + ", ".join(ctx) + ")"


class Checker:
    """Shadow state and detectors behind the :data:`CHECKER` hook.

    All hook methods are cheap relative to an *enabled* sanitizer's
    budget; the disabled cost is the ``CHECKER is None`` guard at each
    instrumentation site, and nothing here.
    """

    __slots__ = (
        "strict",
        "app",
        "max_violations",
        "wait_spin_limit",
        "livelock_limit",
        "violations",
        "counts",
        "dropped",
        "now",
        "_page_bytes",
        "_inflight",
        "_syncing",
        "_stale_watch",
        "_engine_last_now",
        "_engine_same",
        "_wait_last_now",
        "_wait_spins",
        "_computing_pages",
    )

    def __init__(
        self,
        strict: bool = False,
        app: str = "",
        page_bytes: Optional[int] = None,
        max_violations: int = 1000,
        wait_spin_limit: int = 10_000,
        livelock_limit: int = 100_000,
    ) -> None:
        self.strict = strict
        self.app = app
        self.max_violations = max_violations
        self.wait_spin_limit = wait_spin_limit
        self.livelock_limit = livelock_limit
        self.violations: List[Violation] = []
        self.counts: Dict[str, int] = {d: 0 for d in DETECTORS}
        #: violations beyond ``max_violations`` are counted, not stored.
        self.dropped: int = 0
        #: clock hint (simulated ns) for hooks without a processor.
        self.now: float = 0.0
        self._page_bytes = page_bytes
        #: page_no -> tuple of (vaddr, nbytes) working spans in flight.
        self._inflight: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        #: page most recently entered via WaitPage (replay target).
        self._syncing: Optional[int] = None
        #: sync-area line -> page: resident when the page dispatched.
        self._stale_watch: Dict[int, int] = {}
        self._engine_last_now: float = -1.0
        self._engine_same: int = 0
        self._wait_last_now: float = -1.0
        self._wait_spins: int = 0
        #: pager pages between begin_computation and end_computation.
        self._computing_pages: set = set()

    # ------------------------------------------------------------------
    # Recording

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def record(self, violation: Violation) -> None:
        """Count (and in strict mode raise) one violation."""
        self.counts[violation.detector] += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.dropped += 1
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(
                "check",
                violation.detector,
                violation.time_ns,
                message=violation.message,
                page=violation.page,
                op=violation.op or None,
            )
        if self.strict:
            raise CheckError(violation.render())

    def _violate(self, detector: str, message: str, **ctx) -> None:
        ctx.setdefault("time_ns", self.now)
        ctx.setdefault("app", self.app)
        self.record(Violation(detector, message, **ctx))

    def report(self) -> str:
        """Human-readable summary of everything recorded."""
        lines = [
            "check: "
            + ", ".join(f"{d}={self.counts[d]}" for d in DETECTORS)
            + f" (total {self.total})"
        ]
        for v in self.violations:
            lines.append("  " + v.render())
        if self.dropped:
            lines.append(f"  ... {self.dropped} further violation(s) not stored")
        return "\n".join(lines)

    def observing(self) -> bool:
        """Whether per-op hooks can record a violation right now.

        While no working span is in flight and no sync line is
        watched, ``on_op`` only moves the clock hint for memory and
        compute ops and ``on_cache_batch`` has nothing to resolve, so
        the processor may fuse those ops and set :attr:`now` itself as
        it replays them (code running inside the op stream's generator
        meanwhile sees the hint of the last op replayed).
        """
        return bool(self._inflight or self._stale_watch)

    # ------------------------------------------------------------------
    # Processor-op hook (top of ``Processor._step``)

    def on_op(self, op: O.Op, proc) -> None:
        """Observe one processor operation before it executes."""
        self.now = proc.now
        if isinstance(op, (O.MemRead, O.StridedRead, O.GatherRead)):
            if self._inflight:
                self._check_mem(op, proc, write=False)
        elif isinstance(op, (O.MemWrite, O.StridedWrite, O.ScatterWrite)):
            if self._inflight:
                self._check_mem(op, proc, write=True)
        elif isinstance(op, O.Activate):
            self._on_activate(op, proc)
        elif isinstance(op, O.WaitPage):
            # WaitPage is the happens-before edge: once the processor
            # commits to waiting, the page's spans are released to it.
            self._inflight.pop(op.page_no, None)
            self._syncing = op.page_no
            self._wait_last_now = -1.0
            self._wait_spins = 0

    # -- race detector --------------------------------------------------

    def _check_mem(self, op: O.Op, proc, write: bool) -> None:
        """Flag processor accesses overlapping in-flight working spans."""
        if isinstance(op, (O.MemRead, O.MemWrite)):
            ranges: Iterator[Tuple[int, int]] = iter(((op.addr, op.nbytes),))
        elif isinstance(op, (O.GatherRead, O.ScatterWrite)):
            eb = op.elem_bytes
            ranges = iter((a, eb) for a in op.addrs)
        else:  # strided: test the envelope first, elements only if hot
            env_lo = op.addr
            env_n = (op.count - 1) * op.stride_bytes + op.elem_bytes
            if self._find_overlap(env_lo, env_n) is None:
                return
            eb = op.elem_bytes
            ranges = iter(
                (op.addr + k * op.stride_bytes, eb) for k in range(op.count)
            )
        for lo, nbytes in ranges:
            hit = self._find_overlap(lo, nbytes)
            if hit is not None:
                page, span = hit
                kind = "write" if write else "read"
                self._violate(
                    RACE,
                    f"unsynchronized {kind} overlaps the working span "
                    f"0x{span[0]:x}+{span[1]} of in-flight page {page}",
                    page=page,
                    addr_lo=lo,
                    addr_hi=lo + nbytes,
                    op=type(op).__name__,
                )
                return  # one violation per op; avoid per-element spam

    def _find_overlap(
        self, lo: int, nbytes: int
    ) -> Optional[Tuple[int, Tuple[int, int]]]:
        """First in-flight working span overlapping ``[lo, lo+nbytes)``."""
        if nbytes <= 0:
            return None
        inflight = self._inflight
        hi = lo + nbytes
        pb = self._page_bytes
        if pb:
            p0, p1 = lo // pb, (hi - 1) // pb
            if p1 - p0 + 1 <= len(inflight):
                for p in range(p0, p1 + 1):
                    spans = inflight.get(p)
                    if spans:
                        for span in spans:
                            if lo < span[0] + span[1] and span[0] < hi:
                                return p, span
                return None
        for p, spans in inflight.items():
            for span in spans:
                if lo < span[0] + span[1] and span[0] < hi:
                    return p, span
        return None

    # -- dispatch-time checks -------------------------------------------

    def _discover_page_bytes(self, proc) -> Optional[int]:
        pb = self._page_bytes
        if pb is None:
            config = getattr(proc.memsys, "config", None)
            pb = getattr(config, "page_bytes", None)
            if pb is not None:
                self._page_bytes = pb
        return pb

    def _on_activate(self, op: O.Activate, proc) -> None:
        page = op.page_no
        if page in self._inflight:
            self._violate(
                PROTOCOL,
                f"page {page} activated while a previous activation "
                f"is still in flight (no WaitPage between them)",
                page=page,
                op="Activate",
            )
        pb = self._discover_page_bytes(proc)
        spans = getattr(op.task, "working_spans", None)
        if spans:
            spans = tuple((int(lo), int(n)) for lo, n in spans)
        elif pb is not None:
            spans = ((page * pb, pb - SYNC_BYTES),)
        else:
            spans = ()
        if pb is not None:
            self._check_dispatch_coherence(page, spans, proc)
            self._watch_sync_lines(page, pb, proc)
        self._inflight[page] = spans

    def _check_dispatch_coherence(self, page, spans, proc) -> None:
        """Dirty cached lines over the working spans mean the page
        would compute on stale DRAM data (paper Section 4)."""
        line_bytes = proc.l1d.config.line_bytes
        for lo, nbytes in spans:
            if nbytes <= 0:
                continue
            lo_line = lo // line_bytes
            hi_line = (lo + nbytes - 1) // line_bytes
            level = proc.l1d
            while level is not None:
                dirty = level.dirty_lines_in(lo_line, hi_line)
                if dirty:
                    self._violate(
                        COHERENCE,
                        f"{len(dirty)} dirty {level.name} line(s) overlap "
                        f"page {page}'s working span at dispatch "
                        f"(unflushed processor writes)",
                        page=page,
                        addr_lo=dirty[0] * line_bytes,
                        addr_hi=(dirty[-1] + 1) * line_bytes,
                        op="Activate",
                    )
                    return  # one violation per activation
                level = level.next_level

    def _watch_sync_lines(self, page: int, pb: int, proc) -> None:
        """Snapshot sync-area lines resident at dispatch: a later read
        served from such a copy predates the page's DONE write."""
        line_bytes = proc.l1d.config.line_bytes
        sync_lo = page * pb + pb - SYNC_BYTES
        lo_line = sync_lo // line_bytes
        hi_line = (page * pb + pb - 1) // line_bytes
        for ln in range(lo_line, hi_line + 1):
            level = proc.l1d
            while level is not None:
                if level.contains(ln):
                    self._stale_watch[ln] = page
                    break
                level = level.next_level

    # ------------------------------------------------------------------
    # Cache batch hook (top of ``Cache.access_lines``)

    def on_cache_batch(self, cache, addrs, write: bool) -> None:
        """Resolve stale-sync watches against one access batch.

        Called with the batch's line-address array *before* the batch
        resolves, so residency reflects what the access would hit.
        """
        watch = self._stale_watch
        if not watch:
            return
        for ln in list(watch):
            if ln not in addrs:
                continue
            page = watch.pop(ln)
            level = cache
            resident = False
            while level is not None:
                if level.contains(ln):
                    resident = True
                    break
                level = level.next_level
            if resident and not write:
                line_bytes = cache.config.line_bytes
                self._violate(
                    COHERENCE,
                    f"read of page {page}'s sync words hit a cached copy "
                    f"fetched before the activation completed (stale "
                    f"{level.name} line)",
                    page=page,
                    addr_lo=ln * line_bytes,
                    addr_hi=(ln + 1) * line_bytes,
                    op="cache.access_lines",
                )
            # A miss refetches fresh data; a write overwrites the copy.
            # Either way the watch is spent.

    # ------------------------------------------------------------------
    # Sync-protocol hooks (``repro.core.sync.SyncArea``)

    def on_sync_transition(
        self, old: int, new: int, owner: Optional[int]
    ) -> None:
        """Validate one status-word transition."""
        if old == new:
            if old == 1:  # ARMED -> ARMED: a second activation landed
                self._violate(
                    PROTOCOL,
                    "page re-armed while already ARMED (double activation)",
                    page=owner,
                    op="SyncArea.status",
                )
            return
        if (old, new) not in _ALLOWED_TRANSITIONS:
            o = _STATE_NAMES[old] if 0 <= old < 5 else str(old)
            n = _STATE_NAMES[new] if 0 <= new < 5 else str(new)
            self._violate(
                PROTOCOL,
                f"invalid SyncState transition {o} -> {n}",
                page=owner,
                op="SyncArea.status",
            )

    def on_result_read(self, status: int, owner: Optional[int]) -> None:
        """Result words read while the status word is not DONE."""
        if status != _DONE:
            name = _STATE_NAMES[status] if 0 <= status < 5 else str(status)
            self._violate(
                PROTOCOL,
                f"result words read while page status is {name}, not DONE",
                page=owner,
                op="SyncArea.read_results",
            )

    # ------------------------------------------------------------------
    # Faults-controller integration (``repro.radram.system``)

    def on_replay(self, page_no: int, proc) -> None:
        """A fault replay must restart a page that was actually running."""
        if page_no in self._inflight or page_no == self._syncing:
            return
        self._violate(
            PROTOCOL,
            f"fault replay restarted page {page_no} with no activation "
            f"in flight",
            page=page_no,
            time_ns=proc.now,
            op="replay",
        )

    def on_degraded(self, page_no: int, proc) -> None:
        """Degraded execution completes synchronously on the processor,
        so the page's spans are released immediately."""
        self._inflight.pop(page_no, None)

    # ------------------------------------------------------------------
    # Watchdog hooks

    def on_engine_event(self, when: float) -> None:
        """Count consecutive engine events with a frozen clock."""
        if when == self._engine_last_now:
            self._engine_same += 1
            if self._engine_same >= self.livelock_limit:
                self._engine_same = 0
                self._violate(
                    WATCHDOG,
                    f"engine dispatched {self.livelock_limit} consecutive "
                    f"events with no time advance (livelock?)",
                    time_ns=when,
                    op="Engine.step",
                )
        else:
            self._engine_last_now = when
            self._engine_same = 0

    def on_wait_iteration(self, page_no: int, proc) -> None:
        """Count wait-service iterations that fail to advance time."""
        if proc.now == self._wait_last_now:
            self._wait_spins += 1
            if self._wait_spins >= self.wait_spin_limit:
                self._wait_spins = 0
                self._violate(
                    WATCHDOG,
                    f"WaitPage({page_no}) serviced {self.wait_spin_limit} "
                    f"times without the clock advancing (page stuck "
                    f"blocked?)",
                    page=page_no,
                    time_ns=proc.now,
                    op="WaitPage",
                )
        else:
            self._wait_last_now = proc.now
            self._wait_spins = 0

    def on_smp_deadlock(self, message: str, time_ns: float) -> None:
        """Record the SMP barrier deadlock diagnosis as a violation."""
        self._violate(WATCHDOG, message, time_ns=time_ns, op="SMPMachine.run")

    # ------------------------------------------------------------------
    # Pager hooks (``repro.os.paging``)

    def on_begin_computation(self, page_id: int, already: bool) -> None:
        if already:
            self._violate(
                PROTOCOL,
                f"begin_computation on page {page_id} which is already "
                f"computing",
                page=page_id,
                op="Pager.begin_computation",
            )
        self._computing_pages.add(page_id)

    def on_end_computation(self, page_id: int, was_computing: bool) -> None:
        if not was_computing:
            self._violate(
                PROTOCOL,
                f"end_computation on page {page_id} with no computation "
                f"in flight",
                page=page_id,
                op="Pager.end_computation",
            )
        self._computing_pages.discard(page_id)

    def on_victim_exhaustion(self, n_frames: int, computing) -> None:
        self._violate(
            WATCHDOG,
            f"pager cannot evict: all {n_frames} resident frames hold "
            f"computing pages {sorted(computing)[:8]}",
            op="Pager._pick_victim",
        )


#: The process-wide checker; ``None`` means checking is disabled and
#: every instrumentation site reduces to a load-and-test no-op.
CHECKER: Optional[Checker] = None


def enable(strict: bool = False, **kwargs) -> Checker:
    """Install (and return) a fresh process-wide checker."""
    global CHECKER
    CHECKER = Checker(strict=strict, **kwargs)
    return CHECKER


def disable() -> Optional[Checker]:
    """Disable checking; returns the checker that was active, if any."""
    global CHECKER
    previous, CHECKER = CHECKER, None
    return previous


def is_enabled() -> bool:
    return CHECKER is not None


@contextmanager
def checking(strict: bool = False, **kwargs) -> Iterator[Checker]:
    """Enable checking for a ``with`` block, restoring the prior state.

    >>> with checking(strict=True) as ck:
    ...     machine.run(stream)
    >>> assert ck.total == 0
    """
    global CHECKER
    previous = CHECKER
    checker = Checker(strict=strict, **kwargs)
    CHECKER = checker
    try:
        yield checker
    finally:
        CHECKER = previous
