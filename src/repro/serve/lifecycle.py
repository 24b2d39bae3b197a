"""Job lifecycle for the sweep server: admit, queue, run, retire, recover.

* :class:`FairQueue` — weighted fair queuing over per-tenant FIFOs.
* :class:`Job` — one admitted unit of work: its journal, its sequence
  numbers and the event buffer every subscriber replays and tails.
* :class:`JobLifecycle` — every job one server knows.  It admits new
  jobs, dispatches at most ``concurrency`` of them onto worker threads
  that run the ordinary harness path, and retires them.  It also
  re-opens incomplete journals as queued jobs: its own at boot, a dead
  peer's after fencing it (:class:`repro.serve.cluster.Shard`), and
  one a resume asks for.

The HTTP front-end, :class:`repro.serve.server.SweepServer`, admits and
attaches to jobs through :class:`JobLifecycle` and never touches a
journal itself.
"""

from __future__ import annotations

import asyncio
import functools
import os
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Iterator, List, NamedTuple,
    Optional, Tuple,
)

from repro.experiments import harness
from repro.faults import chaos
from repro.serve import journal as journal_mod
from repro.serve import protocol
from repro.serve.cluster import Standalone
from repro.serve.journal import FencedError, JournalError, JournalStore
from repro.serve.scheduler import SingleFlight
from repro.trace.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.serve.server import ServeConfig

#: Completed jobs kept addressable in memory for status/resume before
#: falling back to their on-disk journals.
FINISHED_JOBS_RETAINED = 256


class Recoverable(NamedTuple):
    """One incomplete journal that can be re-run."""

    job_id: str
    summary: Dict[str, object]
    request: protocol.SubmitRequest
    key: str


class FairQueue:
    """Weighted fair queuing over per-tenant FIFOs (stride scheduling).

    Each tenant lane carries a virtual time; :meth:`pop` always drains
    the lane with the smallest ``(vtime, tenant)`` and advances it by
    ``1 / weight``, so relative throughput under contention is
    proportional to weight.  A lane going idle is clamped forward to
    the global virtual clock on its next push — returning tenants
    cannot claim credit for the time they were absent.

    Deterministic and synchronous; the server only touches it from the
    event-loop thread.
    """

    def __init__(
        self,
        weights: Optional[Dict[str, float]] = None,
        default_weight: float = 1.0,
    ) -> None:
        self._weights = dict(weights or {})
        self._default = default_weight
        self._queues: Dict[str, Deque[object]] = {}
        self._vtimes: Dict[str, float] = {}
        self._vclock = 0.0

    def weight(self, tenant: str) -> float:
        w = self._weights.get(tenant, self._default)
        return w if w > 0 else self._default

    def push(self, tenant: str, item: object) -> None:
        lane = self._queues.get(tenant)
        if lane is None:
            lane = self._queues[tenant] = deque()
        if not lane:
            self._vtimes[tenant] = max(
                self._vtimes.get(tenant, 0.0), self._vclock
            )
        lane.append(item)

    def pop(self) -> Optional[object]:
        candidates = [
            (self._vtimes[tenant], tenant)
            for tenant, lane in self._queues.items()
            if lane
        ]
        if not candidates:
            return None
        _, tenant = min(candidates)
        item = self._queues[tenant].popleft()
        self._vclock = self._vtimes[tenant]
        self._vtimes[tenant] += 1.0 / self.weight(tenant)
        return item

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._queues.values())

    def depth(self, tenant: str) -> int:
        lane = self._queues.get(tenant)
        return len(lane) if lane else 0


class Job:
    """One admitted unit of work plus its broadcast event buffer.

    Events are appended (from any thread) via :meth:`publish`; each
    subscriber's :meth:`stream` replays the buffer from the start and
    then tails live events, so a coalesced client joining mid-run sees
    the identical sequence the first client saw.

    Every published event gets a monotonically increasing ``seq`` and
    the durable ``job`` id, and — when a journal is attached — is
    fsynced to disk *before* any subscriber can observe it
    (journal-before-emit), so a crash can lose at most events no
    client ever saw.  ``base_seq`` continues the numbering of a job
    recovered from its journal: replayed and re-run events never share
    a seq.
    """

    def __init__(
        self,
        key: str,
        request: protocol.SubmitRequest,
        loop: asyncio.AbstractEventLoop,
        job_id: Optional[str] = None,
        journal: Optional[journal_mod.JobJournal] = None,
        base_seq: int = 0,
    ) -> None:
        self.key = key
        self.request = request
        self.loop = loop
        self.job_id = job_id if job_id is not None else key[:16]
        self.journal = journal
        self.seq = base_seq
        self.events: List[Dict[str, object]] = []
        self.done = False
        self.ok: Optional[bool] = None
        self.recovered = False
        self.enqueued_at = time.monotonic()
        self.started_at: Optional[float] = None
        #: clients attached to the stream (each submit or resume adds one).
        self.subscribers = 0
        self.journal_errors = 0
        #: appends rejected by epoch fencing (this process is a zombie
        #: whose slot was taken over) — a subset of journal_errors.
        self.fenced_rejections = 0
        #: server callback invoked (from the publishing thread) on a
        #: fenced append, so the cluster counter updates immediately.
        self.on_fenced: Optional[Callable[[], None]] = None
        #: this server's shard index, threaded into chaos sites so
        #: shard-scoped kill rules target exactly one process.
        self.chaos_shard: Optional[int] = None
        #: ``result`` events a recovered job's journal already holds.
        #: Results publish in task order, so these are the re-run's
        #: first results; it skips them (the replay carries them).
        self.replayed_results = 0
        self._seq_lock = threading.Lock()
        self._update = asyncio.Event()

    def publish(self, event: Dict[str, object], done: bool = False) -> None:
        """Append one event (thread-safe; marks the job done if asked).

        Stamps ``seq``/``job``, journals (fsync) the event, *then*
        hands it to the event loop for fan-out.  A journal write
        failure degrades to in-memory-only rather than failing the
        job.
        """
        with self._seq_lock:
            self.seq += 1
            event = dict(event, job=self.job_id, seq=self.seq)
            if self.journal is not None:
                try:
                    self.journal.append(
                        {"type": "event", "seq": self.seq, "event": event}
                    )
                except FencedError:
                    # This process is a zombie: its slot was taken over
                    # and a peer owns the journal now.  The append was
                    # rejected before touching the file; keep fanning
                    # out in memory so local subscribers still unblock.
                    self.journal_errors += 1
                    self.fenced_rejections += 1
                    callback = self.on_fenced
                    if callback is not None:
                        callback()
                except (OSError, JournalError):
                    self.journal_errors += 1
        chaos.maybe_injure_serve(
            f"serve.publish:{event.get('event')}", self.job_id,
            modes=("kill",), shard=self.chaos_shard,
        )

        def _apply() -> None:
            self.events.append(event)
            if done:
                self.done = True
                self.ok = bool(event.get("ok")) if "ok" in event else None
            self._update.set()

        self.loop.call_soon_threadsafe(_apply)

    def close_journal(self) -> None:
        if self.journal is not None:
            self.journal.close()

    @property
    def status(self) -> str:
        if self.done:
            return "done"
        return "running" if self.started_at is not None else "queued"

    async def stream(
        self, after_seq: int = 0, heartbeat_s: Optional[float] = None
    ):
        """Yield events with ``seq > after_seq`` until the job is done.

        With ``heartbeat_s`` set, a synthetic ``heartbeat`` event
        (never journaled, no seq of its own — it carries the latest
        published seq informationally) is yielded whenever the stream
        has been idle that long, keeping slow jobs' connections alive
        through proxies and client read timeouts.
        """
        index = 0
        while True:
            self._update.clear()
            while index < len(self.events):
                event = self.events[index]
                index += 1
                if int(event.get("seq", 0)) > after_seq:  # type: ignore[arg-type]
                    yield event
            if self.done:
                return
            if heartbeat_s is None or heartbeat_s <= 0:
                await self._update.wait()
                continue
            try:
                await asyncio.wait_for(self._update.wait(), timeout=heartbeat_s)
            except asyncio.TimeoutError:
                yield {
                    "event": "heartbeat",
                    "job": self.job_id,
                    "last_seq": self.seq,
                    "status": self.status,
                }


def recoverable_request(
    summary: Dict[str, object]
) -> Optional[Tuple[protocol.SubmitRequest, str]]:
    """Rebuild ``(request, key)`` from a journal summary, if usable."""
    kind = summary["kind"]
    spec = summary["spec"]
    if (
        kind not in protocol.VALID_KINDS
        or kind == "resume"
        or not isinstance(spec, dict)
    ):
        return None  # unusable journal; leave it for inspection
    request = protocol.SubmitRequest(
        kind=str(kind),
        tenant=str(summary["tenant"] or "default"),
        spec=spec,
    )
    return request, str(summary["key"] or request.coalesce_key())


class JobLifecycle:
    """Every job one server knows, from admission to retirement.

    Event-loop thread only, except :meth:`_run`, which runs each job on
    a worker thread.  :meth:`start` binds it to the running loop.
    """

    def __init__(
        self,
        config: "ServeConfig",
        node: Standalone,
        registry: MetricsRegistry,
    ) -> None:
        self.config = config
        self.node = node
        self.counters = registry.namespace("serve")
        self.singleflight = SingleFlight(
            metrics=registry.namespace("serve.tasks")
        )
        self.queue = FairQueue(config.tenant_weights)
        self.jobs_by_key: Dict[str, Job] = {}
        self.jobs_by_id: Dict[str, Job] = {}
        self._finished_ids: Deque[str] = deque()
        self.journals = JournalStore(config.resolve_journal_dir())
        self.active = 0
        self.draining = False
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, config.concurrency),
            thread_name_prefix="repro-serve",
        )
        self.wait_hist = registry.histogram(
            "serve.wait_ms", [1.0, 10.0, 100.0, 1000.0, 10000.0]
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Future] = None
        self.drained: Optional[asyncio.Event] = None

    def start(self) -> int:
        """Re-enqueue this server's incomplete journals and start
        dispatching; returns how many jobs were recovered.

        Safe to repeat across restarts: re-running finished work hits
        the content-addressed cache, and concurrent duplicates coalesce
        in the single-flight tables.  Of two incomplete journals with
        one coalesce key (a job crashed, was resubmitted, crashed
        again) the oldest wins and the others are closed out as
        superseded so they become prunable.
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self.drained = asyncio.Event()
        owned = [
            entry for entry in self._incomplete()
            if self.node.owns_journal(entry.summary, entry.key)
        ]
        recovered = len(self._reopen(None, owned))
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return recovered

    def drain(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if self.draining:
            return
        self.draining = True
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # Admission and adoption

    def admit(self, key: str, request: protocol.SubmitRequest) -> Job:
        """Create, journal, register, and enqueue a brand-new job."""
        assert self._loop is not None and self._wake is not None
        job_id = f"{key[:16]}-{os.urandom(4).hex()}"
        jnl: Optional[journal_mod.JobJournal] = None
        try:
            while jnl is None:
                try:
                    jnl = self.journals.create(job_id)
                except FileExistsError:
                    job_id = f"{key[:16]}-{os.urandom(4).hex()}"
            self.node.guard(jnl)
            record: Dict[str, object] = {
                "type": "request",
                "job": job_id,
                "key": key,
                "kind": request.kind,
                "tenant": request.tenant,
                "spec": request.spec,
                "created_at": time.time(),
            }
            self.node.stamp(record)
            jnl.append(record)
        except (OSError, JournalError):
            if jnl is not None:
                jnl.close()
            jnl = None  # degrade to in-memory-only; the job still runs
            self.counters.counter("journal_errors").add()
        job = Job(key, request, self._loop, job_id=job_id, journal=jnl)
        return self._enqueue(
            job, "jobs_total",
            {"event": "queued", "queue_depth": len(self.queue) + 1},
        )

    def adopt(self, job_id: str, summary: Dict[str, object]) -> Optional[Job]:
        """Re-open the incomplete journal a resume asked a cluster shard
        for, fencing the dead peer that admitted it first; ``None`` when
        it cannot run here."""
        parsed = recoverable_request(summary)
        if parsed is None:
            return None
        shard = summary.get("shard")
        slot = shard if isinstance(shard, int) and shard != self.node.index else None
        jobs = self._reopen(slot, [Recoverable(job_id, summary, *parsed)])
        return jobs[0] if jobs else None

    def sweep_dead_peers(self) -> None:
        """Fence dead peers and adopt their incomplete journals (each
        lease tick of a cluster shard)."""
        dead = self.node.unswept_dead_slots()
        if not dead:
            return
        by_slot: Dict[int, List[Recoverable]] = {}
        for entry in self._incomplete():
            shard = entry.summary.get("shard")
            if isinstance(shard, int):
                by_slot.setdefault(shard, []).append(entry)
        for slot in dead:
            self._reopen(slot, by_slot.get(slot, []))

    def _incomplete(self) -> Iterator[Recoverable]:
        """Every journal that never reached ``done`` and can be re-run,
        oldest first."""
        for job_id, records in self.journals.scan():
            summary = journal_mod.job_summary(records)
            parsed = None if summary["done"] else recoverable_request(summary)
            if parsed is not None:
                yield Recoverable(job_id, summary, *parsed)

    def _reopen(
        self, slot: Optional[int], entries: List[Recoverable]
    ) -> List[Job]:
        """Re-open incomplete journals as queued jobs.

        ``slot`` is the dead peer that admitted them (``None`` for this
        shard's own): it is fenced first, and nothing is adopted unless
        that succeeds.
        """
        if slot is not None and not self.node.take_over(slot, len(entries)):
            return []
        jobs = [
            job
            for job in (
                self._enqueue_recovered(*entry, takeover_from=slot)
                for entry in entries
            )
            if job is not None
        ]
        if slot is not None:
            self.node.count_adopted(len(jobs))
        return jobs

    def _enqueue_recovered(
        self,
        job_id: str,
        summary: Dict[str, object],
        request: protocol.SubmitRequest,
        key: str,
        takeover_from: Optional[int] = None,
    ) -> Optional[Job]:
        """Re-open one incomplete journal as a live queued job.

        ``base_seq`` continues the journal's numbering so replayed and
        re-run events never share a seq.  Duplicate keys are closed out
        as superseded instead.
        """
        assert self._loop is not None and self._wake is not None
        if job_id in self.jobs_by_id:
            return None  # already live here
        if key in self.jobs_by_key:
            self._close_superseded(job_id, summary)
            return None
        try:
            jnl, records = self._open(job_id)
        except (OSError, JournalError):
            return None
        job = Job(
            key,
            request,
            self._loop,
            job_id=job_id,
            journal=jnl,
            base_seq=int(summary["seq"]),  # type: ignore[call-overload]
        )
        job.recovered = True
        job.events = [
            rec["event"]
            for rec in records
            if rec.get("type") == "event" and isinstance(rec.get("event"), dict)
        ]
        job.replayed_results = sum(
            1 for e in job.events if e.get("event") == "result"
        )
        recovered: Dict[str, object] = {"event": "recovered"}
        if takeover_from is not None:
            recovered["takeover_from"] = takeover_from
        return self._enqueue(job, "recovered_jobs", recovered)

    def _open(self, job_id: str):
        """Re-open a journal for appending, behind this server's fence."""
        jnl, records = self.journals.open_existing(job_id)
        self.node.guard(jnl)
        return jnl, records

    def _enqueue(self, job: Job, counter: str, event: Dict[str, object]) -> Job:
        """Register and queue ``job``, then publish its first ``event``."""
        assert self._wake is not None
        job.chaos_shard = self.node.index
        job.on_fenced = self.node.count_fenced
        self.jobs_by_key[job.key] = job
        self.jobs_by_id[job.job_id] = job
        self.queue.push(job.request.tenant, job)
        self.counters.counter(counter).add()
        job.publish(dict(event, tenant=job.request.tenant))
        self._wake.set()
        return job

    def _close_superseded(self, job_id: str, summary: Dict[str, object]) -> None:
        """Finish a duplicate incomplete journal so it becomes prunable."""
        try:
            jnl, _records = self._open(job_id)
            seq = int(summary["seq"]) + 1  # type: ignore[call-overload]
            jnl.append(
                {
                    "type": "event",
                    "seq": seq,
                    "event": {
                        "event": "done",
                        "ok": False,
                        "superseded": True,
                        "job": job_id,
                        "seq": seq,
                    },
                }
            )
            jnl.close()
            self.counters.counter("superseded_journals").add()
        except (OSError, JournalError):
            pass

    def status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        """Status for a job id — live from memory, else from its journal."""
        if not journal_mod.valid_job_id(job_id):
            return 400, {"error": f"malformed job id {job_id!r}"}
        job = self.jobs_by_id.get(job_id)
        if job is not None:
            return 200, {
                "job": job_id,
                "key": job.key,
                "kind": job.request.kind,
                "tenant": job.request.tenant,
                "status": job.status,
                "ok": job.ok,
                "seq": job.seq,
                "events": len(job.events),
                "subscribers": job.subscribers,
                "recovered": job.recovered,
                "live": True,
            }
        records = self.journals.read(job_id)
        if records:
            summary = journal_mod.job_summary(records)
            return 200, {
                "job": job_id,
                "key": summary["key"],
                "kind": summary["kind"],
                "tenant": summary["tenant"],
                "status": "done" if summary["done"] else "recoverable",
                "ok": summary["ok"],
                "seq": summary["seq"],
                "events": summary["events"],
                "live": False,
            }
        return 404, {"error": f"unknown job {job_id}"}

    # ------------------------------------------------------------------
    # Dispatch and retirement

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None and self.drained is not None
        while True:
            self._wake.clear()
            while self.active < max(1, self.config.concurrency):
                job = self.queue.pop()
                if job is None:
                    break
                self._start(job)
            if self.draining and not len(self.queue) and self.active == 0:
                self.drained.set()
                return
            await self._wake.wait()

    def _start(self, job: Job) -> None:
        assert self._loop is not None
        self.active += 1
        job.started_at = time.monotonic()
        wait_ms = (job.started_at - job.enqueued_at) * 1e3
        self.wait_hist.observe(wait_ms)
        tenant = job.request.tenant
        self.counters.counter(f"tenant.{tenant}.wait_ms_total").add(wait_ms)
        future = self._loop.run_in_executor(self.executor, self._run, job)
        future.add_done_callback(functools.partial(self._retire, job))

    def _retire(self, job: Job, future: asyncio.Future) -> None:
        # Runs on the loop thread (run_in_executor future callbacks do).
        self.active -= 1
        self.jobs_by_key.pop(job.key, None)
        exc = future.exception()
        if exc is not None and not job.done:
            # Defensive: _run publishes its own error events; anything
            # escaping it must still unblock subscribers.
            job.publish(
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"}
            )
            job.publish({"event": "done", "ok": False}, done=True)
            self.counters.counter("jobs_failed").add()
        job.close_journal()
        # Every degraded write, fenced ones included, counts here once.
        if job.journal_errors:
            self.counters.counter("journal_errors").add(job.journal_errors)
        # Keep a bounded tail of finished jobs addressable for
        # status/resume; older ones fall back to their disk journals.
        self._finished_ids.append(job.job_id)
        while len(self._finished_ids) > FINISHED_JOBS_RETAINED:
            self.jobs_by_id.pop(self._finished_ids.popleft(), None)
        assert self._wake is not None
        self._wake.set()

    # ------------------------------------------------------------------
    # Job execution (worker threads)

    def _run(self, job: Job) -> None:
        t0 = time.perf_counter()
        request = job.request
        job.publish({"event": "started", "kind": request.kind})
        completed = {"n": 0}

        def on_task(result) -> None:
            completed["n"] += 1
            job.publish(
                {
                    "event": "progress",
                    "completed": completed["n"],
                    "task": f"{result.task.app_name}@{result.task.n_pages:g}",
                    "mode": result.task.mode,
                    "cached": result.cached,
                    "ok": result.ok,
                }
            )

        ok = False
        try:
            with harness.settings_scope(self.config.job_settings()), \
                    harness.coalesce_scope(self.singleflight), \
                    harness.progress_scope(on_task):
                ok = self._execute(request, job)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            job.publish(
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"}
            )
            self.counters.counter("jobs_failed").add()
        job.publish(
            {
                "event": "done",
                "ok": ok,
                "wall_s": round(time.perf_counter() - t0, 6),
                "tasks_completed": completed["n"],
            },
            done=True,
        )

    def _execute(self, request: protocol.SubmitRequest, job: Job) -> bool:
        replayed = job.replayed_results

        def publish_result(event: Dict[str, object]) -> None:
            # A crash after journaling a result leaves it in the replay
            # (emitted or not); the re-run must not publish it again.
            nonlocal replayed
            if replayed:
                replayed -= 1
            else:
                job.publish(event)

        if request.kind in ("app", "tasks"):
            tasks = protocol.build_tasks(request)
            outcome = harness.run_sweep(tasks)
            for task, result in zip(tasks, outcome):
                publish_result(
                    {
                        "event": "result",
                        "task": f"{task.app_name}@{task.n_pages:g}",
                        "mode": task.mode,
                        "values": result.values,
                        "cached": result.cached,
                        "error": result.error,
                    }
                )
            job.publish(
                {
                    "event": "sweep",
                    "tasks": outcome.stats.tasks,
                    "hits": outcome.stats.hits,
                    "misses": outcome.stats.misses,
                    "retried": outcome.stats.retried,
                    "failed": outcome.stats.failed,
                }
            )
            return outcome.complete

        if request.kind == "experiment":
            from repro.experiments import report as report_mod

            name = str(request.spec["name"])
            runner = report_mod.EXPERIMENTS[name]
            if request.spec.get("quick") and name in report_mod.QUICK_OVERRIDES:
                runner = report_mod.QUICK_OVERRIDES[name]
            result = runner()
            publish_result(
                {
                    "event": "result",
                    "experiment": name,
                    "title": result.title,
                    "columns": result.columns,
                    "rows": result.rows,
                    "notes": result.notes,
                    "rendered": result.render(),
                }
            )
            return True

        # fuzz — bounded, seeded; deterministic via max_cases.
        from repro.workloads import run_fuzz

        out_dir = os.path.join(
            tempfile.gettempdir(), f"repro-serve-fuzz-{job.key[:12]}"
        )
        report = run_fuzz(
            seed=int(request.spec["seed"]),
            time_box_s=1e9,  # max_cases is the bound; keep the run deterministic
            max_cases=int(request.spec["max_cases"]),
            apps=request.spec.get("apps"),
            tolerance_scale=float(request.spec["tolerance_scale"]),
            out_dir=out_dir,
            log=lambda msg: job.publish({"event": "log", "line": str(msg)}),
        )
        publish_result(
            {
                "event": "result",
                "findings": len(report.findings),
                "rendered": report.render(),
                "out_dir": out_dir,
            }
        )
        return not report.findings
