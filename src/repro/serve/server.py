"""The asyncio sweep server: ``python -m repro serve``.

Architecture (one process, three layers):

* **Front-end** — ``asyncio.start_server`` accepts connections and
  parses the minimal HTTP of :mod:`repro.serve.protocol`.  A ``POST
  /submit`` becomes a :class:`Job`; identical in-flight requests
  (same :meth:`~repro.serve.protocol.SubmitRequest.coalesce_key`)
  attach to the existing job instead of creating a new one —
  **request-level single-flight** — and every subscriber replays the
  job's buffered events before tailing live ones.
* **Scheduler** — admitted jobs enter per-tenant FIFOs drained by a
  :class:`FairQueue` (stride scheduling: tenants advance a virtual
  clock by ``1/weight`` per dispatched job, so a weight-2 tenant gets
  twice the throughput under contention).  Backpressure is bounded:
  when ``max_queue`` jobs are already waiting, new work is rejected
  with HTTP 429.  At most ``concurrency`` jobs execute at once, each
  on a worker thread.
* **Execution** — a job thread scopes its own
  :class:`~repro.experiments.harness.HarnessSettings` and runs the
  ordinary harness path; distinct uncached tasks flow through the
  shared :class:`~repro.serve.scheduler.SingleFlight` table —
  **task-level single-flight** — then across the existing process pool
  (``jobs`` workers per sweep) with the PR 4 timeout/retry/isolation
  machinery, memoizing into ``.repro_cache/`` as usual.

``serve.*`` counters (requests, rejections, both coalescing levels,
queue depth, per-tenant wait times) live in a
:class:`~repro.trace.metrics.MetricsRegistry` exposed at ``GET
/metrics``.  SIGTERM/SIGINT starts a graceful drain: new submits get
503, queued and running jobs complete, streams finish, then the
process exits 0.

**Durability** (PR 9): every admitted job gets a durable id and an
append-only, fsynced journal (:mod:`repro.serve.journal`) under
``<cache>/jobs/`` recording its request envelope and every stream
event — *journal-before-emit*, so nothing a client saw can be lost.
On startup the journal directory is scanned and every job that never
reached ``done`` is re-enqueued (cheap: the content-addressed cache
and single-flight coalescing absorb already-finished work).  Clients
re-attach with a ``resume`` request (``job`` + ``after_seq``): the
journaled tail is replayed, then the stream tails live events.  Idle
streams carry periodic ``heartbeat`` events, and a subscriber that
stops reading for ``subscriber_stall_s`` is disconnected instead of
wedging the fan-out.  ``GET /jobs/<id>`` reports any job's status —
live or from its journal.

**Clustering** (PR 10): with ``--shards N --shard-index I`` (or the
``--cluster N`` launcher) several server processes share one cache
dir.  Job keys are consistent-hashed onto shards
(:class:`repro.serve.cluster.HashRing`); a submit landing on the
wrong shard gets ``307 + Location`` pointing at the owner.  Each
shard heartbeats a fsynced lease under ``<cache>/cluster/``; when a
lease expires, one surviving peer wins an O_EXCL takeover claim,
bumps the slot's *fence epoch* (so the dead shard — should it turn
out to be a zombie — has its late journal appends rejected with
:class:`~repro.serve.journal.FencedError`), and re-enqueues the dead
shard's incomplete journals through the ordinary recovery path with
``base_seq`` continuation: a client that resumes after the takeover
stitches the stream gaplessly.  ``GET /cluster`` reports membership;
``cluster.*`` counters land in ``/metrics``; a drain appends an
admission/queue-wait summary to ``<cache>/serve_history.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.experiments import harness
from repro.faults import chaos
from repro.serve import cluster as cluster_mod
from repro.serve import journal as journal_mod
from repro.serve import protocol
from repro.serve.cluster import ClusterError, ClusterMembership, HashRing
from repro.serve.journal import FencedError, JournalError, JournalStore
from repro.serve.scheduler import SingleFlight
from repro.trace.metrics import MetricsRegistry

#: Default TCP port (unassigned range; "AP" on a phone keypad is 27).
DEFAULT_PORT = 8927

#: Completed jobs kept addressable in memory for status/resume before
#: falling back to their on-disk journals.
FINISHED_JOBS_RETAINED = 256


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: worker processes per sweep (the harness pool, as on the CLI).
    jobs: int = 1
    #: jobs executing at once (worker threads; the process-pool total
    #: is bounded by ``concurrency * jobs``).
    concurrency: int = 2
    #: queued-job bound; submits beyond it are rejected with 429.
    max_queue: int = 64
    #: per-tenant scheduling weights (unlisted tenants get 1.0).
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    task_timeout_s: Optional[float] = None
    retries: int = 2
    use_cache: bool = True
    cache_dir: Optional[str] = None
    #: seconds of stream silence before a ``heartbeat`` event; <= 0
    #: disables heartbeats.
    heartbeat_s: float = 10.0
    #: seconds a subscriber may stall (unread backpressure) before the
    #: server disconnects it rather than wedge the fan-out.
    subscriber_stall_s: float = 30.0
    #: cluster size this process is one shard of (1 = standalone).
    shards: int = 1
    #: this process's shard slot (``None`` outside cluster mode; with
    #: ``shards > 1`` it defaults to 0).
    shard_index: Optional[int] = None
    #: heartbeat lease time-to-live; a peer whose lease is older is
    #: presumed dead and its incomplete journals become claimable.
    lease_ttl_s: float = cluster_mod.DEFAULT_LEASE_TTL_S
    #: ``host:port`` peers should redirect clients to (defaults to the
    #: actual listen address — override behind NAT/proxies).
    advertise: Optional[str] = None

    @property
    def cluster_enabled(self) -> bool:
        return self.shards > 1 or self.shard_index is not None

    def resolved_shard_index(self) -> int:
        return self.shard_index if self.shard_index is not None else 0

    def resolve_cluster_dir(self) -> Path:
        """Where lease/fence/takeover files live (sibling of jobs/)."""
        return (
            Path(self.job_settings().resolve_cache_dir())
            / cluster_mod.CLUSTER_DIRNAME
        )

    def job_settings(self) -> harness.HarnessSettings:
        """The harness policy each job thread scopes in."""
        return harness.HarnessSettings(
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            task_timeout_s=self.task_timeout_s,
            retries=self.retries,
        )

    def resolve_journal_dir(self) -> Path:
        """Where job journals live (inside the result-cache root)."""
        return Path(self.job_settings().resolve_cache_dir()) / "jobs"


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
        self.subscribers = 1
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


class SweepServer:
    """The long-running multi-tenant simulation service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.serve_ns = self.registry.namespace("serve")
        self.singleflight = SingleFlight(
            metrics=self.registry.namespace("serve.tasks")
        )
        self.queue = FairQueue(config.tenant_weights)
        self.jobs_by_key: Dict[str, Job] = {}
        self.jobs_by_id: Dict[str, Job] = {}
        self._finished_ids: Deque[str] = deque()
        self.journals = JournalStore(config.resolve_journal_dir())
        self.recovered_jobs = 0
        self.active = 0
        self.draining = False
        self.cluster: Optional[ClusterMembership] = None
        self.ring: Optional[HashRing] = (
            HashRing(config.shards) if config.cluster_enabled else None
        )
        self.cluster_ns = self.registry.namespace("cluster")
        if config.cluster_enabled:
            # Pre-create the headline counters so /metrics reports
            # zeros rather than omitting them before the first event.
            for name in (
                "redirects_total", "takeovers_total",
                "fenced_appends_rejected",
            ):
                self.cluster_ns.counter(name)
        #: newest epoch per dead slot already swept for takeover —
        #: avoids rescanning the journal dir every lease tick for a
        #: peer that stays dead.
        self._slot_epochs_handled: Dict[int, int] = {}
        self._fence_reported = False
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, config.concurrency),
            thread_name_prefix="repro-serve",
        )
        self.wait_hist = self.registry.histogram(
            "serve.wait_ms", [1.0, 10.0, 100.0, 1000.0, 10000.0]
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Future] = None
        self._cluster_task: Optional[asyncio.Future] = None
        self._wake: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> List[Tuple[str, int]]:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        # Bind first: in cluster mode the lease advertises the *actual*
        # listen address (--port 0 picks a free port).  Recovery still
        # runs before any request is served — it is synchronous on the
        # loop thread, so accepted connections queue behind it.
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        if self.config.cluster_enabled:
            host, port = self.addresses()[0]
            self.cluster = ClusterMembership(
                self.config.resolve_cluster_dir(),
                self.config.resolved_shard_index(),
                self.config.shards,
                addr=self.config.advertise or f"{host}:{port}",
                ttl_s=self.config.lease_ttl_s,
            )
            try:
                self.cluster.acquire()
            except ClusterError:
                self._server.close()
                raise
        self.recovered_jobs = self._recover_jobs()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        if self.cluster is not None:
            self._cluster_task = asyncio.ensure_future(self._cluster_loop())
        return self.addresses()

    @staticmethod
    def _recoverable_request(
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

    def _recover_jobs(self) -> int:
        """Re-enqueue every journaled job that never reached ``done``.

        Runs before any request is served, on the loop thread.  Safe to
        repeat across restarts: re-running finished work hits the
        content-addressed cache, and concurrent duplicates coalesce in
        the single-flight tables.  When two incomplete journals share a
        coalesce key (a job crashed, was resubmitted, crashed again)
        the oldest wins and the others are closed out as superseded so
        they become prunable.

        In cluster mode a cold-booting shard claims only journals its
        previous incarnation admitted (``shard == me``), plus
        pre-cluster journals whose key the ring assigns to it; another
        shard's incomplete journals belong to that shard — or, once its
        lease expires, to whichever peer wins the fenced takeover
        (:meth:`_check_takeovers`).
        """
        assert self._loop is not None and self._wake is not None
        me = self.config.resolved_shard_index()
        recovered = 0
        for job_id, records in self.journals.scan():
            summary = journal_mod.job_summary(records)
            if summary["done"]:
                continue
            parsed = self._recoverable_request(summary)
            if parsed is None:
                continue
            request, key = parsed
            if self.ring is not None:
                shard = summary.get("shard")
                if isinstance(shard, int):
                    if shard != me:
                        continue
                elif self.ring.owner(key) != me:
                    continue
            if self._enqueue_recovered(job_id, summary, request, key):
                recovered += 1
        if recovered:
            self._wake.set()
        return recovered

    def _enqueue_recovered(
        self,
        job_id: str,
        summary: Dict[str, object],
        request: protocol.SubmitRequest,
        key: str,
        takeover_from: Optional[int] = None,
    ) -> Optional[Job]:
        """Re-open one incomplete journal as a live queued job.

        Shared by startup recovery, the periodic dead-peer sweep, and
        on-demand resume adoption.  ``base_seq`` continues the journal's
        numbering so replayed and re-run events never share a seq.
        Duplicate keys are closed out as superseded instead.
        """
        assert self._loop is not None and self._wake is not None
        if job_id in self.jobs_by_id:
            return None  # already live here
        if key in self.jobs_by_key:
            self._close_superseded(job_id, summary)
            return None
        try:
            jnl, records = self.journals.open_existing(job_id)
        except (OSError, JournalError):
            return None
        if self.cluster is not None:
            jnl.fence = self.cluster.check_fence
        job = Job(
            key,
            request,
            self._loop,
            job_id=job_id,
            journal=jnl,
            base_seq=int(summary["seq"]),  # type: ignore[call-overload]
        )
        job.recovered = True
        job.subscribers = 0
        self._wire_cluster_hooks(job)
        job.events = [
            rec["event"]
            for rec in records
            if rec.get("type") == "event" and isinstance(rec.get("event"), dict)
        ]
        job.replayed_results = sum(
            1 for e in job.events if e.get("event") == "result"
        )
        self.jobs_by_key[key] = job
        self.jobs_by_id[job_id] = job
        recovered_event: Dict[str, object] = {
            "event": "recovered", "tenant": request.tenant,
        }
        if takeover_from is not None:
            recovered_event["takeover_from"] = takeover_from
        job.publish(recovered_event)
        self.queue.push(request.tenant, job)
        self.serve_ns.counter("recovered_jobs").add()
        self._wake.set()
        return job

    def _wire_cluster_hooks(self, job: Job) -> None:
        """Point a job's fencing/chaos callbacks at this server."""
        if self.config.cluster_enabled:
            job.chaos_shard = self.config.resolved_shard_index()
        if self.cluster is not None:
            job.on_fenced = self._on_fenced_append

    def _on_fenced_append(self) -> None:
        # Called from publishing worker threads; Counter.add is a plain
        # float += (GIL-atomic enough for a diagnostic counter).
        self.cluster_ns.counter("fenced_appends_rejected").add()
        self.serve_ns.counter("journal_errors").add()

    def _close_superseded(self, job_id: str, summary: Dict[str, object]) -> None:
        """Finish a duplicate incomplete journal so it becomes prunable."""
        try:
            jnl, _records = self.journals.open_existing(job_id)
            if self.cluster is not None:
                jnl.fence = self.cluster.check_fence
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
            self.serve_ns.counter("superseded_journals").add()
        except (OSError, JournalError):
            pass

    # ------------------------------------------------------------------
    # Cluster membership (event-loop thread)

    async def _cluster_loop(self) -> None:
        """Renew this shard's lease and sweep for dead peers."""
        assert self.cluster is not None and self._drained is not None
        interval = max(0.05, self.config.lease_ttl_s / 3.0)
        while not self._drained.is_set():
            try:
                await asyncio.wait_for(self._drained.wait(), timeout=interval)
                break  # drained: close() releases the lease
            except asyncio.TimeoutError:
                pass
            if not self.cluster.renew():
                if not self._fence_reported:
                    self._fence_reported = True
                    print(
                        f"serve: shard {self.cluster.shard_index} fenced "
                        f"(epoch {self.cluster.epoch} superseded by "
                        f"{cluster_mod.read_fence_epoch(self.cluster.root, self.cluster.shard_index)}); "
                        "draining",
                        flush=True,
                    )
                    self.request_shutdown()
                continue  # a zombie must not take over anything
            self._check_takeovers()

    def _check_takeovers(self) -> None:
        """Fence dead peers and adopt their incomplete journals.

        Journal scans only happen while a peer slot is dead *and* its
        newest known epoch is one we have not swept yet — a peer that
        stays dead (or never started) costs a few lease-file reads per
        tick, not a directory walk.
        """
        if self.cluster is None:
            return
        dead = self.cluster.dead_slots()
        if not dead:
            return
        pending_by_slot: Optional[Dict[int, List[Tuple[str, Dict[str, object]]]]] = None
        for slot in dead:
            latest = self.cluster.latest_epoch(slot)
            if self._slot_epochs_handled.get(slot, -1) >= latest:
                continue
            if pending_by_slot is None:
                pending_by_slot = {}
                for job_id, records in self.journals.scan():
                    summary = journal_mod.job_summary(records)
                    if summary["done"]:
                        continue
                    shard = summary.get("shard")
                    if isinstance(shard, int):
                        pending_by_slot.setdefault(shard, []).append(
                            (job_id, summary)
                        )
            jobs = pending_by_slot.get(slot, [])
            if not jobs:
                # Nothing to adopt: no takeover needed (and no fence —
                # a restarting peer should not find its epoch burned).
                self._slot_epochs_handled[slot] = latest
                continue
            outcome, epoch = self.cluster.fence_slot(slot)
            self._slot_epochs_handled[slot] = epoch
            if outcome == "lost":
                continue  # another peer owns this takeover
            if outcome == "won":
                self.cluster_ns.counter("takeovers_total").add()
                print(
                    f"serve: shard {self.cluster.shard_index} taking over "
                    f"{len(jobs)} job(s) from dead shard {slot} "
                    f"(fence epoch {epoch})",
                    flush=True,
                )
            adopted = 0
            for job_id, summary in jobs:
                parsed = self._recoverable_request(summary)
                if parsed is None:
                    continue
                request, key = parsed
                if self._enqueue_recovered(
                    job_id, summary, request, key, takeover_from=slot
                ):
                    adopted += 1
            self.cluster_ns.counter("takeover_jobs_adopted").add(adopted)

    def addresses(self) -> List[Tuple[str, int]]:
        assert self._server is not None
        return [s.getsockname()[:2] for s in self._server.sockets]

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if self.draining:
            return
        self.draining = True
        if self._wake is not None:
            self._wake.set()

    async def wait_drained(self) -> None:
        assert self._drained is not None
        await self._drained.wait()

    async def close(self) -> None:
        if self._cluster_task is not None:
            self._cluster_task.cancel()
            try:
                await self._cluster_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Streams tail their jobs; drained jobs are done, so give the
        # writers one scheduling round to flush and close.
        await asyncio.sleep(0.05)
        self.executor.shutdown(wait=True)
        if self.cluster is not None:
            # Lease released only after the drain: while jobs were
            # still finishing, peers must not have considered this
            # slot dead and fenced it mid-write.
            self.cluster.release()

    # ------------------------------------------------------------------
    # Dispatch (event-loop thread only)

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None and self._drained is not None
        while True:
            self._wake.clear()
            while self.active < max(1, self.config.concurrency):
                job = self.queue.pop()
                if job is None:
                    break
                self._start_job(job)
            if self.draining and not len(self.queue) and self.active == 0:
                self._drained.set()
                return
            await self._wake.wait()

    def _start_job(self, job: Job) -> None:
        assert self._loop is not None
        self.active += 1
        job.started_at = time.monotonic()
        wait_ms = (job.started_at - job.enqueued_at) * 1e3
        self.wait_hist.observe(wait_ms)
        tenant = job.request.tenant
        self.serve_ns.counter(f"tenant.{tenant}.wait_ms_total").add(wait_ms)
        future = self._loop.run_in_executor(
            self.executor, self._run_job_sync, job
        )
        future.add_done_callback(functools.partial(self._job_finished, job))

    def _job_finished(self, job: Job, future: asyncio.Future) -> None:
        # Runs on the loop thread (run_in_executor future callbacks do).
        self.active -= 1
        self.jobs_by_key.pop(job.key, None)
        exc = future.exception()
        if exc is not None and not job.done:
            # Defensive: _run_job_sync publishes its own error events;
            # anything escaping it must still unblock subscribers.
            job.publish(
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"}
            )
            job.publish({"event": "done", "ok": False}, done=True)
            self.serve_ns.counter("jobs_failed").add()
        job.close_journal()
        if job.journal_errors:
            self.serve_ns.counter("journal_errors").add(job.journal_errors)
        # Keep a bounded tail of finished jobs addressable for
        # status/resume; older ones fall back to their disk journals.
        self._finished_ids.append(job.job_id)
        while len(self._finished_ids) > FINISHED_JOBS_RETAINED:
            self.jobs_by_id.pop(self._finished_ids.popleft(), None)
        assert self._wake is not None
        self._wake.set()

    # ------------------------------------------------------------------
    # Job execution (worker threads)

    def _run_job_sync(self, job: Job) -> None:
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
                ok = self._execute_request(request, job)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            job.publish(
                {"event": "error", "error": f"{type(exc).__name__}: {exc}"}
            )
            self.serve_ns.counter("jobs_failed").add()
        job.publish(
            {
                "event": "done",
                "ok": ok,
                "wall_s": round(time.perf_counter() - t0, 6),
                "tasks_completed": completed["n"],
            },
            done=True,
        )

    def _execute_request(self, request: protocol.SubmitRequest, job: Job) -> bool:
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

    # ------------------------------------------------------------------
    # HTTP handling (event-loop thread)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers, body = await protocol.read_request(reader)
            except protocol.ProtocolError as exc:
                writer.write(protocol.json_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            await self._route(method, target, headers, body, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-stream; the job keeps running
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.split("?", 1)[0]
        if method == "POST" and path == "/submit":
            await self._handle_submit(headers, body, writer)
            return
        if method != "GET":
            writer.write(
                protocol.json_response(405, {"error": f"{method} unsupported"})
            )
        elif path == "/healthz":
            writer.write(
                protocol.json_response(
                    200,
                    {
                        "ok": True,
                        "draining": self.draining,
                        "active_jobs": self.active,
                        "queued_jobs": len(self.queue),
                    },
                )
            )
        elif path == "/metrics":
            writer.write(protocol.json_response(200, self.metrics_snapshot()))
        elif path == "/cluster":
            writer.write(protocol.json_response(200, self.cluster_status()))
        elif path == "/cache/stats":
            cache = harness.ResultCache(
                self.config.job_settings().resolve_cache_dir()
            )
            writer.write(protocol.json_response(200, cache.stats()))
        elif path.startswith("/jobs/"):
            status, payload = self.job_status(path[len("/jobs/"):])
            writer.write(protocol.json_response(status, payload))
        elif path == "/":
            writer.write(
                protocol.json_response(
                    200,
                    {
                        "service": "repro sweep server",
                        "endpoints": [
                            "POST /submit",
                            "GET /jobs/<id>",
                            "GET /metrics",
                            "GET /cluster",
                            "GET /cache/stats",
                            "GET /healthz",
                        ],
                        "kinds": list(protocol.VALID_KINDS),
                    },
                )
            )
        else:
            writer.write(protocol.json_response(404, {"error": f"no route {path}"}))
        await writer.drain()

    def job_status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
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

    def metrics_snapshot(self) -> Dict[str, float]:
        """The registry with the point-in-time gauges refreshed."""
        self.serve_ns.counter("queue_depth").set(float(len(self.queue)))
        self.serve_ns.counter("active_jobs").set(float(self.active))
        self.serve_ns.counter("inflight_tasks").set(
            float(len(self.singleflight.inflight_keys()))
        )
        if self.cluster is not None:
            me = self.cluster.shard_index
            self.cluster_ns.counter("shards_alive").set(
                float(len(self.cluster.alive()))
            )
            self.cluster_ns.counter("epoch").set(float(self.cluster.epoch))
            self.cluster_ns.counter("fenced").set(
                1.0 if self.cluster.fenced else 0.0
            )
            self.cluster_ns.counter(f"shard.{me}.queue_depth").set(
                float(len(self.queue))
            )
            self.cluster_ns.counter(f"shard.{me}.active_jobs").set(
                float(self.active)
            )
        return self.registry.as_dict()

    def cluster_status(self) -> Dict[str, object]:
        """The ``GET /cluster`` membership document."""
        if self.cluster is None:
            return {"cluster": False, "shards": 1}
        now = time.time()
        peers: Dict[str, object] = {}
        for slot, lease in sorted(self.cluster.peers().items()):
            peers[str(slot)] = {
                "addr": lease.addr,
                "epoch": lease.epoch,
                "pid": lease.pid,
                "alive": not lease.expired(now),
                "expires_in_s": round(
                    lease.ttl_s - (now - lease.renewed_at), 3
                ),
            }
        return {
            "cluster": True,
            "shard": self.cluster.shard_index,
            "shards": self.cluster.n_shards,
            "epoch": self.cluster.epoch,
            "fenced": self.cluster.fenced,
            "alive": sorted(self.cluster.alive(now)),
            "peers": peers,
        }

    async def _handle_submit(
        self, headers: Dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = protocol.parse_submit(json.loads(body.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            writer.write(
                protocol.json_response(400, {"error": f"invalid JSON body: {exc}"})
            )
            await writer.drain()
            return
        except protocol.ProtocolError as exc:
            writer.write(protocol.json_response(400, {"error": str(exc)}))
            await writer.drain()
            return

        self.serve_ns.counter("requests_total").add()
        self.serve_ns.counter(f"tenant.{request.tenant}.requests").add()
        sse = "text/event-stream" in headers.get("accept", "")

        if request.kind == "resume":
            await self._handle_resume(request, sse, writer)
            return

        if self.draining:
            writer.write(
                protocol.json_response(
                    503,
                    {"error": "server is draining; not accepting new work"},
                    ("Retry-After: 5",),
                )
            )
            await writer.drain()
            return

        key = request.coalesce_key()
        job = self.jobs_by_key.get(key)
        coalesced = job is not None
        if job is None and self.cluster is not None:
            # A job already live here (e.g. adopted in a takeover)
            # coalesces locally; only *new* keys route by the ring.
            redirect = self._redirect_for(key)
            if redirect is not None:
                owner, location = redirect
                self.cluster_ns.counter("redirects_total").add()
                writer.write(
                    protocol.redirect_response(
                        location,
                        {
                            "event": "redirect",
                            "shard": owner,
                            "location": location,
                        },
                    )
                )
                await writer.drain()
                return
        if job is None:
            if len(self.queue) >= self.config.max_queue:
                self.serve_ns.counter("rejected_total").add()
                writer.write(
                    protocol.json_response(
                        429,
                        {
                            "error": "queue full",
                            "max_queue": self.config.max_queue,
                        },
                        ("Retry-After: 1",),
                    )
                )
                await writer.drain()
                return
            job = self._admit_job(key, request)
        else:
            job.subscribers += 1
            self.serve_ns.counter("coalesce_hits").add()

        writer.write(protocol.stream_head(sse))
        writer.write(
            protocol.encode_event(
                {
                    "event": "accepted",
                    "job": job.job_id,
                    "kind": request.kind,
                    "tenant": request.tenant,
                    "coalesced": coalesced,
                },
                sse,
            )
        )
        await writer.drain()
        await self._stream_job(job, 0, sse, writer)

    def _redirect_for(self, key: str) -> Optional[Tuple[int, str]]:
        """``(owner, submit URL)`` when another live shard owns ``key``."""
        assert self.cluster is not None and self.ring is not None
        alive = self.cluster.alive()
        owner = self.ring.owner(key, alive)
        if owner == self.cluster.shard_index:
            return None
        lease = self.cluster.peers().get(owner)
        if lease is None or not lease.addr:
            return None  # can't name a target; serve it here instead
        return owner, f"http://{lease.addr}/submit"

    def _admit_job(self, key: str, request: protocol.SubmitRequest) -> Job:
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
            if self.cluster is not None:
                jnl.fence = self.cluster.check_fence
            record: Dict[str, object] = {
                "type": "request",
                "job": job_id,
                "key": key,
                "kind": request.kind,
                "tenant": request.tenant,
                "spec": request.spec,
                "created_at": time.time(),
            }
            if self.cluster is not None:
                # The admitting slot/epoch: the coordinates dead-peer
                # takeover and lease-aware prune key off.
                record["shard"] = self.cluster.shard_index
                record["epoch"] = self.cluster.epoch
            jnl.append(record)
        except (OSError, JournalError):
            jnl = None  # degrade to in-memory-only; the job still runs
            self.serve_ns.counter("journal_errors").add()
        job = Job(key, request, self._loop, job_id=job_id, journal=jnl)
        self._wire_cluster_hooks(job)
        self.jobs_by_key[key] = job
        self.jobs_by_id[job_id] = job
        self.queue.push(request.tenant, job)
        self.serve_ns.counter("jobs_total").add()
        job.publish(
            {
                "event": "queued",
                "tenant": request.tenant,
                "queue_depth": len(self.queue),
            }
        )
        self._wake.set()
        return job

    async def _handle_resume(
        self,
        request: protocol.SubmitRequest,
        sse: bool,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Re-attach a client: replay ``seq > after_seq``, then tail live."""
        job_id = str(request.spec["job"])
        after_seq = int(request.spec["after_seq"])  # type: ignore[call-overload]
        self.serve_ns.counter("resume_requests").add()

        job = self.jobs_by_id.get(job_id)
        if job is not None:
            job.subscribers += 1
            self.serve_ns.counter("resumed_total").add()
            writer.write(protocol.stream_head(sse))
            writer.write(
                protocol.encode_event(
                    {
                        "event": "accepted",
                        "job": job_id,
                        "kind": job.request.kind,
                        "tenant": job.request.tenant,
                        "coalesced": True,
                        "resumed": True,
                        "after_seq": after_seq,
                    },
                    sse,
                )
            )
            await writer.drain()
            await self._stream_job(job, after_seq, sse, writer)
            return

        # Not live: replay straight from the journal on disk.
        records = self.journals.read(job_id)
        if not records:
            writer.write(
                protocol.json_response(404, {"error": f"unknown job {job_id}"})
            )
            await writer.drain()
            return
        summary = journal_mod.job_summary(records)
        if not summary["done"] and self.cluster is not None:
            # Incomplete and not live here.  Either the owner is a live
            # peer (redirect the client there) or it is dead — adopt
            # the job *now* rather than make the client wait for the
            # periodic sweep: fence the dead slot, re-enqueue with
            # base_seq continuation, and stream the stitched result.
            routed = await self._resume_cluster(
                job_id, summary, after_seq, sse, writer
            )
            if routed:
                return
        self.serve_ns.counter("resumed_total").add()
        writer.write(protocol.stream_head(sse))
        writer.write(
            protocol.encode_event(
                {
                    "event": "accepted",
                    "job": job_id,
                    "kind": summary["kind"],
                    "tenant": summary["tenant"],
                    "coalesced": False,
                    "resumed": True,
                    "after_seq": after_seq,
                    "from_journal": True,
                },
                sse,
            )
        )
        for record in records:
            if record.get("type") != "event":
                continue
            event = record.get("event")
            if not isinstance(event, dict):
                continue
            if int(record.get("seq", 0)) > after_seq:  # type: ignore[call-overload]
                writer.write(protocol.encode_event(event, sse))
        if not summary["done"]:
            # Incomplete journal with no live job (e.g. journaling was
            # re-enabled, or the job predates recovery): the stream
            # cannot complete here — tell the client to resubmit.
            writer.write(
                protocol.encode_event(
                    {
                        "event": "error",
                        "job": job_id,
                        "error": "job is not running on this server; "
                        "resubmit the original request",
                    },
                    sse,
                )
            )
            writer.write(
                protocol.encode_event(
                    {"event": "done", "ok": False, "job": job_id}, sse
                )
            )
        await writer.drain()

    async def _resume_cluster(
        self,
        job_id: str,
        summary: Dict[str, object],
        after_seq: int,
        sse: bool,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Cluster routing for a resume of a non-live, incomplete job.

        Returns ``True`` when a response was written (a redirect to the
        live owner, or an adopted live stream); ``False`` to fall back
        to the plain journal replay and its resubmit-error tail.
        """
        assert self.cluster is not None and self.ring is not None
        me = self.cluster.shard_index
        parsed = self._recoverable_request(summary)
        key = parsed[1] if parsed is not None else str(summary["key"] or "")
        if key:
            alive = self.cluster.alive()
            owner = self.ring.owner(key, alive)
            if owner != me:
                lease = self.cluster.peers().get(owner)
                if lease is not None and lease.addr:
                    location = f"http://{lease.addr}/submit"
                    self.cluster_ns.counter("redirects_total").add()
                    writer.write(
                        protocol.redirect_response(
                            location,
                            {
                                "event": "redirect",
                                "shard": owner,
                                "location": location,
                                "job": job_id,
                            },
                        )
                    )
                    await writer.drain()
                    return True
        if parsed is None:
            return False
        shard = summary.get("shard")
        takeover_from: Optional[int] = None
        if isinstance(shard, int) and shard != me:
            if shard in self.cluster.alive():
                # The admitting shard is alive but no longer runs the
                # job and the ring routes here: an edge the periodic
                # machinery doesn't cover — let the client resubmit.
                return False
            outcome, epoch = self.cluster.fence_slot(shard)
            if outcome == "lost":
                return False  # a peer is mid-takeover; client retries
            self._slot_epochs_handled[shard] = epoch
            takeover_from = shard
            if outcome == "won":
                self.cluster_ns.counter("takeovers_total").add()
                print(
                    f"serve: shard {me} fenced dead shard {shard} "
                    f"(epoch {epoch}) to adopt job {job_id}",
                    flush=True,
                )
        request, key = parsed
        job = self._enqueue_recovered(
            job_id, summary, request, key, takeover_from=takeover_from
        )
        if job is None:
            job = self.jobs_by_id.get(job_id)
            if job is None:
                return False
        job.subscribers += 1
        self.serve_ns.counter("resumed_total").add()
        writer.write(protocol.stream_head(sse))
        writer.write(
            protocol.encode_event(
                {
                    "event": "accepted",
                    "job": job_id,
                    "kind": job.request.kind,
                    "tenant": job.request.tenant,
                    "coalesced": True,
                    "resumed": True,
                    "adopted": True,
                    "after_seq": after_seq,
                },
                sse,
            )
        )
        await writer.drain()
        await self._stream_job(job, after_seq, sse, writer)
        return True

    async def _stream_job(
        self,
        job: Job,
        after_seq: int,
        sse: bool,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Fan one subscriber's view of a job out over its connection.

        Heartbeats keep idle streams alive; a subscriber that leaves
        ``subscriber_stall_s`` of backpressure unread is disconnected
        (the job keeps running — any client can resume later).
        """
        heartbeat_s = self.config.heartbeat_s
        async for event in job.stream(
            after_seq=after_seq,
            heartbeat_s=heartbeat_s if heartbeat_s > 0 else None,
        ):
            chaos.maybe_injure_serve(
                f"serve.emit:{event.get('event')}", job.job_id,
                shard=job.chaos_shard,
            )
            if event.get("event") == "heartbeat":
                self.serve_ns.counter("heartbeats").add()
            writer.write(protocol.encode_event(event, sse))
            try:
                await asyncio.wait_for(
                    writer.drain(), timeout=self.config.subscriber_stall_s
                )
            except asyncio.TimeoutError:
                self.serve_ns.counter("slow_disconnects").add()
                raise ConnectionResetError(
                    f"subscriber stalled > {self.config.subscriber_stall_s}s; "
                    "disconnected"
                )


# ----------------------------------------------------------------------
# Entry point


#: Environment override for where drain-time admission summaries land.
HISTORY_ENV = "REPRO_HISTORY_PATH"


def serve_history_record(server: SweepServer) -> Dict[str, object]:
    """One append-only admission/queue-wait summary for the serve history.

    The ROADMAP's statistical perf gates consume these as a series:
    each drained serve run contributes its admission counters and the
    queue-wait distribution (histogram buckets, count, mean).
    """
    import datetime
    import platform

    snapshot = server.metrics_snapshot()

    def metric(name: str) -> float:
        return float(snapshot.get(name, 0.0))

    record: Dict[str, object] = {
        "kind": "serve",
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": platform.node(),
        "admission": {
            "requests_total": metric("serve.requests_total"),
            "jobs_total": metric("serve.jobs_total"),
            "rejected_total": metric("serve.rejected_total"),
            "coalesce_hits": metric("serve.coalesce_hits"),
            "recovered_jobs": metric("serve.recovered_jobs"),
            "jobs_failed": metric("serve.jobs_failed"),
            "resume_requests": metric("serve.resume_requests"),
        },
        "queue_wait_ms": {
            key[len("serve.wait_ms."):]: value
            for key, value in snapshot.items()
            if key.startswith("serve.wait_ms.")
        },
    }
    if server.cluster is not None:
        record["shard"] = server.cluster.shard_index
        record["cluster"] = {
            "shards": server.cluster.n_shards,
            "epoch": server.cluster.epoch,
            "takeovers_total": metric("cluster.takeovers_total"),
            "fenced_appends_rejected": metric(
                "cluster.fenced_appends_rejected"
            ),
            "redirects_total": metric("cluster.redirects_total"),
        }
    return record


def append_serve_history(server: SweepServer) -> Optional[Path]:
    """Append the drain summary (best-effort) to ``$REPRO_HISTORY_PATH``,
    else ``<cache>/serve_history.jsonl``: never into the source checkout,
    since the server may run from an installed package."""
    from repro.experiments import simbench

    cache_dir = server.config.job_settings().resolve_cache_dir()
    path = Path(os.environ.get(HISTORY_ENV) or cache_dir / "serve_history.jsonl")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        simbench.append_history(serve_history_record(server), path)
    except OSError:
        return None
    return path


async def amain(config: ServeConfig) -> int:
    server = SweepServer(config)
    await server.start()
    host, port = server.addresses()[0]
    shard_note = ""
    if server.cluster is not None:
        shard_note = (
            f", shard={server.cluster.shard_index}/{config.shards}"
            f", epoch={server.cluster.epoch}"
        )
    print(
        f"serve: listening on http://{host}:{port} "
        f"(concurrency={config.concurrency}, jobs={config.jobs}, "
        f"max-queue={config.max_queue}{shard_note})",
        flush=True,
    )
    if server.recovered_jobs:
        print(
            f"serve: recovered {server.recovered_jobs} journaled job(s)",
            flush=True,
        )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await server.wait_drained()
    await server.close()
    history = append_serve_history(server)
    if history is not None:
        print(f"serve: appended admission summary to {history}", flush=True)
    print("serve: queue drained, shutting down", flush=True)
    return 0


def _parse_weights(pairs: List[str]) -> Dict[str, float]:
    weights: Dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            weight = float(value)
        except ValueError:
            weight = 0.0
        if not sep or not name or weight <= 0:
            raise SystemExit(
                f"--tenant-weight expects NAME=WEIGHT with WEIGHT > 0, got {pair!r}"
            )
        weights[name] = weight
    return weights


def build_config(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        concurrency=args.concurrency,
        max_queue=args.max_queue,
        tenant_weights=_parse_weights(args.tenant_weight or []),
        task_timeout_s=args.task_timeout,
        retries=args.retries if args.retries is not None else 2,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        heartbeat_s=args.heartbeat,
        shards=getattr(args, "shards", 1) or 1,
        shard_index=getattr(args, "shard_index", None),
        lease_ttl_s=getattr(args, "lease_ttl", None)
        or cluster_mod.DEFAULT_LEASE_TTL_S,
        advertise=getattr(args, "advertise", None),
    )


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="0 picks a free port"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per sweep (the harness pool)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=2, metavar="N",
        help="jobs executing at once (worker threads)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="queued-job bound; beyond it submits get HTTP 429",
    )
    parser.add_argument(
        "--tenant-weight", action="append", metavar="NAME=W",
        help="fair-queuing weight for a tenant (repeatable; default 1)",
    )
    parser.add_argument("--task-timeout", type=float, default=None, metavar="S")
    parser.add_argument("--retries", type=int, default=None, metavar="N")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-dir", metavar="DIR", default=None)
    parser.add_argument(
        "--heartbeat", type=float, default=10.0, metavar="S",
        help="idle-stream heartbeat interval (<= 0 disables)",
    )
    parser.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="launch N shard processes sharing this cache dir "
        "(supervisor mode; each shard gets --shards N --shard-index I)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="total shard count in the cluster this server belongs to",
    )
    parser.add_argument(
        "--shard-index", type=int, default=None, metavar="I",
        help="this server's shard slot (0-based; implies cluster mode)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="shard heartbeat-lease TTL; a peer silent this long is "
        f"declared dead (default {cluster_mod.DEFAULT_LEASE_TTL_S})",
    )
    parser.add_argument(
        "--advertise", metavar="HOST:PORT", default=None,
        help="address peers/clients should use to reach this shard "
        "(defaults to the bound host:port)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Dispatch parsed serve arguments: supervisor, shard, or standalone."""
    if getattr(args, "cluster", None):
        if args.cluster < 2:
            print("serve: --cluster needs at least 2 shards", flush=True)
            return 2
        return cluster_mod.run_cluster(args)
    try:
        return asyncio.run(amain(build_config(args)))
    except ClusterError as exc:
        print(f"serve: {exc}", flush=True)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve", description=__doc__
    )
    add_serve_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
