"""The asyncio sweep server: ``python -m repro serve``.

Module map of :mod:`repro.serve`, following one request:

* :mod:`repro.serve.protocol` — the wire format: minimal HTTP, submit
  parsing and validation, ndjson/SSE event framing.
* this module — the HTTP front-end: :class:`ServeConfig`, routing,
  ``POST /submit`` (request-level single-flight: identical in-flight
  requests attach to one job), resume, ``/metrics``, ``/jobs/<id>``,
  ``/cluster``, ``/cache/stats``, the drain-time history record and
  the CLI entry point.  SIGTERM/SIGINT drains: new submits get 503,
  queued and running jobs complete, then the process exits 0.
* :mod:`repro.serve.lifecycle` — the job lifecycle: weighted fair
  per-tenant queueing with a bounded queue (429 beyond ``max_queue``),
  at most ``concurrency`` jobs on worker threads, journal-before-emit
  event fan-out, and recovery and adoption of incomplete journals.
* :mod:`repro.serve.scheduler` — task-level single-flight and the
  harness's process pool, timeouts and retries.
* :mod:`repro.serve.journal` — the fsynced per-job journals under
  ``<cache>/jobs/``.
* :mod:`repro.serve.cluster` — the standalone or shard role: hash-ring
  routing (``307`` to the owning shard), leases, epoch fencing and
  dead-peer takeover under ``<cache>/cluster/``, and the ``--cluster
  N`` launcher.
* :mod:`repro.serve.client` — the streaming client (``python -m repro
  submit``); :mod:`repro.serve.smoke` — the end-to-end smoke over real
  server processes (``python -m repro.serve.smoke``).

``docs/serving.md`` describes the behaviour end to end.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import harness
from repro.faults import chaos
from repro.serve import cluster as cluster_mod
from repro.serve import journal as journal_mod
from repro.serve import protocol
from repro.serve.cluster import ClusterError, Shard, Standalone
from repro.serve.lifecycle import (  # noqa: F401 - FairQueue is re-exported
    FairQueue,
    Job,
    JobLifecycle,
    recoverable_request,
)
from repro.trace.metrics import MetricsRegistry

#: Default TCP port (unassigned range; "AP" on a phone keypad is 27).
DEFAULT_PORT = 8927

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


class SweepServer:
    """The long-running multi-tenant simulation service (HTTP front-end)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = MetricsRegistry()
        self.serve_ns = self.registry.namespace("serve")
        cache_dir = Path(config.job_settings().resolve_cache_dir())
        self.node: Standalone = (
            Shard(
                cache_dir / cluster_mod.CLUSTER_DIRNAME,
                config.shard_index or 0,
                config.shards,
                config.lease_ttl_s,
                self.registry.namespace("cluster"),
            )
            if config.shards > 1 or config.shard_index is not None
            else Standalone()
        )
        self.lifecycle = JobLifecycle(config, self.node, self.registry)
        self.queue = self.lifecycle.queue
        self.jobs_by_id = self.lifecycle.jobs_by_id
        self.executor = self.lifecycle.executor
        self.recovered_jobs = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._heartbeat: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> List[Tuple[str, int]]:
        # Bind first: in cluster mode the lease advertises the *actual*
        # listen address (--port 0 picks a free port).  Recovery still
        # runs before any request is served — it is synchronous on the
        # loop thread, so accepted connections queue behind it.
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        host, port = self.addresses()[0]
        try:
            self.node.join(self.config.advertise or f"{host}:{port}")
        except ClusterError:
            self._server.close()
            raise
        self.recovered_jobs = self.lifecycle.start()
        if isinstance(self.node, Shard):
            self._heartbeat = asyncio.ensure_future(
                self.node.heartbeat(
                    self.lifecycle.drained,
                    self.request_shutdown,
                    self.lifecycle.sweep_dead_peers,
                )
            )
        return self.addresses()

    def addresses(self) -> List[Tuple[str, int]]:
        assert self._server is not None
        return [s.getsockname()[:2] for s in self._server.sockets]

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        self.lifecycle.drain()

    async def wait_drained(self) -> None:
        assert self.lifecycle.drained is not None
        await self.lifecycle.drained.wait()

    async def close(self) -> None:
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Streams tail their jobs; drained jobs are done, so give the
        # writers one scheduling round to flush and close.
        await asyncio.sleep(0.05)
        self.executor.shutdown(wait=True)
        # The lease goes only after the drain: while jobs were still
        # finishing, peers must not have considered this slot dead and
        # fenced it mid-write.
        self.node.leave()

    # ------------------------------------------------------------------
    # HTTP handling (event-loop thread)

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers, body = await protocol.read_request(reader)
            except protocol.ProtocolError as exc:
                await _reply(writer, 400, {"error": str(exc)})
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
        status, payload = 200, None
        if method != "GET":
            status, payload = 405, {"error": f"{method} unsupported"}
        elif path == "/healthz":
            payload = {
                "ok": True,
                "draining": self.lifecycle.draining,
                "active_jobs": self.lifecycle.active,
                "queued_jobs": len(self.queue),
            }
        elif path == "/metrics":
            payload = self.metrics_snapshot()
        elif path == "/cluster":
            payload = self.node.status()
        elif path == "/cache/stats":
            cache = harness.ResultCache(
                self.config.job_settings().resolve_cache_dir()
            )
            payload = cache.stats()
        elif path.startswith("/jobs/"):
            status, payload = self.lifecycle.status(path[len("/jobs/"):])
        elif path == "/":
            payload = {
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
            }
        else:
            status, payload = 404, {"error": f"no route {path}"}
        await _reply(writer, status, payload)

    def metrics_snapshot(self) -> Dict[str, float]:
        """The registry with the point-in-time gauges refreshed."""
        queued, active = float(len(self.queue)), float(self.lifecycle.active)
        self.serve_ns.counter("queue_depth").set(queued)
        self.serve_ns.counter("active_jobs").set(active)
        self.serve_ns.counter("inflight_tasks").set(
            float(len(self.lifecycle.singleflight.inflight_keys()))
        )
        self.node.refresh_gauges(queued, active)
        return self.registry.as_dict()

    async def _handle_submit(
        self, headers: Dict[str, str], body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = protocol.parse_submit(json.loads(body.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            await _reply(writer, 400, {"error": f"invalid JSON body: {exc}"})
            return
        except protocol.ProtocolError as exc:
            await _reply(writer, 400, {"error": str(exc)})
            return

        self.serve_ns.counter("requests_total").add()
        self.serve_ns.counter(f"tenant.{request.tenant}.requests").add()
        sse = "text/event-stream" in headers.get("accept", "")

        if request.kind == "resume":
            await self._handle_resume(request, sse, writer)
            return

        if self.lifecycle.draining:
            await _reply(
                writer, 503,
                {"error": "server is draining; not accepting new work"},
                "Retry-After: 5",
            )
            return

        key = request.coalesce_key()
        job = self.lifecycle.jobs_by_key.get(key)
        coalesced = job is not None
        if coalesced:
            self.serve_ns.counter("coalesce_hits").add()
        else:
            # A job already live here (e.g. adopted in a takeover)
            # coalesces locally; only *new* keys route by the ring.
            redirect = self.node.redirect_for(key)
            if redirect is not None:
                await _redirect(writer, *redirect)
                return
            if len(self.queue) >= self.config.max_queue:
                self.serve_ns.counter("rejected_total").add()
                await _reply(
                    writer, 429,
                    {"error": "queue full", "max_queue": self.config.max_queue},
                    "Retry-After: 1",
                )
                return
            job = self.lifecycle.admit(key, request)
        await self._attach(writer, sse, job, coalesced=coalesced)

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
            await self._attach(
                writer, sse, job, coalesced=True, resumed=True,
                after_seq=after_seq,
            )
            return

        # Not live: replay straight from the journal on disk.
        records = self.lifecycle.journals.read(job_id)
        if not records:
            await _reply(writer, 404, {"error": f"unknown job {job_id}"})
            return
        summary = journal_mod.job_summary(records)
        if not summary["done"] and isinstance(self.node, Shard):
            # Incomplete and not live here.  Either the owner is a live
            # peer (redirect the client there) or it is dead — adopt
            # the job *now* rather than make the client wait for the
            # periodic sweep, and stream the stitched result.
            parsed = recoverable_request(summary)
            key = parsed[1] if parsed is not None else str(summary["key"] or "")
            redirect = self.node.redirect_for(key) if key else None
            if redirect is not None:
                await _redirect(writer, *redirect, job=job_id)
                return
            job = self.lifecycle.adopt(job_id, summary)
            if job is not None:
                await self._attach(
                    writer, sse, job, coalesced=True, resumed=True,
                    adopted=True, after_seq=after_seq,
                )
                return
        replay = [
            record["event"]
            for record in records
            if record.get("type") == "event"
            and isinstance(record.get("event"), dict)
            and int(record.get("seq", 0)) > after_seq  # type: ignore[call-overload]
        ]
        if not summary["done"]:
            # Incomplete journal with no live job (e.g. the job predates
            # recovery): the stream cannot complete here — tell the
            # client to resubmit.
            replay += [
                {
                    "event": "error",
                    "job": job_id,
                    "error": "job is not running on this server; "
                    "resubmit the original request",
                },
                {"event": "done", "ok": False, "job": job_id},
            ]
        await self._attach(
            writer, sse, None, replay, job=job_id, kind=summary["kind"],
            tenant=summary["tenant"], coalesced=False, resumed=True,
            after_seq=after_seq, from_journal=True,
        )

    async def _attach(
        self,
        writer: asyncio.StreamWriter,
        sse: bool,
        live: Optional[Job],
        replay: Sequence[Dict[str, object]] = (),
        **accepted: object,
    ) -> None:
        """Answer a submit or resume: the stream head, an ``accepted``
        event with the ``accepted`` fields, then the job's events.

        Those come live from ``live`` (starting after the resume's
        ``after_seq``) or, for a job no longer running, are the journaled
        ``replay``.
        """
        if live is not None:
            live.subscribers += 1
            accepted = dict(
                job=live.job_id, kind=live.request.kind,
                tenant=live.request.tenant, **accepted,
            )
        if accepted.get("resumed"):
            self.serve_ns.counter("resumed_total").add()
        writer.write(protocol.stream_head(sse))
        writer.write(protocol.encode_event({"event": "accepted", **accepted}, sse))
        for event in replay:
            writer.write(protocol.encode_event(event, sse))
        await writer.drain()
        if live is not None:
            after_seq = int(accepted.get("after_seq", 0))  # type: ignore[call-overload]
            await self._stream_job(live, after_seq, sse, writer)

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


async def _reply(
    writer: asyncio.StreamWriter, status: int, payload: object, *headers: str
) -> None:
    """Write one complete JSON response."""
    writer.write(protocol.json_response(status, payload, headers))
    await writer.drain()


async def _redirect(
    writer: asyncio.StreamWriter, owner: int, location: str, **extra: object
) -> None:
    """307 a client to the shard that owns its key."""
    writer.write(
        protocol.redirect_response(
            location,
            {"event": "redirect", "shard": owner, "location": location, **extra},
        )
    )
    await writer.drain()


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
    record.update(server.node.history(metric))
    return record


def append_serve_history(server: SweepServer) -> Optional[Path]:
    """Append the drain summary (best-effort) to ``$REPRO_HISTORY_PATH``,
    else ``<cache>/serve_history.jsonl``: never into the source checkout,
    since the server may run from an installed package."""
    cache_dir = server.config.job_settings().resolve_cache_dir()
    path = Path(os.environ.get(HISTORY_ENV) or cache_dir / "serve_history.jsonl")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            fh.write(json.dumps(serve_history_record(server)) + "\n")
    except OSError:
        return None
    return path


async def amain(config: ServeConfig) -> int:
    server = SweepServer(config)
    await server.start()
    host, port = server.addresses()[0]
    print(
        f"serve: listening on http://{host}:{port} "
        f"(concurrency={config.concurrency}, jobs={config.jobs}, "
        f"max-queue={config.max_queue}{server.node.banner()})",
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
    if args.cluster is not None:
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
