"""Wire format of the sweep service: requests, tasks, event framing.

The server speaks a deliberately small slice of HTTP/1.1 over plain
``asyncio`` streams (no web framework — the repository's no-new-hard-
dependency rule applies to the service too):

* clients ``POST /submit`` a JSON request body;
* the response streams **newline-delimited JSON events**
  (``application/x-ndjson``) — or Server-Sent Events when the request
  carries ``Accept: text/event-stream`` — until the job's final
  ``done`` event;
* ``GET /metrics``, ``GET /cache/stats`` and ``GET /healthz`` return
  one JSON document.

Request kinds (the ``"kind"`` field of the submit body):

``app``
    One :class:`~repro.experiments.harness.SweepTask`: an application
    at a problem size, ``speedup`` or ``constants`` mode, optional
    workload-generator ``params``/``generator`` tag — any
    SweepTask-expressible point, keyed by the content-addressed cache
    key.
``tasks``
    A list of ``app``-shaped specs executed as one sweep.
``experiment``
    A whole figure/table by name (``figure-3`` or the ``fig3`` alias),
    optionally ``quick``.
``fuzz``
    A bounded, seeded fuzzing run (``max_cases`` required so the run is
    deterministic and therefore coalescable).
``resume``
    Re-attach to an existing job by its durable ``job`` id, replaying
    journaled events with sequence numbers greater than the
    client-supplied ``after_seq`` and then tailing live events.  A
    resume creates no work: it streams a finished job's journal from
    disk, or subscribes to the live job.

Every request normalizes to a :class:`SubmitRequest` whose
:meth:`~SubmitRequest.coalesce_key` hashes the canonical payload
*minus the tenant* — two tenants asking for the same work coalesce
onto one job.

Every streamed event carries the job's durable ``job`` id and — for
journaled events — a monotonically increasing ``seq`` (1, 2, …), the
coordinate a client resumes from and deduplicates replays by.
Per-subscriber events (``accepted``, ``heartbeat``) carry ``seq`` only
informationally (the latest journaled value, on heartbeats) and are
never journaled.  Idle streams receive periodic ``heartbeat`` events
so clients (and intermediaries) can tell a slow job from a dead
connection.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Upper bound on request body size (bytes).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on tasks in one ``tasks`` request.
MAX_TASKS_PER_REQUEST = 256

#: Upper bound on fuzz candidates in one ``fuzz`` request.
MAX_FUZZ_CASES = 500

#: Reason phrases for the handful of statuses the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

VALID_KINDS = ("app", "tasks", "experiment", "fuzz", "resume")
VALID_MODES = ("speedup", "constants")


class ProtocolError(Exception):
    """A malformed or unacceptable request (rendered as HTTP 400)."""


# ----------------------------------------------------------------------
# Minimal HTTP plumbing


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP request: ``(method, target, headers, body)``.

    Headers are lower-cased; the body is read per ``Content-Length``
    (bounded by ``max_body``).  Raises :class:`ProtocolError` on
    malformed input and lets stream EOF errors propagate (a client that
    hung up is not a protocol error).
    """
    line = await reader.readline()
    if not line:
        raise ConnectionResetError("client closed before sending a request")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError("malformed Content-Length")
    if length < 0 or length > max_body:
        raise ProtocolError(f"body too large ({length} > {max_body} bytes)")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def json_response(status: int, payload: object, extra_headers: Tuple[str, ...] = ()) -> bytes:
    """A complete, self-delimited JSON response."""
    body = (json.dumps(payload, sort_keys=True, default=str) + "\n").encode()
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
        *extra_headers,
        "",
        "",
    ]
    return "\r\n".join(head).encode("latin-1") + body


def stream_head(sse: bool) -> bytes:
    """Response head opening an event stream (closed by connection end)."""
    content_type = "text/event-stream" if sse else "application/x-ndjson"
    head = [
        "HTTP/1.1 200 OK",
        f"Content-Type: {content_type}",
        "Cache-Control: no-store",
        "Connection: close",
        "",
        "",
    ]
    return "\r\n".join(head).encode("latin-1")


def encode_event(event: Dict[str, object], sse: bool = False) -> bytes:
    """Frame one event as an ndjson line or an SSE ``data:`` block."""
    blob = json.dumps(event, sort_keys=True, default=str)
    if sse:
        return f"data: {blob}\n\n".encode()
    return (blob + "\n").encode()


# ----------------------------------------------------------------------
# Submit requests


def canonical_experiment(name: str) -> str:
    """Resolve ``fig3``/``figure-3``/``table4``-style names; validate."""
    from repro.experiments.report import EXPERIMENTS

    text = str(name).strip().lower()
    if text in EXPERIMENTS:
        return text
    for prefix in ("fig", "table"):
        if text.startswith(prefix):
            suffix = text[len(prefix):].lstrip("-")
            candidate = f"{'figure' if prefix == 'fig' else 'table'}-{suffix}"
            if candidate in EXPERIMENTS:
                return candidate
    raise ProtocolError(
        f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
    )


@dataclass
class SubmitRequest:
    """One validated submit body, normalized for hashing and execution."""

    kind: str
    tenant: str = "default"
    #: normalized, kind-specific fields (tenant excluded) — the
    #: canonical identity the coalesce key hashes.
    spec: Dict[str, object] = field(default_factory=dict)

    def coalesce_key(self) -> str:
        """Content hash of the work requested (tenant-independent)."""
        blob = json.dumps(
            {"kind": self.kind, "spec": self.spec},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _task_spec(payload: Dict[str, object], where: str = "request") -> Dict[str, object]:
    """Validate and normalize one app/task spec."""
    from repro.apps.registry import ALL_APPS
    from repro.sim.memory import DEFAULT_PAGE_BYTES

    app = payload.get("app")
    if not isinstance(app, str) or app not in ALL_APPS:
        raise ProtocolError(
            f"{where}: unknown app {app!r}; available: {sorted(ALL_APPS)}"
        )
    mode = payload.get("mode", "speedup")
    if mode not in VALID_MODES:
        raise ProtocolError(
            f"{where}: mode must be one of {VALID_MODES}, got {mode!r}"
        )
    try:
        pages = float(payload.get("pages", 8.0))
        seed = int(payload.get("seed", 0))
        page_bytes = int(payload.get("page_bytes", DEFAULT_PAGE_BYTES))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{where}: {exc}")
    if pages <= 0:
        raise ProtocolError(f"{where}: pages must be positive")
    if page_bytes <= 0:
        raise ProtocolError(f"{where}: page_bytes must be positive")
    params = payload.get("params")
    if params is not None:
        if not isinstance(params, dict):
            raise ProtocolError(f"{where}: params must be an object")
        try:
            params = {str(k): float(v) for k, v in sorted(params.items())}
        except (TypeError, ValueError):
            raise ProtocolError(f"{where}: params values must be numbers")
    generator = payload.get("generator")
    if generator is not None and not isinstance(generator, str):
        raise ProtocolError(f"{where}: generator must be a string tag")
    spec: Dict[str, object] = {
        "app": app,
        "mode": mode,
        "pages": pages,
        "seed": seed,
        "page_bytes": page_bytes,
    }
    if params:
        spec["params"] = params
    if generator:
        spec["generator"] = generator
    if bool(payload.get("exact", False)):
        spec["exact"] = True
    return spec


def parse_submit(payload: object) -> SubmitRequest:
    """Validate a decoded submit body into a :class:`SubmitRequest`."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    kind = payload.get("kind")
    if kind not in VALID_KINDS:
        raise ProtocolError(
            f"kind must be one of {VALID_KINDS}, got {kind!r}"
        )
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ProtocolError("tenant must be a non-empty string (<= 64 chars)")

    if kind == "app":
        spec: Dict[str, object] = _task_spec(payload)
    elif kind == "tasks":
        raw = payload.get("tasks")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError("tasks requests need a non-empty 'tasks' list")
        if len(raw) > MAX_TASKS_PER_REQUEST:
            raise ProtocolError(
                f"too many tasks ({len(raw)} > {MAX_TASKS_PER_REQUEST})"
            )
        spec = {
            "tasks": [
                _task_spec(item if isinstance(item, dict) else {}, f"tasks[{i}]")
                for i, item in enumerate(raw)
            ]
        }
    elif kind == "experiment":
        spec = {
            "name": canonical_experiment(payload.get("name", "")),
            "quick": bool(payload.get("quick", False)),
        }
    elif kind == "resume":
        from repro.serve.journal import valid_job_id

        job = payload.get("job")
        if not isinstance(job, str) or not valid_job_id(job):
            raise ProtocolError(
                "resume requests need a 'job' id (as issued in the "
                "'accepted' event)"
            )
        after_seq = payload.get("after_seq", 0)
        if not isinstance(after_seq, int) or isinstance(after_seq, bool) \
                or after_seq < 0:
            raise ProtocolError("after_seq must be a non-negative integer")
        spec = {"job": job, "after_seq": after_seq}
    else:  # fuzz
        max_cases = payload.get("max_cases")
        if not isinstance(max_cases, int) or not 1 <= max_cases <= MAX_FUZZ_CASES:
            raise ProtocolError(
                f"fuzz requests need max_cases in 1..{MAX_FUZZ_CASES} "
                "(bounded candidates keep the run deterministic)"
            )
        try:
            seed = int(payload.get("seed", 0))
            tolerance_scale = float(payload.get("tolerance_scale", 1.0))
        except (TypeError, ValueError) as exc:
            raise ProtocolError(str(exc))
        apps = payload.get("apps")
        if apps is not None:
            from repro.apps.registry import FUZZ_APPS

            if not isinstance(apps, list) or not all(
                isinstance(a, str) and a in FUZZ_APPS for a in apps
            ):
                raise ProtocolError(
                    f"fuzz apps must be a list drawn from {sorted(FUZZ_APPS)}"
                )
        spec = {
            "seed": seed,
            "max_cases": max_cases,
            "tolerance_scale": tolerance_scale,
        }
        if apps:
            spec["apps"] = sorted(apps)
    return SubmitRequest(kind=kind, tenant=tenant, spec=spec)


def build_tasks(request: SubmitRequest) -> List[object]:
    """The :class:`SweepTask` list of an ``app``/``tasks`` request."""
    from repro.experiments.harness import constants_task, speedup_task

    specs = (
        [request.spec] if request.kind == "app" else list(request.spec["tasks"])
    )
    tasks = []
    for spec in specs:
        common = dict(
            page_bytes=int(spec["page_bytes"]),
            seed=int(spec["seed"]),
            params=spec.get("params"),
            generator=spec.get("generator"),
        )
        if spec["mode"] == "constants":
            tasks.append(constants_task(spec["app"], spec["pages"], **common))
        else:
            if spec.get("exact"):
                common["cap_pages"] = None
            tasks.append(speedup_task(spec["app"], spec["pages"], **common))
    return tasks
