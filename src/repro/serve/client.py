"""Thin streaming client for the sweep server: ``python -m repro submit``.

Speaks the same minimal HTTP the server does, over a plain blocking
socket — usable from scripts, the CLI, and the CI smoke without any
HTTP library.  ``stream_submit`` yields decoded events as the server
emits them; ``get_json`` fetches the one-shot endpoints
(``/metrics``, ``/cache/stats``, ``/healthz``).

:func:`stream_submit_resilient` is the durable wrapper the CLI uses:
it tracks the job id and the last ``seq`` it saw, and on a dropped
connection reconnects with exponential backoff and a ``resume``
request (``after_seq`` = last seen), deduplicating by ``seq`` so the
caller observes each event exactly once even across reconnects.  429
and 503 rejections are retried after the server's ``Retry-After``
within a bounded busy budget; exhausting it raises :class:`BusyError`
(CLI exit code ``EXIT_BUSY``).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

DEFAULT_BASE_URL = "http://127.0.0.1:8927"

#: CLI exit codes.
EXIT_OK = 0
EXIT_FAILED = 1  # job finished with ok=false, or server-side error
EXIT_CONNECT = 7  # could not reach / talk to the server
EXIT_BUSY = 8  # server kept answering 429/503 past the retry budget


class ServerError(Exception):
    """A non-200 response from the server."""

    def __init__(
        self,
        status: int,
        payload: object,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})

    def retry_after(self, default: float = 1.0) -> float:
        """The server's ``Retry-After`` delay in seconds (>= 0)."""
        try:
            value = float(self.headers.get("retry-after", default))
        except (TypeError, ValueError):
            return default
        return max(0.0, value)


class BusyError(Exception):
    """429/503 retries exhausted the busy budget; give up distinctly."""

    def __init__(self, last: ServerError, spent_s: float) -> None:
        super().__init__(
            f"server still busy after {spent_s:.1f}s of Retry-After waits: {last}"
        )
        self.last = last
        self.spent_s = spent_s


def _split_base_url(base_url: str) -> Tuple[str, int]:
    parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
    if not parts.hostname:
        raise ValueError(f"invalid base URL {base_url!r}")
    return parts.hostname, parts.port or 80


def _request(
    base_url: str,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    accept: Optional[str] = None,
    timeout: Optional[float] = 300.0,
) -> Tuple[int, Dict[str, str], "socket.SocketIO"]:
    """Send one request; return ``(status, headers, response-file)``."""
    host, port = _split_base_url(base_url)
    sock = socket.create_connection((host, port), timeout=timeout)
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
    if accept:
        head.append(f"Accept: {accept}")
    if body is not None:
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    head.append("Connection: close")
    sock.sendall("\r\n".join(head).encode() + b"\r\n\r\n" + (body or b""))
    fh = sock.makefile("rb")
    sock.close()  # the makefile keeps the connection alive

    status_line = fh.readline().decode("latin-1").strip()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        fh.close()
        raise ConnectionError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = fh.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, fh


def get_json(base_url: str, path: str, timeout: Optional[float] = 30.0) -> object:
    """GET one of the JSON endpoints and decode the body."""
    status, headers, fh = _request(base_url, "GET", path, timeout=timeout)
    with fh:
        length = int(headers.get("content-length", "0") or "0")
        raw = fh.read(length) if length else fh.read()
    payload = json.loads(raw.decode("utf-8")) if raw else None
    if status != 200:
        raise ServerError(status, payload, headers)
    return payload


def stream_submit(
    base_url: str,
    request: Dict[str, object],
    sse: bool = False,
    timeout: Optional[float] = None,
) -> Iterator[Dict[str, object]]:
    """POST a submit request and yield each event until ``done``.

    Raises :class:`ServerError` on rejection (400/429/503) and
    ``ConnectionError``/``OSError`` when the server is unreachable.
    """
    body = json.dumps(request, sort_keys=True).encode("utf-8")
    status, headers, fh = _request(
        base_url,
        "POST",
        "/submit",
        body=body,
        accept="text/event-stream" if sse else "application/x-ndjson",
        timeout=timeout,
    )
    with fh:
        if status != 200:
            raw = fh.read()
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = raw.decode("utf-8", "replace")
            raise ServerError(status, payload, headers)
        for line in fh:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            if sse:
                if not text.startswith("data:"):
                    continue
                text = text[len("data:"):].strip()
            yield json.loads(text)


def stream_submit_resilient(
    base_url: str,
    request: Dict[str, object],
    sse: bool = False,
    timeout: Optional[float] = None,
    reconnects: int = 5,
    backoff_s: float = 0.25,
    backoff_cap_s: float = 8.0,
    retry_budget_s: float = 60.0,
    sleep: Callable[[float], None] = time.sleep,
    transport: Optional[Callable[..., Iterator[Dict[str, object]]]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Iterator[Dict[str, object]]:
    """Stream a submit to completion across disconnects and busy spells.

    Yields each event exactly once (deduplicated by ``seq``, which the
    server keeps gapless per job even across a restart).
    On a dropped connection the stream is re-established with a
    ``resume`` request carrying the last seen ``seq``, after an
    exponential backoff (``backoff_s * 2**(attempt-1)``, capped at
    ``backoff_cap_s``); more than ``reconnects`` consecutive failed
    attempts re-raises the connection error.  429/503 rejections sleep
    the server's ``Retry-After`` and retry until ``retry_budget_s``
    cumulative waiting is exhausted, then raise :class:`BusyError`.

    ``sleep`` and ``transport`` are injection seams (tests substitute
    a fake clock and a scripted stream); ``transport`` defaults to
    :func:`stream_submit` and is called as
    ``transport(base_url, request, sse=..., timeout=...)``.
    """
    send = transport if transport is not None else stream_submit
    notify = log if log is not None else (lambda _msg: None)
    job_id: Optional[str] = None
    if request.get("kind") == "resume" and isinstance(request.get("job"), str):
        job_id = str(request["job"])
    last_seq = int(request.get("after_seq", 0) or 0)  # type: ignore[call-overload]
    attempt = 0
    busy_spent = 0.0

    while True:
        if job_id is None:
            current: Dict[str, object] = dict(request)
        else:
            current = {"kind": "resume", "job": job_id, "after_seq": last_seq}
            if "tenant" in request:
                current["tenant"] = request["tenant"]
        try:
            for event in send(base_url, current, sse=sse, timeout=timeout):
                seq = event.get("seq")
                if isinstance(seq, int) and not isinstance(seq, bool):
                    if seq <= last_seq:
                        continue  # replayed duplicate from a reconnect
                    last_seq = seq
                if event.get("event") == "accepted" and isinstance(
                    event.get("job"), str
                ):
                    job_id = str(event["job"])
                attempt = 0  # data flowed; reset the backoff ladder
                yield event
                if event.get("event") == "done":
                    return
            # Stream closed without a done event: a graceful-looking
            # disconnect is still a disconnect.
            raise ConnectionError("stream ended before the job finished")
        except ServerError as exc:
            if exc.status not in (429, 503):
                raise
            delay = exc.retry_after()
            if busy_spent + delay > retry_budget_s:
                raise BusyError(exc, busy_spent) from exc
            notify(f"server busy (HTTP {exc.status}); retrying in {delay:g}s")
            sleep(delay)
            busy_spent += delay
        except (ConnectionError, socket.timeout, OSError) as exc:
            attempt += 1
            if attempt > reconnects:
                raise
            delay = min(backoff_s * (2 ** (attempt - 1)), backoff_cap_s)
            notify(
                f"connection lost ({exc}); reconnect {attempt}/{reconnects} "
                f"in {delay:g}s"
                + (f" (resume after seq {last_seq})" if job_id else "")
            )
            sleep(delay)


# ----------------------------------------------------------------------
# CLI


def _build_request(args: argparse.Namespace) -> Dict[str, object]:
    from repro.serve.protocol import canonical_experiment

    if args.target == "app":
        request: Dict[str, object] = {
            "kind": "app",
            "app": args.app,
            "mode": args.mode,
            "pages": args.pages,
            "seed": args.seed,
        }
        if args.exact:
            request["exact"] = True
    elif args.target == "fuzz":
        request = {
            "kind": "fuzz",
            "seed": args.seed,
            "max_cases": args.max_cases,
        }
    else:
        request = {
            "kind": "experiment",
            "name": canonical_experiment(args.target),
            "quick": bool(args.quick),
        }
    request["tenant"] = args.tenant
    return request


def _print_event(event: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(json.dumps(event, sort_keys=True), flush=True)
        return
    kind = event.get("event")
    if kind == "heartbeat":
        return  # liveness chatter; visible only with --json
    if kind == "accepted":
        if event.get("resumed"):
            suffix = f" (resumed after seq {event.get('after_seq')})"
        elif event.get("coalesced"):
            suffix = " (coalesced onto an in-flight job)"
        else:
            suffix = ""
        print(f"accepted: job {event.get('job')}{suffix}", flush=True)
    elif kind == "queued":
        print(f"queued (depth {event.get('queue_depth')})", flush=True)
    elif kind == "recovered":
        print("recovered from journal (re-running after a server restart)", flush=True)
    elif kind == "started":
        print("started", flush=True)
    elif kind == "progress":
        state = "cache" if event.get("cached") else ("ok" if event.get("ok") else "FAIL")
        print(
            f"  [{event.get('completed')}] {event.get('task')} {state}",
            flush=True,
        )
    elif kind == "log":
        print(f"  {event.get('line')}", flush=True)
    elif kind == "result":
        rendered = event.get("rendered")
        if rendered:
            print(rendered, flush=True)
        else:
            print(
                f"result {event.get('task')}: "
                f"{event.get('error') or event.get('values')}",
                flush=True,
            )
    elif kind == "sweep":
        print(
            f"sweep: {event.get('tasks')} tasks, {event.get('hits')} cache hits, "
            f"{event.get('failed')} failed",
            flush=True,
        )
    elif kind == "error":
        print(f"error: {event.get('error')}", file=sys.stderr, flush=True)
    elif kind == "done":
        print(
            f"done: ok={event.get('ok')} wall={event.get('wall_s')}s",
            flush=True,
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit work to a running sweep server and stream its events. "
            "TARGET is an experiment name (figure-3 / fig3 / table-4), "
            "'app' for a single task, 'fuzz' for a bounded fuzz run, "
            "'job:<id>' for one job's status, or 'metrics' / "
            "'cache-stats' / 'health' to query the server.  With "
            "--resume JOB, TARGET may be omitted."
        ),
    )
    parser.add_argument("target", nargs="?", default=None, metavar="TARGET")
    parser.add_argument("--base-url", default=DEFAULT_BASE_URL)
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    parser.add_argument("--app", help="app name (TARGET=app)")
    parser.add_argument("--pages", type=float, default=8.0)
    parser.add_argument("--mode", choices=("speedup", "constants"), default="speedup")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exact", action="store_true", help="no page cap (TARGET=app)")
    parser.add_argument("--max-cases", type=int, default=50, help="TARGET=fuzz")
    parser.add_argument("--sse", action="store_true", help="request text/event-stream")
    parser.add_argument("--json", action="store_true", help="print raw event JSON")
    parser.add_argument(
        "--resume", metavar="JOB", default=None,
        help="re-attach to a job id instead of submitting new work",
    )
    parser.add_argument(
        "--reconnects", type=int, default=5, metavar="N",
        help="reconnect-and-resume attempts after a dropped stream",
    )
    parser.add_argument(
        "--retry-budget", type=float, default=60.0, metavar="S",
        help="total Retry-After waiting tolerated on 429/503",
    )
    args = parser.parse_args(argv)

    queries = {"metrics": "/metrics", "cache-stats": "/cache/stats", "health": "/healthz"}
    if args.target is None and not args.resume:
        parser.error("TARGET is required unless --resume JOB is given")
    try:
        if args.target in queries:
            print(json.dumps(get_json(args.base_url, queries[args.target]), indent=2))
            return EXIT_OK
        if args.target and args.target.startswith("job:"):
            status = get_json(args.base_url, f"/jobs/{args.target[len('job:'):]}")
            print(json.dumps(status, indent=2))
            return EXIT_OK
        if args.resume:
            request: Dict[str, object] = {
                "kind": "resume",
                "job": args.resume,
                "after_seq": 0,
                "tenant": args.tenant,
            }
        else:
            if args.target == "app" and not args.app:
                parser.error("TARGET=app requires --app NAME")
            request = _build_request(args)
        ok = False
        for event in stream_submit_resilient(
            args.base_url,
            request,
            sse=args.sse,
            reconnects=args.reconnects,
            retry_budget_s=args.retry_budget,
            log=lambda msg: print(f"submit: {msg}", file=sys.stderr, flush=True),
        ):
            _print_event(event, args.json)
            if event.get("event") == "done":
                ok = bool(event.get("ok"))
        return EXIT_OK if ok else EXIT_FAILED
    except BusyError as exc:
        print(f"submit: giving up: {exc}", file=sys.stderr)
        return EXIT_BUSY
    except ServerError as exc:
        print(f"submit: rejected: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ConnectionError, socket.timeout, OSError) as exc:
        print(
            f"submit: cannot reach server at {args.base_url}: {exc}",
            file=sys.stderr,
        )
        return EXIT_CONNECT


if __name__ == "__main__":
    raise SystemExit(main())
