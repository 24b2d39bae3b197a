"""End-to-end serve smoke: ``python -m repro.serve.smoke``.

Runs a table of scenarios against real ``repro serve`` subprocesses,
each with a scratch cache dir, history file and (optionally) chaos
spec, over one shared harness:

* ``coalesce`` — three concurrent clients submit the same uncached
  figure: one computation (``serve.coalesce_hits == 2``), identical
  streamed results, ``/cache/stats`` populated, SIGTERM drain.
* ``crash-resume@<point>`` for ``started``, ``progress`` and
  ``result`` — a chaos rule SIGKILLs the server at that publish
  (after the event is journaled, before any subscriber sees it); the
  server restarts **on the same port**, recovers the journal, and the
  resilient client resumes: every seq exactly once, gapless from 1,
  result digest equal to an uninterrupted run's.
* ``hang-rebuild`` — a server with ``--jobs 2 --task-timeout 5
  --retries 1`` and a chaos rule that hangs one app: that submit times
  out, the server terminates and discards its worker pool, and the
  retry ends ``done ok``; a second, distinct submit runs on the rebuilt
  pool; the drain leaves no worker process behind and writes a history
  record.  Worker processes are read from ``/proc`` (Linux).

Every server is drained with SIGTERM (exit 0, "queue drained") unless
a scenario kills it.  On failure a scenario's ``<cache>/jobs`` dir is
copied to ``./serve-smoke-<scenario>/``.  Takes no options; exit
status 0 when every row passes.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import Callable, Dict, Iterator, List, Optional, Set

from repro.faults import chaos
from repro.serve import client
from repro.serve.journal import JournalStore, job_summary

#: Shared by the three coalescing clients — identical, so it coalesces.
FIGURE_REQUEST = {"kind": "experiment", "name": "figure-3", "quick": True}
APP_REQUEST = {"kind": "app", "app": "array-insert", "pages": 2.0, "tenant": "smoke"}
CRASH_POINTS = ("started", "progress", "result")

BOOT_TIMEOUT_S = 30.0
STREAM_TIMEOUT_S = 300.0
#: ``--task-timeout`` of the hang-rebuild row.
HANG_TIMEOUT_S = 5.0

Events = List[Dict[str, object]]


class Server:
    """One ``repro serve`` subprocess with its stdout pumped to a list."""

    def __init__(self, args: List[str], env: Dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        self.lines: List[str] = []
        self.base_url = ""
        self.listening = threading.Event()

        def pump() -> None:  # pipes must never fill
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                sys.stdout.write(f"[server] {line}")
                if not self.base_url and line.startswith("serve: listening on "):
                    self.base_url = line.split("on ", 1)[1].split()[0]
                    self.listening.set()
            self.listening.set()  # EOF: unblock the boot wait

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()

    @property
    def port(self) -> int:
        return int(self.base_url.rsplit(":", 1)[1])

    def workers(self) -> Set[int]:
        """Pids of this server's child processes: its pool workers."""
        pids: Set[int] = set()
        for path in glob.glob(f"/proc/{self.proc.pid}/task/*/children"):
            try:
                with open(path) as fh:
                    pids.update(int(pid) for pid in fh.read().split())
            except OSError:
                pass  # the thread exited
        return pids


    def wait_for_line(self, text: str, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while not any(text in line for line in self.lines):
            assert time.monotonic() < deadline, f"no {text!r} in {self.lines}"
            time.sleep(0.05)

    def expect_killed(self) -> None:
        rc = self.proc.wait(timeout=BOOT_TIMEOUT_S + STREAM_TIMEOUT_S)
        assert rc == -signal.SIGKILL, f"server exited {rc}, expected SIGKILL"
        print(f"smoke: server at {self.base_url} killed by chaos", flush=True)

    def drain(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        rc = self.proc.wait(timeout=60)
        self._pump.join(10)
        assert rc == 0, f"server exited {rc} on SIGTERM"
        assert any("queue drained" in line for line in self.lines), (
            "server did not report a drained queue"
        )


class Harness:
    """Scratch state and server processes for one scenario row."""

    def __init__(self, tmp: str) -> None:
        self.tmp = tmp
        self.cache_dir = os.path.join(tmp, "cache")
        self.history_path = os.path.join(tmp, "history.jsonl")
        self.chaos_spec: Optional[str] = None
        self.servers: List[Server] = []

    def arm(self, rules: List[Dict[str, object]]) -> None:
        """Chaos rules for every server started afterwards.  Claim
        markers persist in the state dir, so a restart cannot re-fire."""
        self.chaos_spec = os.path.join(self.tmp, "chaos.json")
        chaos.write_spec(self.chaos_spec, os.path.join(self.tmp, "chaos-state"), rules)

    def start(self, *args: str, port: int = 0) -> Server:
        env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir,
                   REPRO_HISTORY_PATH=self.history_path)
        env.setdefault("PYTHONUNBUFFERED", "1")
        env.pop(chaos.CHAOS_ENV, None)
        if self.chaos_spec:
            env[chaos.CHAOS_ENV] = self.chaos_spec
        server = Server(["--port", str(port), *args], env)
        self.servers.append(server)  # killed at scenario exit, even if boot fails
        if not server.listening.wait(BOOT_TIMEOUT_S) or not server.base_url:
            raise AssertionError(f"server did not listen (rc={server.proc.poll()})")
        return server

    def journals(self) -> JournalStore:
        return JournalStore(os.path.join(self.cache_dir, "jobs"))

    def history(self) -> Events:
        with open(self.history_path) as fh:
            return [json.loads(line) for line in fh if line.strip()]


@contextlib.contextmanager
def scenario(name: str) -> Iterator[Harness]:
    slug = name.replace("@", "-")
    tmp = tempfile.mkdtemp(prefix=f"repro-serve-smoke-{slug}-")
    harness = Harness(tmp)
    try:
        yield harness
    except BaseException:
        artifact = f"serve-smoke-{slug}"
        shutil.rmtree(artifact, ignore_errors=True)
        os.makedirs(artifact)
        src = os.path.join(harness.cache_dir, "jobs")
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(artifact, "jobs"))
        print(f"smoke: {name} state preserved at ./{artifact}", flush=True)
        raise
    finally:
        for server in harness.servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait(timeout=10)
        shutil.rmtree(tmp, ignore_errors=True)


def in_background(fn: Callable[[], Events]) -> Callable[[], Events]:
    """Run ``fn`` on a thread; the returned join re-raises its error."""
    out: Dict[str, object] = {}

    def run() -> None:
        try:
            out["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - re-raised by join
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def join() -> Events:
        thread.join(STREAM_TIMEOUT_S)
        assert not thread.is_alive(), "client did not finish in time"
        if "error" in out:
            raise AssertionError(f"client failed: {out['error']!r}")
        return out["value"]  # type: ignore[return-value]

    return join


def resilient(base_url: str, request: Dict[str, object]) -> Callable[[], Events]:
    return in_background(lambda: list(client.stream_submit_resilient(
        base_url, dict(request), reconnects=12, backoff_s=0.5,
        timeout=STREAM_TIMEOUT_S,
        log=lambda msg: print(f"[client] {msg}", flush=True),
    )))


def result_digest(events: Events) -> str:
    """Digest of the result payloads, ignoring ``seq``/``job``/``cached``."""
    keep = [
        {k: e.get(k) for k in ("task", "mode", "values", "error")}
        for e in events
        if e.get("event") == "result"
    ]
    blob = json.dumps(keep, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def assert_resumed_stream(events: Events) -> List[str]:
    """A stitched stream: ends ok, resumed at least once, gapless seqs."""
    kinds = [str(e.get("event")) for e in events]
    assert kinds[-1] == "done" and events[-1].get("ok") is True, events[-1]
    assert kinds.count("accepted") >= 2, "client never resumed"
    assert any(e.get("resumed") for e in events), "no resumed accept"
    seqs = [e["seq"] for e in events if "seq" in e]
    assert seqs == list(range(1, len(seqs) + 1)), f"seqs not gapless: {seqs}"
    return kinds


def assert_clean_digest(base_url: str, request: Dict[str, object], events: Events) -> None:
    clean = list(client.stream_submit(base_url, dict(request), timeout=STREAM_TIMEOUT_S))
    assert clean[-1].get("ok") is True, clean[-1]
    assert result_digest(events) == result_digest(clean), (
        "resumed results differ from a clean run"
    )


# ----------------------------------------------------------------------
# Scenario rows


def coalesce(h: Harness) -> None:
    server = h.start()
    joins = [
        in_background(lambda i=i: list(client.stream_submit(
            server.base_url, dict(FIGURE_REQUEST, tenant=f"tenant-{i}"),
            timeout=STREAM_TIMEOUT_S,
        )))
        for i in range(3)
    ]
    results = [join() for join in joins]
    for i, events in enumerate(results):
        assert events[0].get("event") == "accepted", f"client {i}: {events[:3]}"
        assert events[-1].get("event") == "done" and events[-1].get("ok") is True, (
            f"client {i} did not finish ok: {events[-1]}"
        )
    streamed = [
        [json.dumps(e, sort_keys=True) for e in events if e.get("event") == "result"]
        for events in results
    ]
    assert streamed[0], "no result events streamed"
    assert streamed[1] == streamed[0] and streamed[2] == streamed[0], (
        "clients streamed different results"
    )
    coalesced = sorted(bool(events[0].get("coalesced")) for events in results)
    assert coalesced == [False, True, True], f"accept flags {coalesced}"
    metrics = client.get_json(server.base_url, "/metrics")
    assert metrics["serve.jobs_total"] == 1, metrics
    assert metrics["serve.coalesce_hits"] == 2, metrics
    assert metrics["serve.requests_total"] == 3, metrics
    cache_stats = client.get_json(server.base_url, "/cache/stats")
    assert cache_stats["entries"] > 0, cache_stats
    server.drain()


def crash_resume(h: Harness, point: str) -> None:
    h.arm([{"match": f"serve.publish:{point}", "mode": "kill", "times": 1}])
    first = h.start()
    join = resilient(first.base_url, APP_REQUEST)
    first.expect_killed()
    store = h.journals()
    job_ids = store.job_ids()
    assert len(job_ids) == 1, f"expected one journal, found {job_ids}"
    assert not job_summary(store.read(job_ids[0]))["done"], (
        "the killed job's journal must be incomplete"
    )
    # Same port, same cache: recovery runs while the client backs off.
    second = h.start(port=first.port)
    events = join()
    kinds = assert_resumed_stream(events)
    assert "recovered" in kinds, "journal recovery event missing"
    summary = job_summary(store.read(job_ids[0]))
    assert summary["done"] and summary["ok"], summary
    second.wait_for_line("recovered 1 journaled job")
    assert_clean_digest(second.base_url, APP_REQUEST, events)
    second.drain()


def wait_until(condition: Callable[[], object], what: str, timeout: float = 30.0):
    """Poll ``condition`` until it returns something truthy; return it."""
    deadline = time.monotonic() + timeout
    while True:
        value = condition()
        if value:
            return value
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)


def hang_rebuild(h: Harness) -> None:
    h.arm([{"match": APP_REQUEST["app"], "mode": "hang", "times": 1, "hang_s": 120.0}])
    server = h.start(
        "--jobs", "2", "--task-timeout", str(HANG_TIMEOUT_S), "--retries", "1"
    )
    join = in_background(lambda: list(client.stream_submit(
        server.base_url, dict(APP_REQUEST), timeout=STREAM_TIMEOUT_S,
    )))
    hung_pool = wait_until(server.workers, "the worker pool to start")
    events = join()
    (sweep,) = [e for e in events if e.get("event") == "sweep"]
    assert events[-1].get("ok") is True, events[-1]
    assert sweep["retried"] == 1 and sweep["failed"] == 0, sweep
    wait_until(lambda: not server.workers() & hung_pool, "the hung pool to exit")
    rebuilt = server.workers()
    assert rebuilt, "no worker pool after the retry"
    second = list(client.stream_submit(
        server.base_url, dict(APP_REQUEST, app="database"),
        timeout=STREAM_TIMEOUT_S,
    ))
    assert second[-1].get("ok") is True, second[-1]
    workers = server.workers()
    assert rebuilt <= workers, f"pool rebuilt again: {rebuilt} -> {workers}"
    server.drain()
    left = [pid for pid in hung_pool | workers if os.path.exists(f"/proc/{pid}")]
    assert not left, f"worker processes outlived the drain: {left}"
    serve_records = [r for r in h.history() if r.get("kind") == "serve"]
    assert serve_records and "admission" in serve_records[-1], serve_records


SCENARIOS: Dict[str, Callable[[Harness], None]] = {
    "coalesce": coalesce,
    **{
        f"crash-resume@{point}": (lambda h, point=point: crash_resume(h, point))
        for point in CRASH_POINTS
    },
    "hang-rebuild": hang_rebuild,
}


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: python -m repro.serve.smoke  (takes no options)", file=sys.stderr)
        return 2
    failed: List[str] = []
    for name, run in SCENARIOS.items():
        print(f"smoke: --- {name} ---", flush=True)
        t0 = time.perf_counter()
        try:
            with scenario(name) as h:
                run(h)
        except Exception:  # noqa: BLE001 - reported, then the next row runs
            traceback.print_exc()
            failed.append(name)
            print(f"smoke: {name} FAILED", flush=True)
            continue
        print(f"smoke: {name} passed ({time.perf_counter() - t0:.1f}s)", flush=True)
    if failed:
        print(f"smoke: {len(failed)} scenario(s) failed: {', '.join(failed)}", flush=True)
        return 1
    print(f"smoke: all {len(SCENARIOS)} scenarios passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
