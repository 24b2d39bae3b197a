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
* ``shard-failover`` — two shards share one cache dir; the client
  submits via shard 1 a request the ring assigns to shard 0, which a
  shard-scoped rule SIGKILLs mid-stream; shard 1 fences slot 0,
  adopts the journal, and serves a gapless resumed stream whose
  digest equals a clean run's; its drain writes a history record.

Every server is drained with SIGTERM (exit 0, "queue drained") unless
a scenario kills it.  On failure a scenario's ``<cache>/jobs`` and
``<cache>/cluster`` dirs are copied to ``./serve-smoke-<scenario>/``.
Takes no options; exit status 0 when every row passes.
"""

from __future__ import annotations

import contextlib
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
from typing import Callable, Dict, Iterator, List, Optional

from repro.faults import chaos
from repro.serve import client, protocol
from repro.serve.cluster import HashRing, read_fence_epoch
from repro.serve.journal import JournalStore, job_summary

#: Shared by the three coalescing clients — identical, so it coalesces.
FIGURE_REQUEST = {"kind": "experiment", "name": "figure-3", "quick": True}
APP_REQUEST = {"kind": "app", "app": "array-insert", "pages": 2.0, "tenant": "smoke"}
CRASH_POINTS = ("started", "progress", "result")

BOOT_TIMEOUT_S = 30.0
STREAM_TIMEOUT_S = 300.0
LEASE_TTL_S = 1.0

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
        for sub in ("jobs", "cluster"):
            src = os.path.join(harness.cache_dir, sub)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(artifact, sub))
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


def request_owned_by_shard_0() -> Dict[str, object]:
    ring = HashRing(2)
    for seed in range(256):
        doc: Dict[str, object] = dict(APP_REQUEST, mode="speedup", seed=seed)
        if ring.owner(protocol.parse_submit(doc).coalesce_key()) == 0:
            return doc
    raise AssertionError("no seed hashed to shard 0")


def shard_failover(h: Harness) -> None:
    h.arm([{"match": "serve.publish:progress", "mode": "kill", "times": 1, "shard": 0}])
    request = request_owned_by_shard_0()
    shard = ["--shards", "2", "--lease-ttl", str(LEASE_TTL_S), "--shard-index"]
    dead = h.start(*shard, "0")
    survivor = h.start(*shard, "1")
    # Submitted via the wrong shard: 307 to shard 0, which dies mid-run.
    join = resilient(survivor.base_url, request)
    dead.expect_killed()
    events = join()
    assert_resumed_stream(events)
    recovered = [e for e in events if e.get("event") == "recovered"]
    assert recovered and recovered[0].get("takeover_from") == 0, (
        f"no takeover recovery event: {recovered}"
    )
    assert read_fence_epoch(os.path.join(h.cache_dir, "cluster"), 0) >= 2, (
        "slot 0's fence epoch was never bumped"
    )
    metrics = client.get_json(survivor.base_url, "/metrics")
    assert metrics["cluster.takeovers_total"] == 1.0, metrics
    assert metrics["cluster.takeover_jobs_adopted"] == 1.0, metrics
    store = h.journals()
    assert any(job_summary(store.read(j))["done"] for j in store.job_ids()), (
        "the adopted job's journal never reached done"
    )
    # Shard 0 is dead, so the survivor owns the whole ring now.
    assert_clean_digest(survivor.base_url, request, events)
    survivor.drain()
    serve_records = [r for r in h.history() if r.get("kind") == "serve"]
    assert serve_records, "no serve history record"
    tail = serve_records[-1]
    assert tail["shard"] == 1 and "admission" in tail, tail
    assert tail["cluster"]["takeovers_total"] == 1.0, tail


SCENARIOS: Dict[str, Callable[[Harness], None]] = {
    "coalesce": coalesce,
    **{
        f"crash-resume@{point}": (lambda h, point=point: crash_resume(h, point))
        for point in CRASH_POINTS
    },
    "shard-failover": shard_failover,
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
