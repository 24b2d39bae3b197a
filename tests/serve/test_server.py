"""End-to-end serve tests against an in-process server.

The server runs on a thread inside the test process, so
``harness._timed_execute`` can be monkeypatched with gated fakes —
letting the tests hold jobs in flight deterministically while clients
coalesce, queue and get rejected.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments import harness
from repro.serve import client
from repro.serve.server import (
    HISTORY_ENV,
    FairQueue,
    ServeConfig,
    SweepServer,
    append_serve_history,
)


def _submit_events(server, request, out, key, sse=False):
    out[key] = list(
        client.stream_submit(server.base_url, request, sse=sse, timeout=120)
    )


def _wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def gated_execute(monkeypatch):
    """Replace real task execution with a gate the test controls."""
    state = {
        "calls": [],
        "started": threading.Event(),
        "release": threading.Event(),
        "lock": threading.Lock(),
    }

    def gated(task, trace_summary=False):
        with state["lock"]:
            state["calls"].append(task)
        state["started"].set()
        assert state["release"].wait(timeout=60), "gate never released"
        return harness.TaskResult(
            task=task, values={"speedup": float(len(task.app_name))}, wall_s=0.01
        )

    monkeypatch.setattr(harness, "_timed_execute", gated)
    return state


APP_REQUEST = {"kind": "app", "app": "array-insert", "pages": 2.0}


class TestServeEndToEnd:
    def test_submit_app_streams_full_event_sequence(self, serve_factory):
        server = serve_factory()
        events = list(
            client.stream_submit(
                server.base_url, dict(APP_REQUEST, tenant="t"), timeout=120
            )
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted" and events[0]["coalesced"] is False
        assert "queued" in kinds and "started" in kinds
        assert "progress" in kinds and "result" in kinds and "sweep" in kinds
        assert kinds[-1] == "done" and events[-1]["ok"] is True
        result = next(e for e in events if e["event"] == "result")
        assert result["values"]["speedup"] > 0

        health = client.get_json(server.base_url, "/healthz")
        assert health["ok"] is True
        # The job-finished callback (which decrements the active count)
        # runs on the loop just after the final event streams out.
        _wait_until(
            lambda: client.get_json(server.base_url, "/healthz")["active_jobs"]
            == 0,
            message="active count to settle",
        )

    def test_three_clients_one_computation(self, serve_factory, gated_execute):
        """Request-level single-flight: identical submits from three
        tenants run the underlying sweep exactly once."""
        server = serve_factory(concurrency=1)
        results = {}
        threads = [
            threading.Thread(
                target=_submit_events,
                args=(server, dict(APP_REQUEST, tenant="a"), results, 0),
            )
        ]
        threads[0].start()
        _wait_until(
            gated_execute["started"].is_set, message="first job to start"
        )
        for i, tenant in ((1, "b"), (2, "c")):
            t = threading.Thread(
                target=_submit_events,
                args=(server, dict(APP_REQUEST, tenant=tenant), results, i),
            )
            t.start()
            threads.append(t)
        _wait_until(
            lambda: server.metrics().get("serve.coalesce_hits", 0) == 2,
            message="both followers to coalesce",
        )
        gated_execute["release"].set()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 3

        assert len(gated_execute["calls"]) == 1, "one underlying computation"
        metrics = server.metrics()
        assert metrics["serve.requests_total"] == 3
        assert metrics["serve.jobs_total"] == 1
        assert metrics["serve.coalesce_hits"] == 2

        flags = sorted(events[0]["coalesced"] for events in results.values())
        assert flags == [False, True, True]
        payloads = [
            [e for e in events if e["event"] == "result"]
            for events in results.values()
        ]
        assert payloads[0] and payloads[0] == payloads[1] == payloads[2]
        assert all(
            events[-1]["event"] == "done" and events[-1]["ok"]
            for events in results.values()
        )

    def test_task_level_singleflight_across_different_requests(
        self, serve_factory, gated_execute
    ):
        """Two *different* requests sharing one task: the shared task is
        computed once via the SingleFlight table, non-shared tasks run
        normally."""
        server = serve_factory(concurrency=2)
        shared = {"app": "array-insert", "pages": 2.0}
        req1 = {"kind": "tasks", "tenant": "a",
                "tasks": [shared, {"app": "array-find", "pages": 2.0}]}
        req2 = {"kind": "tasks", "tenant": "b",
                "tasks": [shared, {"app": "database", "pages": 2.0}]}
        results = {}
        t1 = threading.Thread(
            target=_submit_events, args=(server, req1, results, 1)
        )
        t1.start()
        _wait_until(
            gated_execute["started"].is_set, message="first sweep executing"
        )
        t2 = threading.Thread(
            target=_submit_events, args=(server, req2, results, 2)
        )
        t2.start()
        # Job 2 claims its non-shared task and waits on the shared one.
        _wait_until(
            lambda: server.metrics().get("serve.tasks.coalesce_hits", 0) == 1,
            message="shared task to coalesce",
        )
        gated_execute["release"].set()
        t1.join(timeout=60)
        t2.join(timeout=60)

        executed = sorted(t.app_name for t in gated_execute["calls"])
        assert executed == ["array-find", "array-insert", "database"]
        metrics = server.metrics()
        assert metrics["serve.tasks.computed"] == 3
        assert metrics["serve.tasks.coalesce_hits"] == 1
        assert metrics["serve.jobs_total"] == 2  # different requests: no
        assert metrics.get("serve.coalesce_hits", 0) == 0  # request coalesce

        def result_values(events, task_name):
            return [
                e["values"]
                for e in events
                if e["event"] == "result" and task_name in e["task"]
            ]

        assert result_values(results[1], "array-insert") == result_values(
            results[2], "array-insert"
        )

    def test_backpressure_rejects_with_429(self, serve_factory, gated_execute):
        server = serve_factory(concurrency=1, max_queue=1)
        results = {}
        t_active = threading.Thread(
            target=_submit_events,
            args=(server, dict(APP_REQUEST, tenant="a"), results, "active"),
        )
        t_active.start()
        _wait_until(gated_execute["started"].is_set, message="job to start")

        queued_request = {"kind": "app", "app": "array-find", "pages": 2.0}
        t_queued = threading.Thread(
            target=_submit_events,
            args=(server, queued_request, results, "queued"),
        )
        t_queued.start()
        _wait_until(
            lambda: len(server.server.queue) == 1, message="a queued job"
        )

        with pytest.raises(client.ServerError) as info:
            list(
                client.stream_submit(
                    server.base_url,
                    {"kind": "app", "app": "database", "pages": 2.0},
                    timeout=30,
                )
            )
        assert info.value.status == 429
        assert info.value.payload["max_queue"] == 1

        gated_execute["release"].set()
        t_active.join(timeout=60)
        t_queued.join(timeout=60)
        assert results["active"][-1]["ok"] and results["queued"][-1]["ok"]
        assert server.metrics()["serve.rejected_total"] == 1

    def test_draining_rejects_with_503_then_finishes_active_work(
        self, serve_factory, gated_execute
    ):
        server = serve_factory(concurrency=1)
        results = {}
        t_active = threading.Thread(
            target=_submit_events,
            args=(server, dict(APP_REQUEST, tenant="a"), results, "active"),
        )
        t_active.start()
        _wait_until(gated_execute["started"].is_set, message="job to start")

        server.request_shutdown()
        _wait_until(
            lambda: client.get_json(server.base_url, "/healthz")["draining"],
            message="drain flag",
        )
        with pytest.raises(client.ServerError) as info:
            list(
                client.stream_submit(
                    server.base_url,
                    {"kind": "app", "app": "array-find", "pages": 2.0},
                    timeout=30,
                )
            )
        assert info.value.status == 503

        gated_execute["release"].set()
        t_active.join(timeout=60)
        assert results["active"][-1]["event"] == "done"
        assert results["active"][-1]["ok"] is True
        server.stop()  # drains and exits; stop() asserts the thread died

    def test_sse_framing_end_to_end(self, serve_factory):
        server = serve_factory()
        events = list(
            client.stream_submit(
                server.base_url, dict(APP_REQUEST), sse=True, timeout=120
            )
        )
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True

    def test_invalid_submit_rejected_400(self, serve_factory):
        server = serve_factory()
        with pytest.raises(client.ServerError) as info:
            list(
                client.stream_submit(
                    server.base_url, {"kind": "app", "app": "bogus"}, timeout=30
                )
            )
        assert info.value.status == 400
        assert "unknown app" in str(info.value.payload)

    def test_jobs_share_one_warm_pool_and_drain_leaves_no_worker(
        self, serve_factory
    ):
        """With --jobs 2 every job runs on one pool of two workers, a
        lone app task included; the drain joins them."""
        server = serve_factory(jobs=2, concurrency=2)
        pool = server.server.lifecycle.pool
        out = {}
        threads = [
            threading.Thread(
                target=_submit_events,
                args=(server, dict(APP_REQUEST, pages=pages), out, pages),
            )
            for pages in (1.0, 2.0)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(out[p][-1]["ok"] is True for p in (1.0, 2.0)), out
        executor = pool.current
        assert executor is not None, "lone app tasks ran on the pool"
        workers = list(executor._processes.values())
        assert 1 <= len(workers) <= 2
        _submit_events(server, dict(APP_REQUEST, pages=4.0), out, 4.0)
        assert out[4.0][-1]["ok"] is True
        assert pool.current is executor, "the pool is reused, not rebuilt"

        server.stop()
        assert pool.current is None
        assert not any(w.is_alive() for w in workers)

    def test_introspection_endpoints(self, serve_factory):
        server = serve_factory()
        list(client.stream_submit(server.base_url, dict(APP_REQUEST), timeout=120))

        metrics = client.get_json(server.base_url, "/metrics")
        assert metrics["serve.jobs_total"] == 1
        assert metrics["serve.requests_total"] == 1
        assert metrics["serve.tasks.computed"] == 1

        cache_stats = client.get_json(server.base_url, "/cache/stats")
        assert cache_stats["entries"] >= 1
        assert str(harness.CACHE_SCHEMA) in cache_stats["by_schema"]

        with pytest.raises(client.ServerError) as info:
            client.get_json(server.base_url, "/nope")
        assert info.value.status == 404

        index = client.get_json(server.base_url, "/")
        assert "POST /submit" in index["endpoints"]


class TestFairQueue:
    def test_weighted_interleaving(self):
        queue = FairQueue(weights={"b": 2.0})
        for i in range(4):
            queue.push("a", f"a{i}")
            queue.push("b", f"b{i}")
        order = [queue.pop() for _ in range(8)]
        # Stride scheduling: b (weight 2) gets two slots per a slot.
        assert order == ["a0", "b0", "b1", "a1", "b2", "b3", "a2", "a3"]

    def test_equal_weights_alternate(self):
        queue = FairQueue()
        for i in range(3):
            queue.push("x", f"x{i}")
            queue.push("y", f"y{i}")
        order = [queue.pop() for _ in range(6)]
        assert order == ["x0", "y0", "x1", "y1", "x2", "y2"]

    def test_returning_tenant_cannot_claim_idle_credit(self):
        queue = FairQueue()
        for i in range(3):
            queue.push("a", f"a{i}")
        assert [queue.pop() for _ in range(3)] == ["a0", "a1", "a2"]
        # b was absent the whole time; on arrival it is clamped to the
        # virtual clock, not treated as infinitely behind.
        queue.push("b", "b0")
        queue.push("a", "a3")
        assert queue.pop() == "b0"  # b is *slightly* behind, not owed 3 slots
        assert queue.pop() == "a3"

    def test_pop_empty_returns_none(self):
        queue = FairQueue()
        assert queue.pop() is None
        queue.push("a", "a0")
        assert queue.pop() == "a0"
        assert queue.pop() is None

    def test_len_and_depth(self):
        queue = FairQueue()
        queue.push("a", 1)
        queue.push("a", 2)
        queue.push("b", 3)
        assert len(queue) == 3
        assert queue.depth("a") == 2 and queue.depth("b") == 1
        queue.pop()
        assert len(queue) == 2

    def test_nonpositive_weight_falls_back_to_default(self):
        queue = FairQueue(weights={"a": 0.0})
        assert queue.weight("a") == 1.0


class TestServeHistory:
    def _append(self, cache_dir):
        server = SweepServer(ServeConfig(cache_dir=str(cache_dir)))
        try:
            return append_serve_history(server)
        finally:
            server.executor.shutdown()

    def test_default_lands_under_the_cache_dir(self, tmp_path, monkeypatch):
        """A drain never writes into the source checkout by default."""
        monkeypatch.delenv(HISTORY_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        path = self._append(cache_dir)
        assert path == cache_dir / "serve_history.jsonl"
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["kind"] == "serve" and "admission" in record

    def test_env_override_wins(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere" / "history.jsonl"
        monkeypatch.setenv(HISTORY_ENV, str(target))
        assert self._append(tmp_path / "cache") == target
        assert target.exists()
        assert not (tmp_path / "cache" / "serve_history.jsonl").exists()
