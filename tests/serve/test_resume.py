"""End-to-end durability tests: resume, recovery, heartbeats, chaos.

Runs the real in-process server (``serve_factory``) against the real
client, exercising the PR 9 crash-recovery invariant at every layer
short of an actual SIGKILL (which the ``crash-resume`` rows of
``python -m repro.serve.smoke`` cover in subprocesses):

* a client that disconnects mid-stream resumes with ``after_seq`` and
  sees every remaining event exactly once, in order;
* a journal left incomplete by a dead server is re-enqueued on the
  next start and runs to completion;
* ``GET /jobs/<id>`` answers for live, retained, and journal-only jobs;
* heartbeats keep an idle stream alive and are never journaled;
* a chaos-dropped connection is survived by the resilient client.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.faults import chaos
from repro.serve import client, protocol
from repro.serve.journal import DONE_SUFFIX, JournalStore, encode_record, job_summary
from tests.serve.test_server import gated_execute  # noqa: F401 (fixture)

APP_REQUEST = {"kind": "app", "app": "array-insert", "pages": 2.0, "tenant": "t"}
#: Two tasks whose result events share ``task``/``mode``: only the seed differs.
TWO_SEED_REQUEST = {
    "kind": "tasks", "tenant": "t",
    "tasks": [{"app": "array-insert", "pages": 2.0, "seed": s} for s in (1, 2)],
}


def _journal_store() -> JournalStore:
    return JournalStore(Path(os.environ["REPRO_CACHE_DIR"]) / "jobs")


def _wait_until(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


class TestResume:
    def test_disconnect_then_resume_completes_without_duplicates(
        self, serve_factory, gated_execute  # noqa: F811
    ):
        server = serve_factory()
        seen = []
        stream = client.stream_submit(server.base_url, APP_REQUEST, timeout=120)
        for event in stream:
            seen.append(event)
            if event["event"] == "started":
                stream.close()  # hang up mid-run
                break
        job_id = seen[0]["job"]
        last_seq = max(e["seq"] for e in seen if "seq" in e)
        assert last_seq >= 2  # queued + started

        gated_execute["release"].set()
        remainder = list(
            client.stream_submit(
                server.base_url,
                {"kind": "resume", "job": job_id, "after_seq": last_seq},
                timeout=120,
            )
        )
        accepted = remainder[0]
        assert accepted["event"] == "accepted"
        assert accepted["resumed"] is True and accepted["job"] == job_id
        seqs = [e["seq"] for e in remainder if "seq" in e]
        assert seqs == list(range(last_seq + 1, last_seq + 1 + len(seqs)))
        assert remainder[-1]["event"] == "done" and remainder[-1]["ok"] is True

        # The two halves stitch into one gapless sequence.
        all_seqs = [e["seq"] for e in seen + remainder if "seq" in e]
        assert all_seqs == list(range(1, len(all_seqs) + 1))

    def test_resume_finished_job_replays_full_stream(self, serve_factory):
        server = serve_factory()
        first = list(client.stream_submit(server.base_url, APP_REQUEST, timeout=120))
        job_id = first[0]["job"]

        replay = list(
            client.stream_submit(
                server.base_url,
                {"kind": "resume", "job": job_id, "after_seq": 0},
                timeout=120,
            )
        )
        assert replay[0]["resumed"] is True
        assert [e for e in replay[1:]] == [e for e in first[1:]], (
            "resume from 0 replays the identical journaled sequence"
        )

    def test_resume_unknown_job_is_404(self, serve_factory):
        server = serve_factory()
        with pytest.raises(client.ServerError) as info:
            list(
                client.stream_submit(
                    server.base_url,
                    {"kind": "resume", "job": "f" * 16 + "-00000000", "after_seq": 0},
                    timeout=30,
                )
            )
        assert info.value.status == 404

    def test_resume_journal_only_incomplete_job_reports_not_running(
        self, serve_factory
    ):
        store = _journal_store()
        jnl = store.create("9" * 16 + "-01234567")
        jnl.append({"type": "request", "job": "9" * 16 + "-01234567",
                    "kind": "app", "tenant": "t", "key": "k", "spec": {}})
        jnl.append({"type": "event", "seq": 1,
                    "event": {"event": "queued", "seq": 1}})
        jnl.close()

        # The job is known — recovered live or replayed from disk — and
        # the stream always reaches a done event.
        server = serve_factory()
        events = list(
            client.stream_submit(
                server.base_url,
                {"kind": "resume", "job": "9" * 16 + "-01234567", "after_seq": 0},
                timeout=30,
            )
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted" and events[0].get("from_journal") in (True, None)
        assert kinds[-1] == "done"


def _plant_incomplete_journal(doc=APP_REQUEST, results=0):
    request = protocol.parse_submit(dict(doc))
    key = request.coalesce_key()
    job_id = f"{key[:16]}-deadbeef"
    store = _journal_store()
    jnl = store.create(job_id)
    jnl.append({"type": "request", "job": job_id, "key": key,
                "kind": request.kind, "tenant": request.tenant,
                "spec": request.spec, "created_at": 0.0})
    events = [{"event": "queued"}, {"event": "started"}]
    # Killed after journaling the first ``results`` results.
    events += [
        {"event": "result", "task": f"{t.app_name}@{t.n_pages:g}",
         "mode": t.mode, "values": {}, "cached": False, "error": None}
        for t in protocol.build_tasks(request)[:results]
    ]
    for seq, event in enumerate(events, start=1):
        jnl.append({"type": "event", "seq": seq,
                    "event": dict(event, job=job_id, seq=seq)})
    jnl.close()
    return job_id, store


class TestRecovery:
    def test_incomplete_journal_is_reenqueued_and_finishes(self, serve_factory):
        job_id, store = _plant_incomplete_journal()
        server = serve_factory()
        assert server.server.recovered_jobs == 1

        _wait_until(
            lambda: job_summary(store.read(job_id))["done"],
            message="recovered job to finish",
        )
        summary = job_summary(store.read(job_id))
        assert summary["ok"] is True
        assert summary["seq"] > 2, "re-run seqs continue past the journaled max"

        events = list(
            client.stream_submit(
                server.base_url,
                {"kind": "resume", "job": job_id, "after_seq": 0},
                timeout=120,
            )
        )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert "recovered" in kinds, "the restart is visible in the stream"
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == list(range(1, len(seqs) + 1)), "replay + re-run are gapless"
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        assert server.metrics()["serve.recovered_jobs"] == 1

    @pytest.mark.parametrize("doc", [APP_REQUEST, TWO_SEED_REQUEST], ids=["app", "tasks"])
    def test_journaled_result_is_not_published_twice(self, serve_factory, doc):
        job_id, store = _plant_incomplete_journal(doc, results=1)
        server = serve_factory()
        assert server.server.recovered_jobs == 1
        _wait_until(
            lambda: job_summary(store.read(job_id))["done"],
            message="recovered job to finish",
        )
        events = list(
            client.stream_submit(
                server.base_url,
                {"kind": "resume", "job": job_id, "after_seq": 0},
                timeout=120,
            )
        )
        results = [
            (e["task"], e["mode"]) for e in events if e["event"] == "result"
        ]
        tasks = protocol.build_tasks(protocol.parse_submit(dict(doc)))
        assert results == [
            (f"{t.app_name}@{t.n_pages:g}", t.mode) for t in tasks
        ], "exactly one result per task across replay and re-run"
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == list(range(1, len(seqs) + 1))
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True

    def test_torn_tail_recovers_without_error(self, serve_factory):
        job_id, store = _plant_incomplete_journal()
        path = store.path_for(job_id)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x17garbage torn half-rec")  # crash litter

        server = serve_factory()
        assert server.server.recovered_jobs == 1
        _wait_until(
            lambda: job_summary(store.read(job_id))["done"],
            message="recovered job to finish",
        )
        assert job_summary(store.read(job_id))["ok"] is True


    def test_duplicate_key_journals_are_superseded_at_boot(
        self, serve_factory, gated_execute  # noqa: F811
    ):
        """The same request journaled twice (crash, resubmit, crash
        again) runs once: the oldest journal is re-opened and the other
        is closed out as superseded, which also marks it done."""
        request = protocol.parse_submit(dict(APP_REQUEST))
        key = request.coalesce_key()
        store = _journal_store()
        older, newer = "a" * 16 + "-00000000", "b" * 16 + "-11111111"
        for n, job_id in enumerate((older, newer)):
            jnl = store.create(job_id)
            jnl.append({"type": "request", "job": job_id, "key": key,
                        "kind": "app", "tenant": "t", "spec": request.spec,
                        "created_at": 0.0})
            jnl.append({"type": "event", "seq": 1,
                        "event": {"event": "queued", "job": job_id, "seq": 1}})
            jnl.close()
            os.utime(store.path_for(job_id), (1000.0 + n, 1000.0 + n))

        server = serve_factory()
        try:
            assert server.server.recovered_jobs == 1
            assert server.metrics()["serve.superseded_journals"] == 1.0
        finally:
            gated_execute["release"].set()
        _wait_until(
            lambda: job_summary(store.read(older))["done"],
            message="surviving job to finish",
        )
        assert len(gated_execute["calls"]) == 1, "the work ran exactly once"
        loser = job_summary(store.read(newer))
        assert loser["done"] is True and loser["ok"] is False
        last = [r["event"] for r in store.read(newer) if r.get("type") == "event"][-1]
        assert last["superseded"] is True
        assert store.path_for(newer).with_suffix(DONE_SUFFIX).exists()

    def test_shard_stamped_journals_recover_and_prune(self, serve_factory):
        """Journals written by a serve-cluster shard carry ``shard`` and
        ``epoch`` in their request record; a single server still
        recovers the incomplete one and prunes the finished one."""
        job_id, store = _plant_incomplete_journal()
        records = store.read(job_id)
        stamp = {"shard": 0, "epoch": 3}
        store.path_for(job_id).write_bytes(b"".join(
            encode_record(dict(r, **stamp) if r["type"] == "request" else r)
            for r in records
        ))
        finished = "f" * 16 + "-00000000"
        jnl = store.create(finished)
        jnl.append(dict(records[0], job=finished, **stamp))
        jnl.append({"type": "event", "seq": 1,
                    "event": {"event": "done", "ok": True, "job": finished, "seq": 1}})
        jnl.close()

        server = serve_factory()
        assert server.server.recovered_jobs == 1
        _wait_until(
            lambda: job_summary(store.read(job_id))["done"],
            message="recovered job to finish",
        )
        events = [r["event"] for r in store.read(job_id) if r.get("type") == "event"]
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        assert events[len(records) - 1]["event"] == "recovered"
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        server.stop()

        os.utime(store.path_for(finished), (1.0, 1.0))  # ancient
        assert store.prune(days=1) == {"journals": 1, "tmp": 0}
        assert store.job_ids() == [job_id]


class TestDoneMarks:
    """A finished journal gets a zero-byte ``<id>.done`` mark, so boot,
    stats and prune never decode it."""

    @staticmethod
    def _plant_finished(store, count):
        """``count`` finished 11-record journals, each with its mark."""
        records = [{"type": "request", "job": None, "key": "k", "kind": "app",
                    "tenant": "t", "spec": {"app": "array-insert"},
                    "created_at": 0.0}]
        records += [{"type": "event", "seq": seq,
                     "event": {"event": "progress", "seq": seq}}
                    for seq in range(1, 10)]
        records.append({"type": "event", "seq": 10,
                        "event": {"event": "done", "ok": True, "seq": 10}})
        store.root.mkdir(parents=True, exist_ok=True)
        ids = [f"{n:016x}-00000000" for n in range(count)]
        for job_id in ids:
            records[0]["job"] = job_id
            path = store.path_for(job_id)
            path.write_bytes(b"".join(encode_record(r) for r in records))
            path.with_suffix(DONE_SUFFIX).touch()
        return ids

    def test_finished_run_is_marked_and_status_is_unchanged(self, serve_factory):
        server = serve_factory()
        events = list(client.stream_submit(server.base_url, APP_REQUEST, timeout=120))
        job_id = events[0]["job"]
        store = _journal_store()
        assert store.path_for(job_id).with_suffix(DONE_SUFFIX).exists()
        server.stop()

        server = serve_factory()
        status = client.get_json(server.base_url, f"/jobs/{job_id}")
        assert status == {
            "job": job_id,
            "key": protocol.parse_submit(dict(APP_REQUEST)).coalesce_key(),
            "kind": "app", "tenant": "t",
            "status": "done", "ok": True, "seq": events[-1]["seq"],
            "events": len(events) - 1, "live": False,
        }

    def test_unmarked_finished_journal_decodes_then_gets_its_mark(
        self, serve_factory
    ):
        """A crash between the done record and its mark (or a journal
        older than marks) costs one decode, at the next boot."""
        store = _journal_store()
        (job_id,) = self._plant_finished(store, 1)
        mark = store.path_for(job_id).with_suffix(DONE_SUFFIX)
        mark.unlink()
        assert store.stats()["completed"] == 1
        server = serve_factory()
        assert server.server.recovered_jobs == 0
        assert mark.exists()

    def test_boot_time_does_not_grow_with_finished_journals(
        self, tmp_path, serve_factory
    ):
        import asyncio

        from repro.serve.server import ServeConfig, SweepServer

        empty, full = tmp_path / "empty", tmp_path / "full"
        store = JournalStore(full / "jobs")
        self._plant_finished(store, 2000)
        # One incomplete journal among them still recovers.
        job_id, _ = _plant_incomplete_journal()
        os.replace(_journal_store().path_for(job_id), store.path_for(job_id))
        server = serve_factory(cache_dir=str(full))
        assert server.server.recovered_jobs == 1
        server.stop()
        assert store.stats() == {
            "journals": 2001, "completed": 2001, "recoverable": 0,
            "journal_bytes": store.stats()["journal_bytes"],
        }

        async def boot_s(cache_dir):
            server = SweepServer(ServeConfig(port=0, cache_dir=str(cache_dir)))
            t0 = time.perf_counter()
            await server.start()
            elapsed = time.perf_counter() - t0
            server.request_shutdown()
            await server.wait_drained()
            await server.close()
            return elapsed

        async def best_of_three(cache_dir):
            return min([await boot_s(cache_dir) for _ in range(3)])

        baseline = asyncio.run(best_of_three(empty))
        loaded = asyncio.run(best_of_three(full))
        print(f"boot: {baseline * 1e3:.2f} ms empty, {loaded * 1e3:.2f} ms on 2,001")
        assert loaded - baseline < 0.010, (baseline, loaded)


class TestJobStatus:
    def test_status_live_then_done_then_journal_only(
        self, serve_factory, gated_execute  # noqa: F811
    ):
        server = serve_factory()
        out = {}
        thread = threading.Thread(
            target=lambda: out.setdefault(
                "events",
                list(client.stream_submit(server.base_url, APP_REQUEST, timeout=120)),
            )
        )
        thread.start()
        assert gated_execute["started"].wait(timeout=30)
        # Find the job id while it is running.
        metrics_job = None
        _wait_until(lambda: bool(server.server.jobs_by_id), message="job registered")
        (metrics_job,) = list(server.server.jobs_by_id)
        running = client.get_json(server.base_url, f"/jobs/{metrics_job}")
        assert running["status"] == "running" and running["live"] is True

        gated_execute["release"].set()
        thread.join(timeout=60)
        done = client.get_json(server.base_url, f"/jobs/{metrics_job}")
        assert done["status"] == "done" and done["ok"] is True

    def test_status_falls_back_to_journal_and_rejects_bad_ids(self, serve_factory):
        store = _journal_store()
        jnl = store.create("7" * 16 + "-aa")
        jnl.append({"type": "request", "job": "7" * 16 + "-aa", "kind": "app",
                    "tenant": "t", "key": "k", "spec": {}})
        jnl.close()

        server = serve_factory()
        # The incomplete journal was recovered at boot, so it is either
        # live or already done — but always known.
        status = client.get_json(server.base_url, "/jobs/" + "7" * 16 + "-aa")
        assert status["job"] == "7" * 16 + "-aa"

        with pytest.raises(client.ServerError) as info:
            client.get_json(server.base_url, "/jobs/NOT-A-JOB")
        assert info.value.status == 400


class TestHeartbeats:
    def test_idle_stream_emits_heartbeats_and_journals_none(
        self, serve_factory, gated_execute  # noqa: F811
    ):
        server = serve_factory(heartbeat_s=0.05)
        events = []
        stream = client.stream_submit(server.base_url, APP_REQUEST, timeout=120)
        for event in stream:
            events.append(event)
            beats = [e for e in events if e["event"] == "heartbeat"]
            if len(beats) >= 3:
                gated_execute["release"].set()
        kinds = [e["event"] for e in events]
        assert kinds.count("heartbeat") >= 3
        assert kinds[-1] == "done" and events[-1]["ok"] is True
        beat = next(e for e in events if e["event"] == "heartbeat")
        assert "seq" not in beat and beat["status"] in ("queued", "running")
        assert beat["last_seq"] >= 1

        job_id = events[0]["job"]
        records = _journal_store().read(job_id)
        journaled = [r["event"]["event"] for r in records if r.get("type") == "event"]
        assert "heartbeat" not in journaled
        assert journaled[-1] == "done"
        assert server.metrics()["serve.heartbeats"] >= 3


    def test_heartbeats_defeat_a_short_client_read_timeout(
        self, serve_factory, gated_execute  # noqa: F811
    ):
        # The job idles ~3x longer than the client's socket read
        # timeout; only the heartbeats keep the recv from timing out.
        server = serve_factory(heartbeat_s=0.2)
        releaser = threading.Timer(3.0, gated_execute["release"].set)
        releaser.start()
        try:
            events = list(
                client.stream_submit(server.base_url, APP_REQUEST, timeout=1.0)
            )
        finally:
            releaser.cancel()
            gated_execute["release"].set()
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        assert any(e["event"] == "heartbeat" for e in events)


class TestChaosDrop:
    def test_dropped_stream_is_survived_by_resilient_client(
        self, serve_factory, tmp_path, monkeypatch
    ):
        spec = tmp_path / "chaos.json"
        chaos.write_spec(
            str(spec),
            str(tmp_path / "chaos-state"),
            [{"match": "serve.emit:result", "mode": "drop", "times": 1}],
        )
        monkeypatch.setenv(chaos.CHAOS_ENV, str(spec))
        server = serve_factory()

        sleeps = []
        events = list(
            client.stream_submit_resilient(
                server.base_url,
                APP_REQUEST,
                backoff_s=0.01,
                sleep=lambda s: sleeps.append(s) or time.sleep(s),
            )
        )
        assert len(sleeps) == 1, "exactly one reconnect"
        kinds = [e["event"] for e in events]
        assert kinds.count("accepted") == 2, "original accept + resumed accept"
        resumed = [e for e in events if e.get("resumed")]
        assert resumed and resumed[0]["after_seq"] >= 1
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == sorted(set(seqs)), "no duplicates after the resume"
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        assert server.metrics()["serve.resumed_total"] == 1


class TestJournalOnCompletion:
    def test_completed_run_leaves_a_complete_contiguous_journal(self, serve_factory):
        server = serve_factory()
        events = list(client.stream_submit(server.base_url, APP_REQUEST, timeout=120))
        job_id = events[0]["job"]

        records = _journal_store().read(job_id)
        assert records[0]["type"] == "request"
        assert records[0]["kind"] == "app" and records[0]["job"] == job_id
        seqs = [r["seq"] for r in records if r.get("type") == "event"]
        assert seqs == list(range(1, len(seqs) + 1))
        summary = job_summary(records)
        assert summary["done"] is True and summary["ok"] is True
        # The journaled events are exactly the streamed ones (the
        # stream adds only the unjournaled accepted envelope).
        journaled = [r["event"] for r in records if r.get("type") == "event"]
        assert journaled == events[1:]

        stats = client.get_json(server.base_url, "/cache/stats")
        assert stats["jobs"]["journals"] >= 1
        assert stats["jobs"]["completed"] >= 1
