"""Sharded serve cluster: ring, leases, fencing, takeover, prune.

Unit layers (no sockets): the consistent-hash ring's determinism and
minimal-disruption property, lease acquire/renew/expiry under a fake
clock, the epoch-fencing protocol (won / ours / lost takeover claims,
zombie appends rejected before touching the file), and the
lease-aware prune protection.

End-to-end layers (in-process servers from ``serve_factory``): two
shards sharing one cache dir redirect by key ownership; a surviving
shard fences a dead peer and adopts its incomplete journal with
gapless seq continuation; duplicate-key journals across shards are
closed out as superseded during takeover.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.serve import client, cluster, protocol
from repro.serve.cluster import (
    ClusterError,
    ClusterMembership,
    HashRing,
    fence_path,
    lease_path,
    protected_shards,
    read_fence_epoch,
    read_lease,
)
from repro.serve.journal import FencedError, JournalStore, job_summary
from repro.serve.lifecycle import Job
from tests.serve.test_server import _wait_until, gated_execute  # noqa: F401


# ----------------------------------------------------------------------
# Hash ring


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"key-{n}" for n in range(100)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_owners_are_reasonably_balanced(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for n in range(400):
            counts[ring.owner(f"key-{n}")] += 1
        assert all(count >= 40 for count in counts), counts
        assert max(counts) <= 240, counts

    def test_dead_shard_remaps_only_its_own_arc(self):
        ring = HashRing(3)
        keys = [f"key-{n}" for n in range(200)]
        before = {k: ring.owner(k) for k in keys}
        after = {k: ring.owner(k, alive={0, 1}) for k in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key], "live shards' keys stay put"
            else:
                assert after[key] in (0, 1), "dead arc falls to a survivor"

    def test_single_survivor_owns_everything(self):
        ring = HashRing(3)
        assert all(
            ring.owner(f"key-{n}", alive={1}) == 1 for n in range(50)
        )

    def test_no_live_shards_raises(self):
        with pytest.raises(ClusterError):
            HashRing(2).owner("key", alive=set())

    def test_rejects_empty_cluster(self):
        with pytest.raises(ClusterError):
            HashRing(0)


# ----------------------------------------------------------------------
# Leases and epochs


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestLeases:
    def test_acquire_writes_lease_and_fence(self, tmp_path):
        clock = FakeClock()
        m = ClusterMembership(tmp_path, 0, 2, addr="h:1", ttl_s=3.0, clock=clock)
        assert m.acquire() == 1
        lease = read_lease(tmp_path, 0)
        assert lease.epoch == 1 and lease.addr == "h:1"
        assert lease.pid == os.getpid()
        assert not lease.expired(clock())
        assert read_fence_epoch(tmp_path, 0) == 1

    def test_live_lease_refuses_second_acquire(self, tmp_path):
        clock = FakeClock()
        first = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=clock)
        first.acquire()
        second = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=clock)
        with pytest.raises(ClusterError, match="lease is held"):
            second.acquire()

    def test_expired_lease_reacquire_bumps_epoch(self, tmp_path):
        clock = FakeClock()
        first = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=clock)
        first.acquire()
        clock.now += 10.0  # lease expires un-renewed
        second = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=clock)
        assert second.acquire() == 2, "restart supersedes the stale epoch"
        # ... and the fence already names the new epoch, so the old
        # incarnation is rejected even if it wakes back up.
        with pytest.raises(FencedError):
            first.check_fence()

    def test_renew_refreshes_the_heartbeat(self, tmp_path):
        clock = FakeClock()
        m = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=clock)
        m.acquire()
        clock.now += 2.5
        assert m.renew() is True
        assert not read_lease(tmp_path, 0).expired(clock())

    def test_release_unlinks_the_lease(self, tmp_path):
        m = ClusterMembership(tmp_path, 0, 2, ttl_s=3.0, clock=FakeClock())
        m.acquire()
        m.release()
        assert read_lease(tmp_path, 0) is None
        assert read_fence_epoch(tmp_path, 0) == 1, "fence outlives the lease"

    def test_alive_and_dead_slots(self, tmp_path):
        clock = FakeClock()
        m0 = ClusterMembership(tmp_path, 0, 3, ttl_s=3.0, clock=clock)
        m1 = ClusterMembership(tmp_path, 1, 3, ttl_s=3.0, clock=clock)
        m0.acquire()
        m1.acquire()
        assert m0.alive() == {0, 1}
        assert m0.dead_slots() == [2], "slot 2 never started"
        clock.now += 10.0
        m0.renew()  # only shard 0 heartbeats
        assert m0.alive() == {0}
        assert m0.dead_slots() == [1, 2]

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ClusterError):
            ClusterMembership(tmp_path, 2, 2)
        with pytest.raises(ClusterError):
            ClusterMembership(tmp_path, 0, 1, ttl_s=0.0)


class TestFencing:
    def _pair(self, tmp_path, clock):
        m0 = ClusterMembership(tmp_path, 0, 3, ttl_s=3.0, clock=clock)
        m1 = ClusterMembership(tmp_path, 1, 3, ttl_s=3.0, clock=clock)
        m0.acquire()
        m1.acquire()
        return m0, m1

    def test_fence_slot_won_bumps_epoch_and_zombie_is_rejected(self, tmp_path):
        clock = FakeClock()
        m0, m1 = self._pair(tmp_path, clock)
        clock.now += 10.0  # shard 0 goes silent
        outcome, epoch = m1.fence_slot(0)
        assert (outcome, epoch) == ("won", 2)
        assert read_fence_epoch(tmp_path, 0) == 2
        with pytest.raises(FencedError):
            m0.check_fence()
        assert m0.renew() is False, "a fenced zombie must stop heartbeating"
        assert m0.fenced is True
        assert 0 not in m0.alive(), "a fenced shard stops counting itself"

    def test_fence_slot_same_epoch_race_is_lost(self, tmp_path):
        clock = FakeClock()
        m0, m1 = self._pair(tmp_path, clock)
        m2 = ClusterMembership(tmp_path, 2, 3, ttl_s=3.0, clock=clock)
        m2.acquire()
        clock.now += 10.0
        assert m1.fence_slot(0)[0] == "won"
        # Simulate the true race window: shard 2 computed the same next
        # epoch (it read the pre-takeover fence) and finds shard 1's
        # O_EXCL claim already on disk.
        fence_path(tmp_path, 0).unlink()
        assert m2.fence_slot(0) == ("lost", 2)
        # Re-checking one's own claim reports "ours", not a new win.
        assert m1.fence_slot(0) == ("ours", 2)

    def test_shard_cannot_fence_itself(self, tmp_path):
        m0, _m1 = self._pair(tmp_path, FakeClock())
        with pytest.raises(ClusterError):
            m0.fence_slot(0)

    def test_check_fence_passes_while_epoch_current(self, tmp_path):
        m0, _m1 = self._pair(tmp_path, FakeClock())
        m0.check_fence()  # no raise


# ----------------------------------------------------------------------
# Zombie appends at the journal layer


class _InlineLoop:
    """Stub loop: run callbacks inline (publish tests need no asyncio)."""

    def call_soon_threadsafe(self, fn, *args):
        fn(*args)


class TestZombiePublish:
    def test_fenced_append_rejected_before_touching_the_file(self, tmp_path):
        store = JournalStore(tmp_path)
        jnl = store.create("a" * 16)
        jnl.append({"type": "request", "job": "a" * 16, "shard": 0})
        before = store.path_for("a" * 16).read_bytes()

        def fence():
            raise FencedError("slot 0 taken over at epoch 2")

        jnl.fence = fence
        fenced_callbacks = []
        request = protocol.SubmitRequest(kind="app", tenant="t", spec={})
        job = Job("k" * 16, request, _InlineLoop(), job_id="a" * 16, journal=jnl)
        job.on_fenced = lambda: fenced_callbacks.append(1)

        job.publish({"event": "progress"})

        assert job.journal_errors == 1 and job.fenced_rejections == 1
        assert fenced_callbacks == [1]
        assert store.path_for("a" * 16).read_bytes() == before, (
            "the zombie's append must never reach the journal file"
        )
        # In-memory fan-out still happened: local subscribers unblock.
        assert job.events and job.events[-1]["event"] == "progress"

    def test_fence_checked_under_the_append_lock(self, tmp_path):
        store = JournalStore(tmp_path)
        jnl = store.create("b" * 16)
        calls = []
        jnl.fence = lambda: calls.append(1)
        jnl.append({"type": "event", "seq": 1})
        assert calls == [1]
        jnl.close()

    def test_fenced_appends_count_once_in_server_counters(
        self, serve_factory, tmp_path, gated_execute  # noqa: F811
    ):
        """Each fenced append is one degraded write: it counts once in
        ``serve.journal_errors`` and once in
        ``cluster.fenced_appends_rejected``."""
        shard = serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)
        request, _key = _request_owned_by(0)
        stream = client.stream_submit(shard.base_url, request, timeout=120)
        job_id = next(stream)["job"]
        assert gated_execute["started"].wait(timeout=30)
        # A peer takes slot 0 over while the job runs: every later
        # append by this (now zombie) shard is fenced.
        cluster._write_atomic(
            fence_path(_cluster_dir(tmp_path), 0),
            {"shard": 0, "epoch": 99, "by": 1},
        )
        gated_execute["release"].set()
        events = list(stream)
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        _wait_until(
            lambda: client.get_json(shard.base_url, "/metrics")[
                "serve.active_jobs"
            ] == 0.0,
            message="the job to retire",
        )
        metrics = shard.metrics()
        fenced = metrics["cluster.fenced_appends_rejected"]
        assert fenced >= 1.0
        assert metrics["serve.journal_errors"] == fenced
        records = JournalStore(_journal_dir(tmp_path)).read(job_id)
        assert not job_summary(records)["done"], (
            "no fenced append reached the journal"
        )


# ----------------------------------------------------------------------
# Lease-aware prune (satellite: prune must not eat live shards' journals)


def _write_journal(store, job_id, records):
    jnl = store.create(job_id)
    for record in records:
        jnl.append(record)
    jnl.close()
    os.utime(store.path_for(job_id), (1.0, 1.0))  # ancient


DONE_BY_SHARD_0 = [
    {"type": "request", "job": "a" * 16, "shard": 0, "epoch": 1},
    {"type": "event", "seq": 1, "event": {"event": "done", "ok": True}},
]


class TestLeaseAwarePrune:
    def test_live_lease_protects_even_completed_journals(self, tmp_path):
        store = JournalStore(tmp_path / "jobs")
        _write_journal(store, "a" * 16, DONE_BY_SHARD_0)
        m = ClusterMembership(tmp_path / "cluster", 0, 2, ttl_s=3600.0)
        m.acquire()

        removed = store.prune(days=7)
        assert removed == {"journals": 0, "tmp": 0, "leased": 1}
        assert store.job_ids() == ["a" * 16]

        m.release()
        removed = store.prune(days=7)
        assert removed == {"journals": 1, "tmp": 0, "leased": 0}, (
            "after release only the lease-free done-check applies; the "
            "fence file alone must not protect forever"
        )

    def test_expired_lease_does_not_protect(self, tmp_path):
        store = JournalStore(tmp_path / "jobs")
        _write_journal(store, "a" * 16, DONE_BY_SHARD_0)
        clock = FakeClock()
        m = ClusterMembership(
            tmp_path / "cluster", 0, 2, ttl_s=3.0, clock=clock
        )
        m.acquire()
        clock.now += 100.0  # dead, per the wall clock too
        time.sleep(0)  # (wall clock governs protected_shards)
        # Rewrite the lease with a long-stale renewed_at on the wall clock.
        cluster._write_atomic(
            lease_path(tmp_path / "cluster", 0),
            {"shard": 0, "epoch": 1, "addr": "", "pid": 1,
             "renewed_at": time.time() - 100.0, "ttl_s": 3.0},
        )
        assert store.prune(days=7)["journals"] == 1

    def test_fresh_takeover_claim_protects_mid_takeover_slot(self, tmp_path):
        store = JournalStore(tmp_path / "jobs")
        _write_journal(store, "a" * 16, DONE_BY_SHARD_0)
        root = tmp_path / "cluster"
        root.mkdir()
        (root / "takeover-0-2.claim").write_text(json.dumps({"by": 1}))
        assert store.prune(days=7) == {"journals": 0, "tmp": 0, "leased": 1}

        os.utime(root / "takeover-0-2.claim", (1.0, 1.0))  # stale claim
        assert store.prune(days=7)["journals"] == 1

    def test_protected_shards_ignores_garbage(self, tmp_path):
        root = tmp_path / "cluster"
        root.mkdir()
        (root / "shard-x.lease").write_text("not json")
        (root / "takeover-zzz.claim").write_text("{}")
        assert protected_shards(root) == set()
        assert protected_shards(tmp_path / "absent") == set()


# ----------------------------------------------------------------------
# End-to-end: two in-process shards sharing one cache dir


def _request_owned_by(shard, n_shards=2):
    """An app submit whose coalesce key the ring assigns to ``shard``."""
    ring = HashRing(n_shards)
    for seed in range(256):
        doc = {
            "kind": "app", "app": "array-insert", "mode": "speedup",
            "pages": 2.0, "seed": seed, "tenant": "t",
        }
        key = protocol.parse_submit(doc).coalesce_key()
        if ring.owner(key) == shard:
            return doc, key
    raise AssertionError("no seed hashed to the wanted shard")


def _journal_dir(tmp_path):
    return tmp_path / "serve-cache" / "jobs"  # serve_factory's cache dir


def _cluster_dir(tmp_path):
    return tmp_path / "serve-cache" / "cluster"


def _plant_dead_lease(tmp_path, shard):
    """An expired heartbeat for ``shard`` — the crashed-peer setup."""
    root = _cluster_dir(tmp_path)
    root.mkdir(parents=True, exist_ok=True)
    cluster._write_atomic(
        lease_path(root, shard),
        {"shard": shard, "epoch": 1, "addr": "127.0.0.1:1", "pid": 1,
         "renewed_at": time.time() - 60.0, "ttl_s": 0.2},
    )


class TestClusterEndToEnd:
    def test_submit_redirects_to_owning_shard_and_client_follows(
        self, serve_factory, tmp_path
    ):
        shard_a = serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)
        shard_b = serve_factory(shards=2, shard_index=1, lease_ttl_s=30.0)
        request, _key = _request_owned_by(1)

        # A bare submit against the wrong shard is a 307 with Location.
        with pytest.raises(client.ServerError) as info:
            list(client.stream_submit(shard_a.base_url, request, timeout=30))
        assert info.value.status == 307
        assert info.value.headers["location"] == (
            f"http://127.0.0.1:{shard_b.port}/submit"
        )
        assert info.value.payload["event"] == "redirect"
        assert info.value.payload["shard"] == 1

        # The resilient client follows it to completion.
        events = list(
            client.stream_submit_resilient(
                shard_a.base_url, request, timeout=120
            )
        )
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        assert shard_a.metrics()["cluster.redirects_total"] == 2.0
        assert shard_b.metrics()["serve.jobs_total"] == 1.0

        status = client.get_json(shard_a.base_url, "/cluster")
        assert status["cluster"] is True and status["alive"] == [0, 1]
        assert status["peers"]["1"]["addr"] == f"127.0.0.1:{shard_b.port}"

    def test_own_keys_are_served_locally(self, serve_factory):
        shard_a = serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)
        serve_factory(shards=2, shard_index=1, lease_ttl_s=30.0)
        request, _key = _request_owned_by(0)
        events = list(
            client.stream_submit(shard_a.base_url, request, timeout=120)
        )
        assert events[-1]["ok"] is True
        assert shard_a.metrics().get("cluster.redirects_total", 0.0) == 0.0

    def test_dead_peer_journal_is_fenced_and_adopted(
        self, serve_factory, tmp_path
    ):
        """The takeover sweep: shard 0 died mid-job (expired lease +
        incomplete journal); shard 1 fences the slot, adopts the job
        with seq continuation, and runs it to completion."""
        request, key = _request_owned_by(0)
        spec = protocol.parse_submit(request).spec
        store = JournalStore(_journal_dir(tmp_path))
        job_id = "d" * 16 + "-feed0000"
        jnl = store.create(job_id)
        jnl.append({
            "type": "request", "job": job_id, "key": key, "kind": "app",
            "tenant": "t", "spec": spec, "created_at": time.time(),
            "shard": 0, "epoch": 1,
        })
        jnl.append({
            "type": "event", "seq": 1,
            "event": {"event": "queued", "job": job_id, "seq": 1},
        })
        jnl.close()
        _plant_dead_lease(tmp_path, 0)

        shard_b = serve_factory(shards=2, shard_index=1, lease_ttl_s=0.3)
        _wait_until(
            lambda: shard_b.metrics().get("cluster.takeovers_total", 0) == 1.0,
            message="takeover of the dead shard",
        )
        assert read_fence_epoch(_cluster_dir(tmp_path), 0) >= 2, (
            "the takeover bumped slot 0's fence epoch"
        )
        _wait_until(
            lambda: client.get_json(
                shard_b.base_url, f"/jobs/{job_id}"
            )["status"] == "done",
            message="adopted job to finish",
        )
        records = store.read(job_id)
        summary = job_summary(records)
        assert summary["done"] is True and summary["ok"] is True
        seqs = [r["seq"] for r in records if r.get("type") == "event"]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert seqs[0] == 1 and seqs[1] == 2, (
            "adoption continues the dead shard's numbering gaplessly"
        )
        recovered = next(
            r["event"] for r in records
            if r.get("type") == "event"
            and r["event"].get("event") == "recovered"
        )
        assert recovered["takeover_from"] == 0
        metrics = shard_b.metrics()
        assert metrics["cluster.takeover_jobs_adopted"] == 1.0
        assert metrics["serve.recovered_jobs"] == 1.0

    def test_duplicate_key_journals_across_shards_are_superseded(
        self, serve_factory, tmp_path, gated_execute  # noqa: F811
    ):
        """Satellite: the same request journaled on two shards (crash,
        client resubmitted to the survivor, crash again) must run once —
        the takeover closes the duplicate as superseded."""
        request, key = _request_owned_by(0)
        spec = protocol.parse_submit(request).spec
        store = JournalStore(_journal_dir(tmp_path))

        def plant(job_id, shard):
            jnl = store.create(job_id)
            jnl.append({
                "type": "request", "job": job_id, "key": key, "kind": "app",
                "tenant": "t", "spec": spec, "created_at": time.time(),
                "shard": shard, "epoch": 1,
            })
            jnl.append({
                "type": "event", "seq": 1,
                "event": {"event": "queued", "job": job_id, "seq": 1},
            })
            jnl.close()

        mine, theirs = "a" * 16 + "-00000000", "b" * 16 + "-11111111"
        plant(mine, 0)  # this shard's own incomplete journal
        plant(theirs, 1)  # the dead peer's duplicate of the same key
        _plant_dead_lease(tmp_path, 1)

        shard_a = serve_factory(shards=2, shard_index=0, lease_ttl_s=0.3)
        try:
            # Startup recovery re-queued `mine`; the gate holds it
            # in-flight while the takeover sweep finds the duplicate.
            _wait_until(
                lambda: shard_a.metrics().get(
                    "serve.superseded_journals", 0
                ) == 1.0,
                message="duplicate journal to be closed as superseded",
            )
        finally:
            gated_execute["release"].set()
        _wait_until(
            lambda: client.get_json(
                shard_a.base_url, f"/jobs/{mine}"
            )["status"] == "done",
            message="surviving job to finish",
        )
        assert len(gated_execute["calls"]) == 1, "the work ran exactly once"

        loser = job_summary(store.read(theirs))
        assert loser["done"] is True and loser["ok"] is False
        last = [
            r["event"] for r in store.read(theirs) if r.get("type") == "event"
        ][-1]
        assert last["superseded"] is True
        assert shard_a.metrics()["cluster.takeovers_total"] == 1.0

    def test_resume_of_dead_shards_job_adopts_on_demand(
        self, serve_factory, tmp_path
    ):
        """A resume arriving before the periodic sweep fences and adopts
        immediately — the client does not wait out the lease TTL."""
        request, key = _request_owned_by(1)
        spec = protocol.parse_submit(request).spec
        store = JournalStore(_journal_dir(tmp_path))
        job_id = "e" * 16 + "-0dead000"
        jnl = store.create(job_id)
        jnl.append({
            "type": "request", "job": job_id, "key": key, "kind": "app",
            "tenant": "t", "spec": spec, "created_at": time.time(),
            "shard": 1, "epoch": 1,
        })
        jnl.append({
            "type": "event", "seq": 1,
            "event": {"event": "queued", "job": job_id, "seq": 1},
        })
        jnl.close()
        _plant_dead_lease(tmp_path, 1)

        # A long lease TTL on the survivor keeps the periodic sweep
        # from racing the on-demand path in this test.
        shard_a = serve_factory(shards=2, shard_index=0, lease_ttl_s=120.0)
        events = list(
            client.stream_submit(
                shard_a.base_url,
                {"kind": "resume", "job": job_id, "after_seq": 1,
                 "tenant": "t"},
                timeout=120,
            )
        )
        accepted = events[0]
        assert accepted["event"] == "accepted"
        assert accepted.get("adopted") is True
        assert events[-1]["event"] == "done" and events[-1]["ok"] is True
        seqs = [e["seq"] for e in events if "seq" in e and e["seq"]]
        assert all(s > 1 for s in seqs), "after_seq=1 replays nothing old"
        metrics = shard_a.metrics()
        assert metrics["cluster.takeovers_total"] == 1.0
        assert read_fence_epoch(_cluster_dir(tmp_path), 1) >= 2

    def test_duplicate_shard_index_boot_is_refused(self, serve_factory):
        serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)
        with pytest.raises(ClusterError, match="lease is held"):
            serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)

    def test_metrics_and_history_expose_cluster_counters(
        self, serve_factory
    ):
        from repro.serve.server import serve_history_record

        shard_a = serve_factory(shards=2, shard_index=0, lease_ttl_s=30.0)
        request, _key = _request_owned_by(0)
        events = list(
            client.stream_submit(shard_a.base_url, request, timeout=120)
        )
        assert events[-1]["ok"] is True
        metrics = client.get_json(shard_a.base_url, "/metrics")
        for name in (
            "cluster.shards_alive", "cluster.takeovers_total",
            "cluster.fenced_appends_rejected", "cluster.redirects_total",
            "cluster.shard.0.queue_depth", "cluster.shard.0.active_jobs",
        ):
            assert name in metrics, name
        assert metrics["cluster.shards_alive"] >= 1.0

        record = serve_history_record(shard_a.server)
        assert record["kind"] == "serve" and record["shard"] == 0
        assert record["admission"]["jobs_total"] == 1.0
        assert record["cluster"]["shards"] == 2
        assert "count" in record["queue_wait_ms"]
