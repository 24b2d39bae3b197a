"""Crash recovery at every publish index, in process.

A clean run of a three-task request journals a request record and ten
events.  For every event record ``k`` but the final ``done``, a fresh
cache dir gets the journal cut right after record ``k`` — intact, and
with half of record ``k + 1`` torn off as a crash mid-append leaves it.
A server booted on it re-opens the job, and a client that had seen
every event up to ``after_seq`` (0, ``seq(k) - 1`` and ``seq(k)``)
resumes.  The stitched stream must be gapless from seq 1, hold exactly
one ``done`` (ok), no duplicate ``result`` and the clean run's result
digest.

Two ways to re-open the job are covered: a restart of the same server
(boot recovery), and a peer's takeover — the journal is stamped by
shard 0, which has no live lease, and shard 1 of two fences slot 0 and
adopts it when the resume arrives.
"""

from __future__ import annotations

import pytest

from repro.serve import client
from repro.serve.journal import JOURNAL_SUFFIX, JournalStore, encode_record
from repro.serve.smoke import result_digest

REQUEST = {
    "kind": "tasks",
    "tenant": "t",
    "tasks": [
        {"app": "array-insert", "pages": 1.0},
        {"app": "array-insert", "pages": 2.0},
        {"app": "database", "pages": 1.0},
    ],
}

#: How each scenario re-opens the cut journal: server overrides, and
#: fields stamped into the journal's request record.
SCENARIOS = {
    "restart": ({}, {}),
    "takeover": (
        {"shards": 2, "shard_index": 1, "lease_ttl_s": 120.0},
        {"shard": 0, "epoch": 1},
    ),
}


def _check_stitched(stitched, clean_digest, where):
    seqs = [e["seq"] for e in stitched]
    assert seqs == list(range(1, len(seqs) + 1)), f"{where}: gaps in {seqs}"
    dones = [e for e in stitched if e["event"] == "done"]
    assert len(dones) == 1 and dones[0]["ok"] is True, f"{where}: {dones}"
    results = [e["task"] for e in stitched if e["event"] == "result"]
    assert len(results) == len(set(results)) == len(REQUEST["tasks"]), (
        f"{where}: results {results}"
    )
    assert result_digest(stitched) == clean_digest, f"{where}: digest"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_resume_after_a_crash_at_every_publish(
    serve_factory, tmp_path, scenario
):
    overrides, stamp = SCENARIOS[scenario]
    clean_server = serve_factory(cache_dir=str(tmp_path / "clean"))
    clean = list(client.stream_submit(clean_server.base_url, REQUEST, timeout=120))
    assert clean[-1]["event"] == "done" and clean[-1]["ok"] is True
    clean_server.stop()
    job_id = clean[0]["job"]
    clean_digest = result_digest(clean)

    store = JournalStore(tmp_path / "clean" / "jobs")
    records = store.read(job_id)
    frames = [encode_record(record) for record in records]
    assert b"".join(frames) == store.path_for(job_id).read_bytes()
    assert records[0]["type"] == "request" and len(records) == 11
    frames[0] = encode_record(dict(records[0], **stamp))

    resumes = 0
    for k in range(1, len(records) - 1):
        seq_k = records[k]["seq"]
        for torn in (False, True):
            cache = tmp_path / f"cut-{k}-{'torn' if torn else 'intact'}"
            (cache / "jobs").mkdir(parents=True)
            data = b"".join(frames[: k + 1])
            if torn:
                data += frames[k + 1][: len(frames[k + 1]) // 2]
            (cache / "jobs" / f"{job_id}{JOURNAL_SUFFIX}").write_bytes(data)

            server = serve_factory(cache_dir=str(cache), **overrides)
            for after_seq in (0, seq_k - 1, seq_k):
                where = f"{scenario} cut after record {k} torn={torn} after_seq={after_seq}"
                resumed = list(
                    client.stream_submit(
                        server.base_url,
                        {"kind": "resume", "job": job_id, "after_seq": after_seq},
                        timeout=120,
                    )
                )
                assert resumed[0]["event"] == "accepted", where
                seen = [
                    r["event"] for r in records[1: k + 1] if r["seq"] <= after_seq
                ]
                stitched = seen + [e for e in resumed if "seq" in e]
                _check_stitched(stitched, clean_digest, where)
                (recovered,) = [e for e in stitched if e["event"] == "recovered"]
                assert recovered.get("takeover_from") == stamp.get("shard"), where
                resumes += 1
            server.stop()
    assert resumes == 9 * 2 * 3
