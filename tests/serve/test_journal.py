"""Durability tests for the serve job journal.

The journal's contract is *every prefix is a valid journal*: a crash
can tear at most the final record, and recovery must decode the
intact prefix, truncate the tear, and keep appending.  These tests
pin that down byte-by-byte — a property round-trip under hypothesis,
truncation at **every** offset of the final record, checksum-failure
tails, two-writer exclusion, and the cache-integration surface
(``stats`` / ``prune``).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import harness
from repro.serve import journal
from repro.serve.journal import (
    JobJournal,
    JournalError,
    JournalStore,
    decode_records,
    encode_record,
    job_summary,
    valid_job_id,
)

# JSON-safe payload values (no NaN: it round-trips as a float but not
# through equality, and the journal only ever stores JSON-clean dicts).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)
_payloads = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(_scalars, st.lists(_scalars, max_size=4)),
    max_size=6,
)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_payloads, max_size=8))
    def test_round_trip_any_record_list(self, payloads):
        blob = b"".join(encode_record(p) for p in payloads)
        records, clean = decode_records(blob)
        assert clean == len(blob)
        assert records == json.loads(json.dumps(payloads))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_payloads, min_size=1, max_size=4), st.data())
    def test_any_truncation_yields_a_valid_prefix(self, payloads, data):
        blob = b"".join(encode_record(p) for p in payloads)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        records, clean = decode_records(blob[:cut])
        assert clean <= cut
        # The recovered prefix must itself decode identically: the
        # invariant recovery relies on to truncate-and-append in place.
        again, clean2 = decode_records(blob[:clean])
        assert again == records and clean2 == clean

    def test_truncation_at_every_byte_of_the_final_record(self):
        head = [{"type": "request", "job": "a" * 16}, {"type": "event", "seq": 1}]
        tail = {"type": "event", "seq": 2, "event": {"event": "done", "ok": True}}
        prefix = b"".join(encode_record(p) for p in head)
        frame = encode_record(tail)
        for cut in range(len(frame)):  # every torn length of the last record
            records, clean = decode_records(prefix + frame[:cut])
            assert records == head, f"cut={cut}"
            assert clean == len(prefix), f"cut={cut}"
        records, clean = decode_records(prefix + frame)
        assert records == head + [tail]

    def test_corrupt_tail_byte_fails_checksum_and_is_dropped(self):
        good = encode_record({"type": "event", "seq": 1})
        bad = bytearray(encode_record({"type": "event", "seq": 2}))
        bad[-3] ^= 0xFF  # flip one body byte; header still well-formed
        records, clean = decode_records(good + bytes(bad))
        assert records == [{"type": "event", "seq": 1}]
        assert clean == len(good)

    def test_oversized_record_rejected_on_encode(self):
        with pytest.raises(JournalError):
            encode_record({"blob": "x" * (journal.MAX_RECORD_BYTES + 1)})

    def test_absurd_length_field_stops_decode(self):
        frame = b"%08x %08x " % (journal.MAX_RECORD_BYTES + 1, 0) + b"{}\n"
        assert decode_records(frame) == ([], 0)


class TestJobIds:
    @pytest.mark.parametrize(
        "job_id", ["0123456789abcdef-00aa11bb", "a" * 8, "f" * 64 + "-0"]
    )
    def test_valid(self, job_id):
        assert valid_job_id(job_id)

    @pytest.mark.parametrize(
        "job_id",
        ["", "short", "UPPERCASE0", "../../../etc/passwd", "a" * 16 + "-",
         "a b c d e f 0 1", "a" * 65, "0" * 16 + "-" + "0" * 17],
    )
    def test_invalid(self, job_id):
        assert not valid_job_id(job_id)

    def test_path_for_rejects_traversal(self, tmp_path):
        store = JournalStore(tmp_path)
        with pytest.raises(JournalError):
            store.path_for("../escape")


class TestStore:
    def _write(self, store, job_id, records):
        jnl = store.create(job_id)
        for record in records:
            jnl.append(record)
        jnl.close()

    def test_create_is_exclusive_across_two_writers(self, tmp_path):
        store_a = JournalStore(tmp_path)
        store_b = JournalStore(tmp_path)  # second process, same directory
        jnl = store_a.create("a" * 16)
        try:
            with pytest.raises(FileExistsError):
                store_b.create("a" * 16)
        finally:
            jnl.close()

    def test_append_after_close_is_a_noop(self, tmp_path):
        store = JournalStore(tmp_path)
        jnl = store.create("b" * 16)
        jnl.append({"type": "event", "seq": 1})
        jnl.close()
        jnl.append({"type": "event", "seq": 2})
        assert jnl.closed
        assert [r["seq"] for r in store.read("b" * 16)] == [1]

    def test_open_existing_truncates_torn_tail_then_appends(self, tmp_path):
        store = JournalStore(tmp_path)
        job_id = "c" * 16
        self._write(store, job_id, [{"type": "event", "seq": n} for n in (1, 2)])
        path = store.path_for(job_id)
        frame = encode_record({"type": "event", "seq": 3})
        with open(path, "ab") as fh:
            fh.write(frame[: len(frame) // 2])  # crash mid-append

        jnl, records = store.open_existing(job_id)
        assert [r["seq"] for r in records] == [1, 2]
        jnl.append({"type": "event", "seq": 3, "event": {"event": "done"}})
        jnl.close()
        records = store.read(job_id)
        assert [r["seq"] for r in records] == [1, 2, 3]
        data = path.read_bytes()
        _, clean = decode_records(data)
        assert clean == len(data), "re-opened journal must end cleanly"

    def test_read_missing_is_empty(self, tmp_path):
        assert JournalStore(tmp_path).read("d" * 16) == []

    def test_scan_orders_oldest_first(self, tmp_path):
        store = JournalStore(tmp_path)
        for n, job_id in enumerate(["1" * 16, "2" * 16, "3" * 16]):
            self._write(store, job_id, [{"type": "request", "job": job_id}])
            os.utime(store.path_for(job_id), (1000.0 + n, 1000.0 + n))
        assert [job_id for job_id, _ in store.unfinished()] == ["1" * 16, "2" * 16, "3" * 16]

    def test_summary_and_stats(self, tmp_path):
        store = JournalStore(tmp_path)
        done = [
            {"type": "request", "job": "a" * 16, "kind": "app", "tenant": "t",
             "key": "k", "spec": {"x": 1}, "created_at": 1.0},
            {"type": "event", "seq": 1, "event": {"event": "queued"}},
            {"type": "event", "seq": 2, "event": {"event": "done", "ok": True}},
        ]
        self._write(store, "a" * 16, done)
        self._write(store, "b" * 16, done[:2])  # incomplete

        summary = job_summary(store.read("a" * 16))
        assert summary["done"] is True and summary["ok"] is True
        assert summary["seq"] == 2 and summary["events"] == 2
        assert summary["kind"] == "app" and summary["spec"] == {"x": 1}
        assert job_summary(store.read("b" * 16))["done"] is False

        stats = store.stats()
        assert stats["journals"] == 2
        assert stats["completed"] == 1 and stats["recoverable"] == 1
        assert stats["journal_bytes"] > 0

    def test_prune_sweeps_completed_and_tmp_but_never_recoverable(self, tmp_path):
        store = JournalStore(tmp_path)
        done = [{"type": "event", "seq": 1, "event": {"event": "done", "ok": True}}]
        self._write(store, "a" * 16, done)
        self._write(store, "b" * 16, [{"type": "event", "seq": 1}])  # incomplete
        (tmp_path / "orphan.tmp123").write_bytes(b"litter")
        for name in (store.path_for("a" * 16), store.path_for("b" * 16),
                     tmp_path / "orphan.tmp123"):
            os.utime(name, (1.0, 1.0))  # ancient

        removed = store.prune(days=30)
        assert removed == {"journals": 1, "tmp": 1}
        assert store.job_ids() == ["b" * 16], "incomplete journals are kept"
        assert not (tmp_path / "orphan.tmp123").exists()

    def test_prune_keeps_recent_completed_journals(self, tmp_path):
        store = JournalStore(tmp_path)
        self._write(
            store, "a" * 16,
            [{"type": "event", "seq": 1, "event": {"event": "done", "ok": True}}],
        )
        assert store.prune(days=30) == {"journals": 0, "tmp": 0}
        assert store.job_ids() == ["a" * 16]

    def test_prune_rejects_negative_days(self, tmp_path):
        with pytest.raises(ValueError):
            JournalStore(tmp_path).prune(days=-1)


class TestResultCacheIntegration:
    def test_cache_stats_and_prune_cover_journals(self, tmp_path):
        cache = harness.ResultCache(tmp_path / "cache")
        store = cache.journal_store()
        jnl = store.create("e" * 16)
        jnl.append({"type": "event", "seq": 1, "event": {"event": "done", "ok": True}})
        jnl.close()
        os.utime(store.path_for("e" * 16), (1.0, 1.0))

        assert cache.stats()["jobs"]["journals"] == 1
        assert cache.prune(days=7) == 0  # no cache entries, only journals
        assert cache.last_journal_prune == {"journals": 1, "tmp": 0}
        assert store.job_ids() == []
