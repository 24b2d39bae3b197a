"""Durable job journal: the write-ahead log behind ``repro serve``.

PR 8's service kept every job's request and event stream in memory
only — a crash lost all queued and in-flight work, and a dropped
connection lost the client's place in the stream.  This module makes
the serve layer's job state *durable*: every admitted job gets an
append-only, fsynced journal file under ``<cache>/jobs/`` recording
its request envelope and every emitted stream event with a
monotonically increasing sequence number.  On restart the server
scans the directory and re-enqueues whatever never reached ``done``
(cheap to replay: the content-addressed result cache and single-flight
coalescing absorb already-finished work), and a reconnecting client
``resume``\\ s from any ``after_seq`` — replayed from the journal, then
attached live.

On-disk format
--------------

One file per job, ``<job_id>.wal``, containing framed records::

    <length:8 hex> <crc32:8 hex> <body bytes>\\n

``length`` is the byte length of ``body``; ``crc32`` is
``zlib.crc32(body)``; ``body`` is one compact, sorted-key JSON object.
The fixed 18-byte header makes recovery self-synchronizing from the
start of the file, and the checksum makes it *torn-tail tolerant*: a
record truncated by a crash mid-``write`` (or corrupted at the tail)
fails its length or checksum test and is discarded, along with
anything after it — every prefix of a journal is a valid journal.
Records are fsynced as written, so with an OS-default journaling
filesystem the tail is the only thing a ``SIGKILL`` can cost.

Record types (the ``"type"`` field of the body):

``request``
    First record of every journal: the job's identity (``job``,
    ``key``, ``kind``, ``tenant``) plus the normalized request
    ``spec`` — everything needed to re-enqueue the job after a crash.
``event``
    One emitted stream event: ``{"type": "event", "seq": N,
    "event": {...}}``.  ``seq`` starts at 1 and increases by exactly 1;
    the embedded event dict carries the same ``seq`` (and the job id)
    so clients can deduplicate replays.  Heartbeats are *not*
    journaled — they carry no payload, only liveness.

Once the final ``done`` record is fsynced, a zero-byte ``<job_id>.done``
mark is created beside the journal.  Boot recovery, ``stats`` and
``prune`` read the mark instead of decoding a finished journal; a crash
between the record and the mark only costs that journal a decode.

Concurrency: journal creation claims the final filename with
``O_CREAT | O_EXCL`` (the same pattern as ``ResultCache.store`` tmp
claims and chaos rule firings), so two server processes sharing one
cache directory can never interleave writes into one job's journal.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Journal file suffix (``<job_id>.wal``).
JOURNAL_SUFFIX = ".wal"

#: Done-mark suffix (``<job_id>.done``, zero bytes).
DONE_SUFFIX = ".done"

#: ``"%08x %08x "`` — length field, crc field, two separators.
RECORD_HEADER_BYTES = 18

#: Hard bound on one record body (1 MiB matches the request-body bound;
#: also rejects absurd length fields while scanning damaged files).
MAX_RECORD_BYTES = 1 << 20

#: Job ids are filesystem names and URL path segments; keep them to a
#: strict, traversal-proof alphabet.
JOB_ID_RE = re.compile(r"^[0-9a-f]{8,64}(-[0-9a-f]{1,16})?$")


class JournalError(Exception):
    """A journal operation that could not be performed."""


def valid_job_id(job_id: str) -> bool:
    return bool(JOB_ID_RE.match(job_id))


def encode_record(payload: Dict[str, object]) -> bytes:
    """Frame one record: ``<len:8x> <crc32:8x> <json>\\n``."""
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")
    if len(body) > MAX_RECORD_BYTES:
        raise JournalError(
            f"record too large ({len(body)} > {MAX_RECORD_BYTES} bytes)"
        )
    return b"%08x %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


def decode_records(data: bytes) -> Tuple[List[Dict[str, object]], int]:
    """Parse framed records; returns ``(records, clean_byte_length)``.

    Parsing stops at the first record that is truncated, misframed, or
    fails its checksum — the torn tail a crash mid-append leaves
    behind.  ``clean_byte_length`` is the offset of that first bad
    byte: truncating the file there yields a journal every record of
    which is intact, so recovery can keep appending in place.
    """
    records: List[Dict[str, object]] = []
    offset = 0
    total = len(data)
    while True:
        header = data[offset : offset + RECORD_HEADER_BYTES]
        if len(header) < RECORD_HEADER_BYTES:
            break
        if header[8:9] != b" " or header[17:18] != b" ":
            break
        try:
            length = int(header[0:8], 16)
            crc = int(header[9:17], 16)
        except ValueError:
            break
        if length > MAX_RECORD_BYTES:
            break
        end = offset + RECORD_HEADER_BYTES + length + 1
        if end > total or data[end - 1 : end] != b"\n":
            break
        body = data[offset + RECORD_HEADER_BYTES : end - 1]
        if zlib.crc32(body) != crc:
            break
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(payload, dict):
            break
        records.append(payload)
        offset = end
    return records, offset


def job_summary(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Digest a journal's records into a status document.

    Shape (shared by ``GET /jobs/<id>`` and recovery):
    ``job``/``key``/``kind``/``tenant``/``spec``/``created_at`` from
    the request record (absent fields are ``None``; other request
    fields are ignored), plus ``seq`` (the highest
    journaled sequence number), ``events`` (count), ``done`` and
    ``ok`` (from a journaled final ``done`` event, else
    ``False``/``None``).
    """
    summary: Dict[str, object] = {
        "job": None,
        "key": None,
        "kind": None,
        "tenant": None,
        "spec": None,
        "created_at": None,
        "seq": 0,
        "events": 0,
        "done": False,
        "ok": None,
    }
    for record in records:
        rtype = record.get("type")
        if rtype == "request":
            for name in ("job", "key", "kind", "tenant", "spec", "created_at"):
                summary[name] = record.get(name)
        elif rtype == "event":
            summary["events"] = int(summary["events"]) + 1
            try:
                seq = int(record.get("seq", 0))
            except (TypeError, ValueError):
                seq = 0
            summary["seq"] = max(int(summary["seq"]), seq)
            event = record.get("event")
            if isinstance(event, dict) and event.get("event") == "done":
                summary["done"] = True
                ok = event.get("ok")
                summary["ok"] = bool(ok) if ok is not None else None
    return summary


class JobJournal:
    """One job's open journal: framed, fsynced, append-only.

    Thread-safe: the server publishes events from worker threads and
    the event loop; appends are serialized and each one is flushed to
    the file descriptor and fsynced before returning — *then* the
    event is handed to subscribers (journal-before-emit), so nothing a
    client ever saw can be lost to a crash.
    """

    def __init__(self, path: Path, fd: int) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = fd
        self._lock = threading.Lock()

    @property
    def closed(self) -> bool:
        return self._fd is None

    def append(self, payload: Dict[str, object]) -> None:
        """Append one framed record durably (no-op after close)."""
        frame = encode_record(payload)
        with self._lock:
            if self._fd is None:
                return
            os.write(self._fd, frame)
            os.fsync(self._fd)

    def mark_done(self) -> None:
        """Create the done mark (no-op after close).

        Call it only after the ``done`` record's :meth:`append`
        returned: that record is fsynced by then, so a mark on disk
        always means a finished journal.
        """
        with self._lock:
            if self._fd is None:
                return
            _mark(self.path)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                finally:
                    self._fd = None


class JournalStore:
    """The journal directory: create, recover, scan, prune.

    Lives under the result cache root (``<cache>/jobs/``) so one
    ``--cache-dir`` / ``$REPRO_CACHE_DIR`` setting governs all durable
    state, and ``repro cache stats|prune`` naturally covers journals.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def path_for(self, job_id: str) -> Path:
        if not valid_job_id(job_id):
            raise JournalError(f"invalid job id {job_id!r}")
        return self.root / f"{job_id}{JOURNAL_SUFFIX}"

    def exists(self, job_id: str) -> bool:
        try:
            return self.path_for(job_id).is_file()
        except JournalError:
            return False

    def create(self, job_id: str) -> JobJournal:
        """Claim and open a fresh journal for ``job_id``.

        The final name is opened ``O_CREAT | O_EXCL`` — atomic on
        POSIX — so two writers (two server processes sharing a cache
        directory, or a recovery racing a resubmit) can never both own
        one job's journal; the loser gets :class:`FileExistsError`.
        """
        path = self.path_for(job_id)
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        return JobJournal(path, fd)

    def open_existing(self, job_id: str) -> Tuple[JobJournal, List[Dict[str, object]]]:
        """Re-open a journal for appending; returns ``(journal, records)``.

        The torn tail (if any) is truncated away first, so appended
        records always follow intact framing; the recovered records are
        returned so the caller can rebuild in-memory state (event
        buffer, next sequence number) in the same step.
        """
        path = self.path_for(job_id)
        fd = os.open(path, os.O_RDWR)
        try:
            data = os.read(fd, os.fstat(fd).st_size)
            records, clean = decode_records(data)
            if clean < len(data):
                os.ftruncate(fd, clean)
            os.lseek(fd, 0, os.SEEK_END)
        except OSError:
            os.close(fd)
            raise
        return JobJournal(path, fd), records

    def read(self, job_id: str) -> List[Dict[str, object]]:
        """The intact records of a journal (``[]`` when absent)."""
        try:
            data = self.path_for(job_id).read_bytes()
        except (JournalError, OSError):
            return []
        records, _ = decode_records(data)
        return records

    def _listing(self) -> Tuple[List[str], Set[str]]:
        """Journal file stems and done-mark stems, from one directory
        listing (neither validated as job ids)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return [], set()
        stems: List[str] = []
        marked: Set[str] = set()
        for name in names:
            if name.endswith(JOURNAL_SUFFIX):
                stems.append(name[: -len(JOURNAL_SUFFIX)])
            elif name.endswith(DONE_SUFFIX):
                marked.add(name[: -len(DONE_SUFFIX)])
        return stems, marked

    def job_ids(self) -> List[str]:
        return sorted(i for i in self._listing()[0] if valid_job_id(i))

    def _finished(self, job_id: str, marked: Set[str]) -> bool:
        """Whether a journal reached ``done``: its mark, else a decode."""
        return job_id in marked or bool(job_summary(self.read(job_id))["done"])

    def unfinished(self) -> Iterator[Tuple[str, List[Dict[str, object]]]]:
        """Yield ``(job_id, records)`` for every journal that never
        reached ``done``, oldest first.

        Marked journals are never read.  An unmarked one that decodes as
        finished (a crash landed between its record and its mark, or it
        predates marks) gets its mark here.  Ordering follows file mtime
        so crash recovery re-enqueues jobs roughly in their original
        admission order.
        """
        stems, marked = self._listing()
        entries = []
        for job_id in stems:
            if job_id in marked or not valid_job_id(job_id):
                continue
            try:
                mtime = self.path_for(job_id).stat().st_mtime
            except OSError:
                continue
            entries.append((mtime, job_id))
        for _, job_id in sorted(entries):
            records = self.read(job_id)
            if not job_summary(records)["done"]:
                yield job_id, records
                continue
            try:
                _mark(self.path_for(job_id))
            except OSError:
                pass

    def stats(self) -> Dict[str, object]:
        """Journal accounting for ``cache stats`` / ``/cache/stats``."""
        stems, marked = self._listing()
        journals = 0
        completed = 0
        total_bytes = 0
        for job_id in filter(valid_job_id, stems):
            try:
                total_bytes += self.path_for(job_id).stat().st_size
            except OSError:
                continue
            journals += 1
            completed += self._finished(job_id, marked)
        return {
            "journals": journals,
            "completed": completed,
            "recoverable": journals - completed,
            "journal_bytes": total_bytes,
        }

    def prune(self, days: float) -> Dict[str, int]:
        """Sweep old *completed* journals and orphaned tmp litter.

        Incomplete journals are never pruned — they are recoverable
        work, and the server re-enqueues them on its next start.  A
        pruned journal's done mark goes first, so a crash in between
        leaves a journal that decodes as finished rather than a stray
        mark.  Returns ``{"journals": removed, "tmp": removed}``.
        """
        if days < 0:
            raise ValueError("days cannot be negative")
        cutoff = time.time() - days * 86400.0
        removed = {"journals": 0, "tmp": 0}
        stems, marked = self._listing()
        for job_id in filter(valid_job_id, stems):
            path = self.path_for(job_id)
            try:
                if path.stat().st_mtime > cutoff or not self._finished(job_id, marked):
                    continue
                if job_id in marked:
                    _done_path(path).unlink()
                path.unlink()
                removed["journals"] += 1
            except OSError:
                pass
        if self.root.is_dir():
            for tmp in self.root.glob("*.tmp*"):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        removed["tmp"] += 1
                except OSError:
                    pass
        return removed


def _done_path(journal_path: Path) -> Path:
    return journal_path.with_suffix(DONE_SUFFIX)


def _mark(journal_path: Path) -> None:
    """Create the zero-byte done mark beside a journal."""
    os.close(os.open(_done_path(journal_path), os.O_WRONLY | os.O_CREAT, 0o644))
