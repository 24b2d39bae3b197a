"""Sharded serve cluster: consistent hashing, leases, epoch fencing.

One ``.repro_cache/`` can back several server processes — *shards* —
each owning a deterministic slice of the job-key space.  This module
holds the coordination state they share, all of it plain files under
``<cache>/cluster/`` (the repository's no-new-hard-dependency rule
applies to clustering too: no etcd, no redis — fsync and ``O_EXCL``
are the consensus protocol):

* :class:`HashRing` — consistent hashing of coalesce keys onto shard
  indexes.  Each shard contributes ``vnodes`` points on a 64-bit ring;
  a key belongs to the first point clockwise from its own hash.  When
  a shard dies, only its arc remaps (to the next live successor) —
  the other shards' keys do not move.
* **Leases** — ``shard-<N>.lease``: a fsynced JSON heartbeat
  (``shard``, ``epoch``, ``addr``, ``pid``, ``renewed_at``,
  ``ttl_s``) rewritten every ``ttl/3`` seconds via atomic
  tmp-then-rename (the :meth:`ResultCache.store` pattern).  A lease
  older than its ``ttl_s`` is *expired*: the shard is presumed dead
  and its incomplete journals become claimable.
* **Fencing** — ``shard-<N>.fence``: the newest epoch ever granted
  for slot ``N``.  Every journal append by a cluster shard first
  checks its own slot's fence (:meth:`ClusterMembership.check_fence`);
  a *zombie* — a shard that stalled past its lease and was taken over
  — finds an epoch newer than its own and gets
  :class:`~repro.serve.journal.FencedError` instead of a write.  The
  journal stays single-writer even when the old owner is still
  breathing.
* **Takeover claims** — ``takeover-<N>-<epoch>.claim``: created with
  ``O_CREAT | O_EXCL`` (the journal-claim / chaos-marker pattern), so
  exactly one surviving peer wins the right to bump a dead slot's
  fence and re-enqueue its journals.  Losers observe ``lost`` and
  stand down.

Epochs only grow: a shard acquiring slot ``N`` takes
``max(lease epoch, fence epoch) + 1`` and writes the fence *before*
its lease, so a restart self-fences its own previous incarnation the
same way a peer takeover fences a zombie.

The server sees all of this through one role object: :class:`Shard`
in cluster mode, or :class:`Standalone`, which gives the same questions
(who owns a key or a journal, where to redirect, what to stamp and
report) their single-process answers.

The launcher (``python -m repro serve --cluster N``) is
:func:`run_cluster`: it spawns ``N`` single-shard server processes
(``--shards N --shard-index i``) sharing the invoking environment's
cache dir and forwards SIGTERM/SIGINT for a coordinated drain.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.serve.journal import FencedError

#: Cluster coordination directory name (sibling of ``<cache>/jobs/``).
CLUSTER_DIRNAME = "cluster"

#: Virtual nodes per shard on the hash ring; 64 keeps the largest
#: shard's share within a few percent of fair for small clusters.
DEFAULT_VNODES = 64

#: Default lease time-to-live; renewal runs every ``ttl/3``.
DEFAULT_LEASE_TTL_S = 3.0

#: A takeover claim younger than this marks its slot "mid-takeover":
#: prune must not delete the journals the claimant is re-enqueuing.
TAKEOVER_GRACE_S = 3600.0

_tmp_counter = itertools.count()


class ClusterError(Exception):
    """A cluster-membership operation that could not be performed."""


# ----------------------------------------------------------------------
# Consistent hashing


class HashRing:
    """Consistent hashing of job keys onto shard indexes.

    Deterministic across processes (pure sha256, no per-process salt):
    every shard computes the same owner for every key, which is what
    makes redirect targets and recovery claims agree without any
    message passing.
    """

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ClusterError(f"need at least 1 shard, got {n_shards}")
        self.n_shards = n_shards
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(vnodes):
                digest = hashlib.sha256(
                    f"shard-{shard}/vnode-{vnode}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    @staticmethod
    def _point(key: str) -> int:
        digest = hashlib.sha256(str(key).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str, alive: Optional[Set[int]] = None) -> int:
        """The shard owning ``key`` — first ring successor, or the
        first *live* successor when ``alive`` is given (a dead shard's
        arc falls to the next surviving shard; everyone else's keys
        stay put)."""
        start = bisect.bisect_right(self._hashes, self._point(key))
        total = len(self._points)
        for step in range(total):
            _, shard = self._points[(start + step) % total]
            if alive is None or shard in alive:
                return shard
        raise ClusterError("no live shards to own the key")


# ----------------------------------------------------------------------
# Lease / fence files


@dataclass
class ShardLease:
    """One decoded ``shard-<N>.lease`` heartbeat."""

    shard: int
    epoch: int
    addr: str
    pid: int
    renewed_at: float
    ttl_s: float

    def expired(self, now: Optional[float] = None) -> bool:
        now = time.time() if now is None else now
        return (now - self.renewed_at) > self.ttl_s


def lease_path(root: Path, shard: int) -> Path:
    return Path(root) / f"shard-{shard}.lease"


def fence_path(root: Path, shard: int) -> Path:
    return Path(root) / f"shard-{shard}.fence"


def _write_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Durable single-file publish: O_EXCL tmp, fsync, atomic rename."""
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{next(_tmp_counter)}"
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        os.write(fd, json.dumps(payload, sort_keys=True).encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def read_lease(root: Path, shard: int) -> Optional[ShardLease]:
    """Decode one slot's lease; ``None`` when absent or corrupt."""
    try:
        raw = lease_path(root, shard).read_text()
        doc = json.loads(raw)
        return ShardLease(
            shard=int(doc["shard"]),
            epoch=int(doc["epoch"]),
            addr=str(doc.get("addr", "")),
            pid=int(doc.get("pid", 0)),
            renewed_at=float(doc["renewed_at"]),
            ttl_s=float(doc["ttl_s"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def read_fence_epoch(root: Path, shard: int) -> int:
    """The newest epoch granted for a slot (0 when never fenced)."""
    try:
        doc = json.loads(fence_path(root, shard).read_text())
        return int(doc["epoch"])
    except (OSError, ValueError, KeyError, TypeError):
        return 0


def protected_shards(
    cluster_root: Path, now: Optional[float] = None
) -> Set[int]:
    """Slots whose journals prune must leave alone.

    A slot is protected while its lease is live (the shard may be
    about to append) or while a takeover claim younger than
    :data:`TAKEOVER_GRACE_S` exists (a peer is mid-way through
    re-enqueuing its journals).  Absent cluster dir → nothing
    protected (the single-process case).
    """
    root = Path(cluster_root)
    if not root.is_dir():
        return set()
    now = time.time() if now is None else now
    protected: Set[int] = set()
    for path in root.glob("shard-*.lease"):
        try:
            slot = int(path.name[len("shard-"):-len(".lease")])
        except ValueError:
            continue
        lease = read_lease(root, slot)
        if lease is not None and not lease.expired(now):
            protected.add(slot)
    for path in root.glob("takeover-*.claim"):
        parts = path.name[len("takeover-"):-len(".claim")].split("-")
        try:
            slot = int(parts[0])
            age = now - path.stat().st_mtime
        except (ValueError, OSError, IndexError):
            continue
        if age <= TAKEOVER_GRACE_S:
            protected.add(slot)
    return protected


# ----------------------------------------------------------------------
# Membership


class ClusterMembership:
    """One shard's view of, and handle on, the shared cluster state.

    All methods are synchronous file operations (a handful of small
    reads, one fsynced write for renewals) — cheap enough to call from
    the server's event loop at request rate for small clusters.
    ``clock`` is an injection seam for tests (wall-clock by default:
    lease timestamps must compare across processes).
    """

    def __init__(
        self,
        root: Path,
        shard_index: int,
        n_shards: int,
        addr: str = "",
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not 0 <= shard_index < n_shards:
            raise ClusterError(
                f"shard index {shard_index} outside 0..{n_shards - 1}"
            )
        if ttl_s <= 0:
            raise ClusterError(f"lease ttl must be positive, got {ttl_s}")
        self.root = Path(root)
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.addr = addr
        self.ttl_s = ttl_s
        self.clock = clock
        self.epoch = 0
        self.fenced = False

    # -- lifecycle ------------------------------------------------------

    def acquire(self) -> int:
        """Claim this shard's slot; returns the granted epoch.

        Refuses a slot with a live lease (two processes configured for
        the same ``--shard-index`` is an operator error, not a race to
        win).  The granted epoch supersedes both the stale lease and
        the current fence, and the fence is written *first* — so a
        crashed predecessor that somehow wakes up is already fenced
        by the time this incarnation starts journaling.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        now = self.clock()
        lease = read_lease(self.root, self.shard_index)
        if lease is not None and not lease.expired(now):
            remaining = lease.ttl_s - (now - lease.renewed_at)
            raise ClusterError(
                f"shard slot {self.shard_index} lease is held by pid "
                f"{lease.pid} (epoch {lease.epoch}, addr {lease.addr!r}; "
                f"expires in {remaining:.1f}s)"
            )
        prior = max(
            lease.epoch if lease is not None else 0,
            read_fence_epoch(self.root, self.shard_index),
        )
        self.epoch = prior + 1
        self.fenced = False
        _write_atomic(
            fence_path(self.root, self.shard_index),
            {"shard": self.shard_index, "epoch": self.epoch,
             "by": self.shard_index},
        )
        self._write_lease(now)
        return self.epoch

    def _write_lease(self, now: float) -> None:
        _write_atomic(
            lease_path(self.root, self.shard_index),
            asdict(
                ShardLease(
                    shard=self.shard_index,
                    epoch=self.epoch,
                    addr=self.addr,
                    pid=os.getpid(),
                    renewed_at=now,
                    ttl_s=self.ttl_s,
                )
            ),
        )

    def renew(self) -> bool:
        """Heartbeat the lease; ``False`` once this shard is fenced.

        A fenced shard must stop renewing — rewriting the lease would
        make a taken-over slot look alive again to routing.
        """
        if self.fenced or read_fence_epoch(
            self.root, self.shard_index
        ) > self.epoch:
            self.fenced = True
            return False
        self._write_lease(self.clock())
        return True

    def release(self) -> None:
        """Drop the lease on graceful shutdown (peers may then claim
        and re-enqueue whatever this shard left incomplete)."""
        try:
            lease_path(self.root, self.shard_index).unlink()
        except OSError:
            pass

    def check_fence(self) -> None:
        """Raise :class:`FencedError` if a newer epoch owns this slot.

        Installed as the journal append guard
        (:attr:`repro.serve.journal.JobJournal.fence`): every durable
        write by a cluster shard re-validates its ownership first, so
        a zombie's late appends are rejected rather than interleaved
        with its successor's.
        """
        if not self.fenced:
            current = read_fence_epoch(self.root, self.shard_index)
            if current <= self.epoch:
                return
            self.fenced = True
        raise FencedError(
            f"shard {self.shard_index} epoch {self.epoch} has been fenced "
            f"(slot taken over at epoch "
            f"{read_fence_epoch(self.root, self.shard_index)})"
        )

    # -- peer observation ----------------------------------------------

    def peers(self) -> Dict[int, ShardLease]:
        """Every slot's current lease (including this shard's own)."""
        out: Dict[int, ShardLease] = {}
        for slot in range(self.n_shards):
            lease = read_lease(self.root, slot)
            if lease is not None:
                out[slot] = lease
        return out

    def alive(self, now: Optional[float] = None) -> Set[int]:
        """Slots with unexpired leases; self is included unless fenced
        (routing must keep working even before the first renewal)."""
        now = self.clock() if now is None else now
        live = {
            slot
            for slot, lease in self.peers().items()
            if not lease.expired(now)
        }
        if not self.fenced:
            live.add(self.shard_index)
        elif self.shard_index in live:
            live.discard(self.shard_index)
        return live

    def dead_slots(self, now: Optional[float] = None) -> List[int]:
        """Peer slots with an expired or missing lease."""
        now = self.clock() if now is None else now
        peers = self.peers()
        dead = []
        for slot in range(self.n_shards):
            if slot == self.shard_index:
                continue
            lease = peers.get(slot)
            if lease is None or lease.expired(now):
                dead.append(slot)
        return dead

    def latest_epoch(self, slot: int) -> int:
        """The newest epoch known for a slot (lease or fence)."""
        lease = read_lease(self.root, slot)
        return max(
            lease.epoch if lease is not None else 0,
            read_fence_epoch(self.root, slot),
        )

    # -- takeover -------------------------------------------------------

    def fence_slot(self, slot: int) -> Tuple[str, int]:
        """Try to fence a dead slot; returns ``(outcome, new_epoch)``.

        ``outcome`` is ``"won"`` (this shard holds the O_EXCL takeover
        claim and has bumped the fence — it must now adopt the slot's
        incomplete journals), ``"ours"`` (this shard already claimed
        this epoch earlier — e.g. an on-demand resume adoption beat the
        periodic sweep), or ``"lost"`` (another peer claimed it).
        """
        if slot == self.shard_index:
            raise ClusterError("a shard cannot fence its own slot")
        new_epoch = self.latest_epoch(slot) + 1
        marker = self.root / f"takeover-{slot}-{new_epoch}.claim"
        try:
            fd = os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            try:
                claimer = json.loads(marker.read_text()).get("by")
            except (OSError, ValueError, AttributeError):
                claimer = None
            outcome = "ours" if claimer == self.shard_index else "lost"
            return outcome, new_epoch
        except OSError:
            return "lost", new_epoch
        try:
            os.write(
                fd,
                json.dumps(
                    {"by": self.shard_index, "pid": os.getpid(),
                     "at": self.clock()},
                    sort_keys=True,
                ).encode("utf-8"),
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        _write_atomic(
            fence_path(self.root, slot),
            {"shard": slot, "epoch": new_epoch, "by": self.shard_index},
        )
        return "won", new_epoch


# ----------------------------------------------------------------------
# The server's role: standalone or one shard


class Standalone:
    """The single-process role: every key is local and nothing is fenced."""

    #: the shard index chaos rules and journal stamps carry (none here).
    index: Optional[int] = None

    def join(self, addr: str) -> None:
        """Claim this process's place once the listen address is known."""

    def leave(self) -> None:
        """Give the place up after the drain."""

    def guard(self, journal) -> None:
        """Install the append guard on a journal this server writes."""

    def stamp(self, record: Dict[str, object]) -> None:
        """Add the admitting coordinates to a journal request record."""

    def owns_journal(self, summary: Dict[str, object], key: str) -> bool:
        """Whether a cold boot re-enqueues this incomplete journal."""
        return True

    def redirect_for(self, key: str) -> Optional[Tuple[int, str]]:
        """``(owner, submit URL)`` when another live shard owns ``key``."""
        return None

    def count_fenced(self) -> None:
        """Count one journal append the epoch fence refused."""

    def refresh_gauges(self, queue_depth: float, active: float) -> None:
        """Update the point-in-time membership gauges."""

    def status(self) -> Dict[str, object]:
        """The ``GET /cluster`` membership document."""
        return {"cluster": False, "shards": 1}

    def history(self, metric: Callable[[str], float]) -> Dict[str, object]:
        """The membership fields of a drain-time history record."""
        return {}

    def banner(self) -> str:
        """Suffix for the ``serve: listening`` line."""
        return ""


class Shard(Standalone):
    """One shard of a cluster: ring routing, lease, fence and takeover.

    Wraps this slot's :class:`ClusterMembership` (created here, joined
    once the server knows its listen address) and the ``cluster.*``
    counters.  All methods run on the server's event-loop thread except
    :meth:`count_fenced`, which publishing worker threads call.
    """

    def __init__(
        self,
        root: Path,
        index: int,
        n_shards: int,
        ttl_s: float,
        counters,
    ) -> None:
        self.ring = HashRing(n_shards)
        self.membership = ClusterMembership(root, index, n_shards, ttl_s=ttl_s)
        self.index = index
        self.counters = counters
        # Pre-create the headline counters so /metrics reports zeros
        # rather than omitting them before the first event.
        for name in (
            "redirects_total", "takeovers_total", "fenced_appends_rejected",
        ):
            counters.counter(name)
        #: newest epoch per dead slot already swept for takeover —
        #: avoids rescanning the journal dir every lease tick for a
        #: peer that stays dead.
        self._swept: Dict[int, int] = {}

    def join(self, addr: str) -> None:
        self.membership.addr = addr
        self.membership.acquire()

    def leave(self) -> None:
        self.membership.release()

    async def heartbeat(
        self,
        drained: asyncio.Event,
        on_fenced: Callable[[], None],
        sweep: Callable[[], None],
    ) -> None:
        """Renew the lease every ``ttl/3`` and ``sweep`` for dead peers.

        Once a renewal finds this slot fenced, report it and call
        ``on_fenced`` (the server drains); a zombie sweeps nothing.
        """
        m = self.membership
        interval = max(0.05, m.ttl_s / 3.0)
        reported = False
        while not drained.is_set():
            try:
                await asyncio.wait_for(drained.wait(), timeout=interval)
                break  # drained: leave() releases the lease
            except asyncio.TimeoutError:
                pass
            if m.renew():
                sweep()
            elif not reported:
                reported = True
                print(
                    f"serve: shard {self.index} fenced (epoch {m.epoch} "
                    f"superseded by {read_fence_epoch(m.root, self.index)}); "
                    "draining",
                    flush=True,
                )
                on_fenced()

    def guard(self, journal) -> None:
        journal.fence = self.membership.check_fence

    def stamp(self, record: Dict[str, object]) -> None:
        # The admitting slot/epoch: the coordinates dead-peer takeover
        # and lease-aware prune key off.
        record["shard"] = self.index
        record["epoch"] = self.membership.epoch

    def owns_journal(self, summary: Dict[str, object], key: str) -> bool:
        """A cold boot claims only journals its previous incarnation
        admitted, plus pre-cluster ones the ring assigns here; another
        shard's belong to it, or to whoever fences it once it is dead."""
        shard = summary.get("shard")
        if isinstance(shard, int):
            return shard == self.index
        return self.ring.owner(key) == self.index

    def redirect_for(self, key: str) -> Optional[Tuple[int, str]]:
        owner = self.ring.owner(key, self.membership.alive())
        if owner == self.index:
            return None
        lease = self.membership.peers().get(owner)
        if lease is None or not lease.addr:
            return None  # can't name a target; serve it here instead
        self.counters.counter("redirects_total").add()
        return owner, f"http://{lease.addr}/submit"

    def unswept_dead_slots(self) -> List[int]:
        """Dead peer slots whose newest epoch no sweep has handled.

        A peer that stays dead (or never started) costs a few lease
        reads per tick, not a journal-directory walk.
        """
        m = self.membership
        return [
            slot for slot in m.dead_slots()
            if self._swept.get(slot, -1) < m.latest_epoch(slot)
        ]

    def take_over(self, slot: int, n_jobs: int) -> bool:
        """Fence dead peer ``slot`` so this shard may adopt its ``n_jobs``
        incomplete journals; ``False`` when it must not adopt them.

        With nothing to adopt there is no takeover, and no fence: a
        restarting peer should not find its epoch burned.  A live slot
        still runs its own jobs, and a ``lost`` claim means another peer
        is adopting them.
        """
        m = self.membership
        if not n_jobs:
            self._swept[slot] = m.latest_epoch(slot)
            return False
        if slot in m.alive():
            return False
        outcome, epoch = m.fence_slot(slot)
        self._swept[slot] = epoch
        if outcome == "won":
            self.counters.counter("takeovers_total").add()
            print(
                f"serve: shard {self.index} taking over {n_jobs} job(s) "
                f"from dead shard {slot} (fence epoch {epoch})",
                flush=True,
            )
        return outcome != "lost"

    def count_adopted(self, n_jobs: int) -> None:
        self.counters.counter("takeover_jobs_adopted").add(n_jobs)

    def count_fenced(self) -> None:
        # Called from publishing worker threads; Counter.add is a plain
        # float += (GIL-atomic enough for a diagnostic counter).
        self.counters.counter("fenced_appends_rejected").add()

    def refresh_gauges(self, queue_depth: float, active: float) -> None:
        m = self.membership
        self.counters.counter("shards_alive").set(float(len(m.alive())))
        self.counters.counter("epoch").set(float(m.epoch))
        self.counters.counter("fenced").set(1.0 if m.fenced else 0.0)
        self.counters.counter(f"shard.{self.index}.queue_depth").set(queue_depth)
        self.counters.counter(f"shard.{self.index}.active_jobs").set(active)

    def status(self) -> Dict[str, object]:
        m = self.membership
        now = time.time()
        peers: Dict[str, object] = {}
        for slot, lease in sorted(m.peers().items()):
            peers[str(slot)] = {
                "addr": lease.addr,
                "epoch": lease.epoch,
                "pid": lease.pid,
                "alive": not lease.expired(now),
                "expires_in_s": round(lease.ttl_s - (now - lease.renewed_at), 3),
            }
        return {
            "cluster": True,
            "shard": self.index,
            "shards": m.n_shards,
            "epoch": m.epoch,
            "fenced": m.fenced,
            "alive": sorted(m.alive(now)),
            "peers": peers,
        }

    def history(self, metric: Callable[[str], float]) -> Dict[str, object]:
        return {
            "shard": self.index,
            "cluster": {
                "shards": self.membership.n_shards,
                "epoch": self.membership.epoch,
                "takeovers_total": metric("cluster.takeovers_total"),
                "fenced_appends_rejected": metric(
                    "cluster.fenced_appends_rejected"
                ),
                "redirects_total": metric("cluster.redirects_total"),
            },
        }

    def banner(self) -> str:
        m = self.membership
        return f", shard={self.index}/{m.n_shards}, epoch={m.epoch}"


# ----------------------------------------------------------------------
# Launcher


def shard_argv(args, index: int, n_shards: int) -> List[str]:
    """The child argv for one shard of ``--cluster N``."""
    port = 0 if args.port == 0 else args.port + index
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--shards", str(n_shards),
        "--shard-index", str(index),
        "--host", args.host,
        "--port", str(port),
        "--jobs", str(args.jobs),
        "--concurrency", str(args.concurrency),
        "--max-queue", str(args.max_queue),
        "--retries", str(args.retries if args.retries is not None else 2),
        "--heartbeat", str(args.heartbeat),
        "--lease-ttl", str(
            args.lease_ttl if args.lease_ttl is not None
            else DEFAULT_LEASE_TTL_S
        ),
    ]
    for pair in args.tenant_weight or []:
        argv += ["--tenant-weight", pair]
    if args.task_timeout is not None:
        argv += ["--task-timeout", str(args.task_timeout)]
    if args.no_cache:
        argv.append("--no-cache")
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    return argv


def run_cluster(args) -> int:
    """``python -m repro serve --cluster N``: spawn and babysit N shards.

    Each shard is an ordinary single-shard server process sharing this
    environment's cache dir; with a nonzero ``--port`` shard ``i``
    listens on ``port + i``.  SIGTERM/SIGINT are forwarded to every
    shard so the whole cluster drains together; the exit code is 0
    only when every shard drained cleanly; 2 when ``N < 2``.
    """
    n_shards = int(args.cluster)
    if n_shards < 2:
        print("serve: --cluster needs at least 2 shards", flush=True)
        return 2
    procs: List[subprocess.Popen] = []
    for index in range(n_shards):
        procs.append(subprocess.Popen(shard_argv(args, index, n_shards)))
    print(
        f"serve-cluster: started {n_shards} shard(s) "
        f"(pids {', '.join(str(p.pid) for p in procs)})",
        flush=True,
    )

    def forward(signum: int, _frame: object) -> None:
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass

    previous = {
        sig: signal.signal(sig, forward)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        codes = [proc.wait() for proc in procs]
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    bad = [code for code in codes if code != 0]
    if bad:
        print(f"serve-cluster: shard exit codes {codes}", flush=True)
    return 0 if not bad else 1
