"""Vectorized set-associative, write-back, write-allocate caches (exact LRU).

The hierarchy is built by chaining :class:`Cache` levels; the last
level's misses fall through to :class:`repro.sim.dram.DRAM`.  Accesses
are blocking and in-order — the same conservative model the paper's
conventional memory system uses (latency per miss, no overlap).

Array-resident set layout
-------------------------
Each level keeps fixed-shape numpy state instead of per-set Python
lists:

``_tag``
    ``(n_sets, assoc)`` int64 matrix of resident line tags (-1 = way
    invalid).
``_stamp``
    ``(n_sets, assoc)`` int64 matrix of last-touch timestamps drawn
    from a monotonically increasing access clock.  LRU is *exact*:
    within a set, the victim is always the valid way with the smallest
    stamp, which is precisely the least-recently-touched line.
``_dirty``
    ``(n_sets, assoc)`` bool matrix of write-back state.
``_occ``
    ``(n_sets,)`` occupancy vector (number of valid ways per set).

Batched access contract
-----------------------
:meth:`Cache.access_lines` is the primary entry point: it takes a whole
line-address sequence (the ``range``, list or array :mod:`repro.sim.ops`
produces for block, gather and strided accesses) and resolves hits,
misses, evictions and writebacks in vectorized passes:

* **all-hit batches** (warm re-touch runs) update recency stamps and
  dirty bits with pure array ops — no per-line Python;
* **cold distinct streams** (the contiguous ``range`` output of
  ``lines_for_block``, cold strided scans) resolve every victim with
  segmented index arithmetic: with no re-touches, a set's eviction
  order is exactly "pre-state lines in LRU order, then this batch's
  installs in order";
* everything else (mixed hit/miss runs, the interleaved
  demand/writeback streams a lower level receives) resolves in rounds
  when wide and otherwise falls back to an exact per-set scalar walk
  over numpy-extracted state.  Round ``j`` takes the ``j``-th op of
  every set that has one, on way-major ``(assoc, m)`` copies of the
  active sets' tag, stamp and dirty rows: one compare per way column
  finds each op's way, one flat index per field reads and overwrites
  it, and only the way's old content is recorded.  A batch that
  carries posted installs and whose first op misses can take neither
  fast path, so it skips the full-batch way lookup.

Both general resolvers hand :meth:`Cache._finish` what each op found
in the way it touched; one pass in stream order derives hits, demand
fills, dirty victims and posted DRAM writes from that.

Misses are *batched* into the next level: one recursive
``access_lines``-style call per level per batch carries the demand
fills and the posted dirty victims in their exact global order, so a
megabyte stream costs a handful of Python calls instead of one per
line.

Exact-LRU equivalence
---------------------
The scalar model retained in :mod:`repro.sim.cache_reference` is the
behavioural oracle.  Every batch path above is decision-equivalent to
replaying the batch through the scalar model one line at a time:

* sets are independent, so per-set resolution order cannot change
  decisions; the *inter-set* order of next-level traffic is preserved
  because demand fills and posted victims are both placed by op
  position, each op's fill ahead of the victim it evicts;
* an all-hit batch cannot evict, so pre-state membership decides it;
* in a distinct cold batch no install is ever re-touched, so eviction
  order is the FIFO concatenation used by the segmented fast path;
* per-access latencies are assembled with the same floating-point
  association order as the scalar model (``(hit + fill) + writeback``)
  and summed left-to-right, so total latencies are bit-identical, not
  merely close.

The hypothesis differential suite (``tests/sim/test_cache_vectorized``)
enforces all of this against randomized block/stride/gather mixes.

Adaptive small-batch regime
---------------------------
Below ``_SMALL_BATCH`` lines per call, numpy's per-call overhead
exceeds the actual work, so ``access_lines`` drops into a dict-based
scalar walk instead: each set becomes an ``OrderedDict`` mapping tag to
dirty bit whose iteration order *is* the LRU order (LRU first).  The
dict state is materialized lazily from the matrices on the first
scalar access and flushed back on the next wide batch.  Flips are
common — every fresh machine enters the dict regime and RADram's short
stretches between sync points re-enter it (hostbench serve-mixed, 336
tasks: 562 conversions in, 56 back; fig3-radram, 112 points: 252 in,
56 back) — so both directions touch only the occupied sets, and an
empty set gets its dict on first touch.  Both regimes implement the
identical state machine; the differential suite drives them against
the scalar reference with mixed batch sizes.

One walk per narrow call
------------------------
:meth:`Cache._walk` settles a whole narrow batch in one loop: each line
in this level's dicts and, on a miss or a dirty victim, in the last
level's, which it converts to the dict regime on first touch.  A line
costs one of a few constants, fixed by the configs and assembled once
per level in the scalar model's float association,
``(h1 + (h2 + (miss + xfer)) [+ xfer]) [+ h2]``; the total sums them
left to right.  Hits, misses and writebacks of both levels are
committed once per call, and so are all DRAM and bus traffic, through
``DRAM.read_lines``/``write_lines`` (and so ``Bus.transfer_batch``): no
cache method reaches the per-line ``DRAM.read_line``/``write_line`` or
``Bus.transfer``.  A flush drops each level's lines in the range and
posts its dirty ones the same way, to the last level's dicts in one
:meth:`Cache._install` or to DRAM in one ``write_lines``.  The walk
serves every hierarchy the code builds — L1D over L2 over DRAM, several
L1Ds over one L2 (:mod:`repro.sim.smp`), one level over DRAM — so a
level's next level must sit over DRAM: ``Cache.__init__`` rejects a
deeper chain rather than keep a recursive per-line fallback that
nothing would run.
"""

from __future__ import annotations

import ctypes
import sys
from collections import OrderedDict

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.sim.config import CacheConfig
from repro.sim.dram import DRAM
from repro.check import runtime as _check
from repro.trace import events as _trace

#: Batch op kinds: demand read, demand write, posted victim install.
_READ = 0
_WRITE = 1
_INSTALL = 2

_STAMP_MAX = np.iinfo(np.int64).max

_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: glibc ``mallopt`` parameters and the values pinned for them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit hosts
_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    A wide batch holds a few dozen temporaries of 8 bytes per op at
    once.  glibc maps a block at or above its mmap threshold afresh
    and returns the heap's free top to the kernel once it exceeds the
    trim threshold; both start at 128/256 KiB and rise only when a
    mapped block is freed, to that block's size (and twice it).  So
    whether each batch faulted its temporaries in anew depended on
    the largest single temporary freed earlier in the process: left
    at 1-8 MiB, below a batch's live set, they cost a Figure 3
    array-find point about 5,000 minor faults, against 3 pinned
    (DESIGN.md §5b).  Other C libraries lack ``mallopt``; nothing is
    changed there.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_malloc_thresholds()


class CacheStats:
    """Hit/miss/writeback counters for one cache level."""

    __slots__ = ("hits", "misses", "writebacks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


class Cache:
    """One set-associative cache level (vectorized engine).

    ``next_level`` is either another :class:`Cache` or ``None``, in
    which case ``dram`` must be provided and services misses.
    """

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        next_level: Optional["Cache"] = None,
        dram: Optional[DRAM] = None,
    ) -> None:
        if next_level is None and dram is None:
            raise ValueError(f"cache {name!r} needs a next level or DRAM")
        if next_level is not None and next_level.next_level is not None:
            raise ValueError(
                f"cache {name!r}: a level's next level must sit over DRAM"
            )
        self.name = name
        self.config = config
        self.next_level = next_level
        self.dram = dram
        self.stats = CacheStats()
        n_sets = config.n_sets
        assoc = config.assoc
        self._n_sets = n_sets
        self._assoc = assoc
        # A power-of-two set count (every shipped config) splits a line
        # into (tag, set) with a shift and a mask; -1 keeps np.divmod.
        self._set_shift = n_sets.bit_length() - 1 if n_sets & (n_sets - 1) == 0 else -1
        self._tag = np.full((n_sets, assoc), -1, dtype=np.int64)
        self._stamp = np.zeros((n_sets, assoc), dtype=np.int64)
        self._dirty = np.zeros((n_sets, assoc), dtype=bool)
        self._occ = np.zeros(n_sets, dtype=np.int64)
        self._clock = 1  # stamp 0 is reserved for invalid ways
        # What the narrow walk reads per call, fixed by the configs:
        # the geometry of this level and of the level below, and the
        # per-line costs in the scalar model's float association.  The
        # last level's DRAM costs a line ``rd`` to read and ``wr`` to
        # write, as DRAM.read_line and write_line return them.  A miss
        # that hits the level below costs ``fill_hit``, a fill from
        # DRAM ``fill`` or, with a dirty victim below, ``fill_wb``;
        # posting a dirty victim adds ``post``.
        last = self if next_level is None else next_level
        dram_bytes = last.config.line_bytes
        bus = last.dram.bus.config
        wr = bus.transfer_cycles(dram_bytes) * bus.ns_per_transfer
        rd = last.dram.config.miss_latency_ns + wr
        h1 = config.hit_ns
        if next_level is None:
            n2 = assoc2 = fill_hit = fill_wb = None
            fill, post = h1 + rd, wr
        else:
            h2 = next_level.config.hit_ns
            n2, assoc2 = next_level._n_sets, next_level._assoc
            fill_hit, fill, fill_wb = h1 + h2, h1 + (h2 + rd), h1 + ((h2 + rd) + wr)
            post = h2
        self._walk_k = (
            n_sets, assoc, h1, next_level, n2, assoc2,
            fill_hit, fill, fill_wb, post, dram_bytes,
        )
        self._post_ns = post
        # Scalar-regime state: per-set OrderedDict(tag -> dirty), LRU
        # first, None for a set still empty since entry (the live list
        # names the rest).  None means the matrices are authoritative.
        self._scalar_sets: Optional[List[Optional[OrderedDict]]] = None
        self._scalar_live: List[int] = []
        # Routing counters: wide batches taken per path, and conversions
        # into and out of the dict regime.  Plain ints, no stats role.
        self.batches_all_hit = 0
        self.batches_cold = 0
        self.batches_rounds = 0
        self.batches_walked = 0
        self.dict_entries = 0
        self.dict_exits = 0

    # ------------------------------------------------------------------
    # Public scalar interface — the small-batch regime

    #: At or below this many lines per call, ``access_lines`` uses the
    #: dict-based scalar walk: numpy's fixed per-call overhead beats
    #: the actual work on narrow batches (app traces issue lots of
    #: 8-32 line block ops).  Class attribute so tests can pin a
    #: regime per instance.
    _SMALL_BATCH = 96

    def _ensure_lists(self) -> None:
        """Materialize the per-set LRU dicts from the matrix state.

        Each occupied set becomes ``OrderedDict(tag -> dirty)`` iterating
        LRU first (empty sets get one on first touch); dict order
        replaces stamps entirely in this regime.  The matrices go stale
        until :meth:`_flush_lists` rebuilds them.
        """
        if self._scalar_sets is not None:
            return
        self.dict_entries += 1
        sets: List[Optional[OrderedDict]] = [None] * self._n_sets
        occupied = np.flatnonzero(self._occ)
        if occupied.shape[0]:
            tag_rows = self._tag[occupied]
            stamp_rows = np.where(tag_rows == -1, _STAMP_MAX, self._stamp[occupied])
            order = np.argsort(stamp_rows, axis=1)
            tags = np.take_along_axis(tag_rows, order, axis=1).tolist()
            dirty = np.take_along_axis(self._dirty[occupied], order, axis=1).tolist()
            occs = self._occ[occupied].tolist()
            for s, trow, drow, k in zip(occupied.tolist(), tags, dirty, occs):
                sets[s] = OrderedDict(zip(trow[:k], drow[:k]))
        self._scalar_sets = sets
        self._scalar_live = occupied.tolist()

    def _flush_lists(self) -> None:
        """Write the scalar dicts back into the matrices.

        Only materialized sets are written: the rest were empty on
        entry and untouched since.  Stamps are renumbered ``1..k`` per
        set (with the clock bumped past them): only the *within-set
        relative* order is observable through LRU decisions, so
        renumbering preserves behaviour.
        """
        sets = self._scalar_sets
        if sets is None:
            return
        self._scalar_sets = None
        self.dict_exits += 1
        assoc = self._assoc
        live = self._scalar_live
        rows = np.array(live, dtype=np.int64)
        self._tag[rows] = -1
        self._stamp[rows] = 0
        self._dirty[rows] = False
        self._occ[rows] = [len(sets[s]) for s in live]
        idx: List[int] = []
        tags: List[int] = []
        dirt: List[bool] = []
        for s in live:
            i = s * assoc
            for t, d in sets[s].items():
                idx.append(i)
                tags.append(t)
                dirt.append(d)
                i += 1
        if idx:
            ia = np.array(idx, dtype=np.int64)
            self._tag.reshape(-1)[ia] = tags
            self._dirty.reshape(-1)[ia] = dirt
            self._stamp.reshape(-1)[ia] = ia % assoc + 1  # base = s * assoc
        self._clock = assoc + 1

    def line_of(self, byte_addr: int) -> int:
        """Line address containing ``byte_addr``."""
        return byte_addr // self.config.line_bytes

    def access_line(self, line_addr: int, write: bool) -> float:
        """Access one line; returns latency in ns (includes lower levels)."""
        return self._walk((line_addr,), write)

    def _walk(self, addrs, write: bool) -> float:
        """Settle a narrow batch in the dict regime, every level inline.

        Each line is settled in this level's dicts and, on a miss or a
        dirty victim, in the last level's (converted on first touch).
        A line costs one of the constants ``__init__`` assembles in
        the scalar model's float association,
        ``(h1 + (h2 + (miss + xfer)) [+ xfer]) [+ h2]``, and the total
        is summed left to right.  Hits, misses and writebacks of both
        levels and all DRAM and bus traffic are committed once, at the
        end.
        """
        (
            n_sets, assoc, h1, lower, n2, assoc2,
            fill_hit, fill, fill_wb, post, dram_bytes,
        ) = self._walk_k
        sets = self._scalar_sets
        if sets is None:
            self._ensure_lists()
            sets = self._scalar_sets
        live = self._scalar_live
        if lower is not None:
            sets2 = lower._scalar_sets  # None until the first fill
            live2 = lower._scalar_live
        hits = wbs = hits2 = wbs2 = 0
        total = 0.0
        for a in addrs:
            s = a % n_sets
            od = sets[s]
            if od is None:  # first touch of a set empty on entry
                od = sets[s] = OrderedDict()
                live.append(s)
            t = a // n_sets
            if t in od:
                hits += 1
                od.move_to_end(t)
                if write:
                    od[t] = True
                total += h1
                continue
            if lower is None:
                lat = fill
            else:
                # Demand fill from the last level.
                if sets2 is None:
                    lower._ensure_lists()
                    sets2 = lower._scalar_sets
                    live2 = lower._scalar_live
                s2 = a % n2
                od2 = sets2[s2]
                if od2 is None:
                    od2 = sets2[s2] = OrderedDict()
                    live2.append(s2)
                t2 = a // n2
                if t2 in od2:
                    hits2 += 1
                    od2.move_to_end(t2)
                    lat = fill_hit
                else:
                    if len(od2) >= assoc2 and od2.popitem(False)[1]:
                        wbs2 += 1
                        lat = fill_wb
                    else:
                        lat = fill
                    od2[t2] = False
            if len(od) >= assoc:
                vt, dirty = od.popitem(False)  # exact LRU
                if dirty:
                    wbs += 1
                    lat += post
                    if lower is not None:
                        # Post the victim: installed dirty below (the
                        # rule of ``_install``).
                        v = vt * n_sets + s
                        s2 = v % n2
                        od2 = sets2[s2]
                        if od2 is None:
                            od2 = sets2[s2] = OrderedDict()
                            live2.append(s2)
                        t2 = v // n2
                        if t2 in od2:
                            od2.move_to_end(t2)
                        elif len(od2) >= assoc2 and od2.popitem(False)[1]:
                            wbs2 += 1
                        od2[t2] = True
            od[t] = write
            total += lat
        misses = len(addrs) - hits
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.writebacks += wbs
        if lower is None:
            dram, reads, writes = self.dram, misses, wbs
        else:
            stats = lower.stats
            stats.hits += hits2
            stats.misses += misses - hits2
            stats.writebacks += wbs2
            dram, reads, writes = lower.dram, misses - hits2, wbs2
        if reads:
            dram.read_lines(reads, dram_bytes)
        if writes:
            dram.write_lines(writes, dram_bytes)
        return total

    def _install(self, lines: List[int]) -> None:
        """Take posted dirty victims from the level above, in order.

        Only a last level receives them.  Each allocates without a
        fetch and counts as no demand hit or miss; a dirty line it
        evicts counts in ``writebacks`` and goes to DRAM, charged to
        nobody.
        """
        sets = self._scalar_sets
        if sets is None:
            self._ensure_lists()
            sets = self._scalar_sets
        live = self._scalar_live
        n_sets = self._n_sets
        assoc = self._assoc
        wbs = 0
        for v in lines:
            s = v % n_sets
            od = sets[s]
            if od is None:
                od = sets[s] = OrderedDict()
                live.append(s)
            t = v // n_sets
            if t in od:
                od.move_to_end(t)
            elif len(od) >= assoc and od.popitem(False)[1]:
                wbs += 1
            od[t] = True
        if wbs:
            self.stats.writebacks += wbs
            self.dram.write_lines(wbs, self.config.line_bytes)

    # ------------------------------------------------------------------
    # Batched interface

    def access_lines(
        self,
        line_addrs: Union[range, List[int], np.ndarray, Iterable[int]],
        write: bool,
    ) -> float:
        """Access a sequence of lines; returns total latency in ns.

        Accepts the ``range`` / list / ndarray output of the op-expansion
        helpers (or any iterable of line addresses).  A small ``range``
        or list is walked as it is, with no numpy round trip.
        Decisions, stats and the returned total are bit-identical to
        looping ``access_line`` over the sequence.
        """
        addrs = line_addrs
        array = not isinstance(addrs, (range, list))
        if array:
            addrs = _as_line_array(addrs)
        n = len(addrs)
        if n == 0:
            return 0.0
        # Sanitizer guard: like tracing below, one module load + None
        # test per *batch* — the stale-sync detector resolves its
        # watches against the batch before residency changes.
        ck = _check.CHECKER
        if ck is not None:
            ck.on_cache_batch(self, addrs, write)
        # Tracing guard: one module load + None test per *batch*, never
        # per line — the disabled cost on this hot path is what the
        # benchmarks/test_sim_hotpath.py 5% overhead gate enforces.
        tr = _trace.TRACER
        if tr is not None:
            h0, m0, w0 = self.stats.hits, self.stats.misses, self.stats.writebacks
        if n <= self._SMALL_BATCH:
            # Narrow batch: the dict-based walk beats numpy's fixed
            # per-call overhead.  It takes Python ints.
            total = self._walk(addrs.tolist() if array else addrs, write)
        else:
            addrs = _as_line_array(addrs)
            kinds = np.full(n, _WRITE if write else _READ, dtype=np.int8)
            lat = self._process(addrs, kinds)
            # Left-to-right accumulation: bit-identical to the scalar
            # ``total += access_line(...)`` loop (cumsum is sequential).
            total = float(lat.cumsum()[-1])
        if tr is not None:
            self._trace_batch(tr, n, write, total, h0, m0, w0)
        return total

    def access_lines_batch(
        self,
        line_arrays: List[Union[range, List[int], np.ndarray]],
        write_flags: List[bool],
        counts: List[int],
    ) -> np.ndarray:
        """Resolve several ops' line sequences in one fused pass.

        ``counts`` gives each sequence's length, which the caller
        already knows.  Returns the **per-line** latency array in
        global order; the caller folds each op's slice left-to-right,
        which reproduces separate :meth:`access_lines` totals
        bit-identically (the scalar accumulation and ``cumsum`` share
        the same association order).  A live tracer gets one batch event for the whole call.
        The sanitizer's stale-sync hook is not consulted: the processor
        fuses ops only while the checker watches no line, when
        :meth:`~repro.check.runtime.Checker.on_cache_batch` has nothing
        to resolve.
        """
        addrs = _concat_lines(line_arrays, counts)
        kinds = np.repeat(
            np.array(
                [(_WRITE if w else _READ) for w in write_flags], dtype=np.int8
            ),
            counts,
        )
        tr = _trace.TRACER
        if tr is None:
            return self._process(addrs, kinds)
        h0, m0, w0 = self.stats.hits, self.stats.misses, self.stats.writebacks
        lat = self._process(addrs, kinds)
        self._trace_batch(
            tr, addrs.shape[0], any(write_flags), float(lat.sum()), h0, m0, w0
        )
        return lat

    def _trace_batch(
        self, tr, n: int, write: bool, total: float, h0: int, m0: int, w0: int
    ) -> None:
        """Emit one batch's events (only ever called while tracing)."""
        stats = self.stats
        track = f"cache.{self.name}"
        ts = tr.now
        tr.instant(
            track,
            "batch",
            ts,
            lines=n,
            write=write,
            latency_ns=total,
            hits=stats.hits - h0,
            misses=stats.misses - m0,
        )
        tr.counter(track, "hits", ts, stats.hits)
        tr.counter(track, "misses", ts, stats.misses)
        if stats.writebacks != w0:
            tr.counter(track, "writebacks", ts, stats.writebacks)

    # ------------------------------------------------------------------
    # Batch resolution core

    def _process(self, addrs: np.ndarray, kinds: np.ndarray) -> np.ndarray:
        """Resolve one batch; returns per-op latencies (installs are 0).

        ``addrs``/``kinds`` describe demand reads/writes plus posted
        victim installs spilled by the level above, in exact global
        order.
        """
        n = addrs.shape[0]
        if n == 0:
            return _EMPTY_F64
        if self._scalar_sets is not None:
            self._flush_lists()  # leave the small-batch regime
        shift = self._set_shift
        if shift >= 0:
            tag = addrs >> shift
            set_idx = addrs & (self._n_sets - 1)
        else:
            tag, set_idx = np.divmod(addrs, self._n_sets)
        demand_only = int(kinds.max()) != _INSTALL
        # A batch that carries installs and whose first op misses can
        # take neither fast path, so it skips the full-batch lookup.
        if demand_only or int(tag[0]) in self._tag[int(set_idx[0])]:
            way = _way_of(self._tag, set_idx, tag)
            hit = way >= 0
            if hit.all():
                self.batches_all_hit += 1
                return self._apply_all_hits(addrs, set_idx, kinds, way)
            if demand_only and not hit.any() and _all_distinct(addrs):
                self.batches_cold += 1
                return self._apply_cold_distinct(addrs, set_idx, tag, kinds)
        return self._apply_general(addrs, set_idx, tag, kinds)

    # -- fast path 1: every op hits in the pre-state -------------------

    def _apply_all_hits(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        kinds: np.ndarray,
        way: np.ndarray,
    ) -> np.ndarray:
        """Hits never evict, so pre-state membership is the decision."""
        n = addrs.shape[0]
        flat = set_idx * self._assoc + way
        stamps = self._clock + np.arange(n, dtype=np.int64)
        if _all_distinct(addrs):
            # No re-touches: every position is its own last occurrence.
            self._stamp.reshape(-1)[flat] = stamps
        else:
            # Final stamp of a re-touched way = its *last* touch position.
            last = _last_occurrence_positions(flat)
            self._stamp.reshape(-1)[flat[last]] = stamps[last]
        self._clock += n
        wmask = kinds != _READ  # writes and installs both dirty the line
        if wmask.any():
            self._dirty.reshape(-1)[flat[wmask]] = True
        demand = kinds != _INSTALL
        n_demand = int(demand.sum())
        self.stats.hits += n_demand
        if n_demand == n:
            return np.full(n, self.config.hit_ns)
        return np.where(demand, self.config.hit_ns, 0.0)

    # -- fast path 2: cold distinct demand stream ----------------------

    def _apply_cold_distinct(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        tag: np.ndarray,
        kinds: np.ndarray,
    ) -> np.ndarray:
        """All ops miss and no line is touched twice.

        Within a set nothing is ever re-touched, so recency order is
        simply "pre-state lines in LRU order, then installs in batch
        order" — the victim of the ``j``-th install is element
        ``occ0 + j - assoc`` of that virtual sequence.  Everything
        (victims, dirty flags, post-state) reduces to segmented index
        arithmetic.
        """
        n = addrs.shape[0]
        assoc = self._assoc
        n_sets = self._n_sets

        order, s_sorted = _group_by_set(set_idx, n_sets)
        tag_sorted = tag[order]
        w_sorted = (kinds == _WRITE)[order]

        start, counts, uniq = _group_sorted(s_sorted)
        m = uniq.shape[0]
        group_of = np.repeat(np.arange(m), counts)
        j = np.arange(n, dtype=np.int64) - np.repeat(start, counts)

        occ0 = self._occ[uniq]
        occ0_g = occ0[group_of]
        v = occ0_g + j - assoc  # index into the virtual eviction queue
        evict = v >= 0

        # Pre-state content of the affected sets, LRU order first.
        tag_rows = self._tag[uniq]
        stamp_rows = np.where(tag_rows == -1, _STAMP_MAX, self._stamp[uniq])
        lru = np.argsort(stamp_rows, axis=1)
        pre_tags = np.take_along_axis(tag_rows, lru, axis=1)
        pre_dirty = np.take_along_axis(self._dirty[uniq], lru, axis=1)

        victim_tag = np.zeros(n, dtype=np.int64)
        victim_dirty = np.zeros(n, dtype=bool)
        from_pre = evict & (v < occ0_g)
        if from_pre.any():
            g = group_of[from_pre]
            victim_tag[from_pre] = pre_tags[g, v[from_pre]]
            victim_dirty[from_pre] = pre_dirty[g, v[from_pre]]
        from_new = evict & (v >= occ0_g)
        if from_new.any():
            # Sorted position p is its set's start plus j; the install
            # it evicts came assoc ops earlier in the set, at p - assoc.
            src = np.flatnonzero(from_new) - assoc
            victim_tag[from_new] = tag_sorted[src]
            victim_dirty[from_new] = w_sorted[src]

        # Post-state: the last min(assoc, occ0+k) entries of the
        # virtual sequence survive, in order (LRU .. MRU).
        k = counts
        occ_final = np.minimum(assoc, occ0 + k)
        first_vi = occ0 + k - occ_final
        grid_valid = np.arange(assoc)[None, :] < occ_final[:, None]
        rows, cols = np.nonzero(grid_valid)
        vi = first_vi[rows] + cols
        is_pre = vi < occ0[rows]
        pre_slot = np.minimum(vi, assoc - 1)
        new_slot = start[rows] + np.clip(vi - occ0[rows], 0, None)
        new_tag = np.where(is_pre, pre_tags[rows, pre_slot], tag_sorted[new_slot])
        new_dirty = np.where(is_pre, pre_dirty[rows, pre_slot], w_sorted[new_slot])

        self._tag[uniq] = -1
        self._dirty[uniq] = False
        self._stamp[uniq] = 0
        flat = uniq[rows] * assoc + cols
        self._tag.reshape(-1)[flat] = new_tag
        self._dirty.reshape(-1)[flat] = new_dirty
        self._stamp.reshape(-1)[flat] = self._clock + cols
        self._clock += assoc
        self._occ[uniq] = occ_final

        # Every op is a demand fill; dirty victims follow their op as
        # posted installs.  They are listed in set order: the spill
        # places each by its op position, so no sort is needed.
        self.stats.misses += n
        self.stats.writebacks += int(np.count_nonzero(victim_dirty))
        victims = order[victim_dirty]
        victim_addrs = victim_tag[victim_dirty] * n_sets + s_sorted[victim_dirty]
        fills = np.arange(n, dtype=np.int64)
        return self._charge(np.empty(n), addrs, fills, victims, victim_addrs, victims)

    # -- general path --------------------------------------------------

    #: Use the rounds engine when the batch has at least this many ops...
    _ROUNDS_MIN_OPS = 192
    #: ...and the deepest set's op count times this fits in the batch
    #: (i.e. the average vector width per round is at least this).
    _ROUNDS_WIDTH = 24

    def _apply_general(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        tag: np.ndarray,
        kinds: np.ndarray,
    ) -> np.ndarray:
        """Mixed hit/miss (or repeated / install-bearing) batches.

        Sets are independent: wide batches resolve in rounds, the rest
        are walked per set.  Both return what each op found in the way
        it touched, from which :meth:`_finish` charges the batch.
        """
        n = addrs.shape[0]
        order, s_sorted = _group_by_set(set_idx, self._n_sets)
        start, counts, uniq = _group_sorted(s_sorted)
        del s_sorted  # not held through the resolver (peak RSS)
        if n >= self._ROUNDS_MIN_OPS and int(counts.max()) * self._ROUNDS_WIDTH <= n:
            self.batches_rounds += 1
            resolve = self._apply_rounds
        else:
            self.batches_walked += 1
            resolve = self._walk_sets
        pre_tag, pre_dirty = resolve(tag, kinds, order, start, counts, uniq)
        return self._finish(addrs, set_idx, tag, kinds, pre_tag, pre_dirty)

    def _walk_sets(
        self,
        tag: np.ndarray,
        kinds: np.ndarray,
        order: np.ndarray,
        start: np.ndarray,
        counts: np.ndarray,
        uniq: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-set scalar LRU walk over numpy-extracted state.

        Returns each op's pre-access way content in stream order (see
        :meth:`_finish`).
        """
        n = tag.shape[0]
        assoc = self._assoc
        m = uniq.shape[0]
        tag_rows = self._tag[uniq]
        stamp_rows = np.where(tag_rows == -1, _STAMP_MAX, self._stamp[uniq])
        lru = np.argsort(stamp_rows, axis=1)
        pre_tags = np.take_along_axis(tag_rows, lru, axis=1).tolist()
        pre_dirty = np.take_along_axis(self._dirty[uniq], lru, axis=1).tolist()
        occ0 = self._occ[uniq].tolist()

        order_l = order.tolist()
        tag_l = tag[order].tolist()
        dirtying_l = (kinds[order] != _READ).tolist()
        start_l = start.tolist()
        counts_l = counts.tolist()
        uniq_l = uniq.tolist()

        found_tag = [-1] * n
        found_dirty = [False] * n
        out_tags: List[List[int]] = []
        out_dirty: List[List[bool]] = []
        for g in range(m):
            occ = occ0[g]
            # MRU-first working lists for this set.
            ltags = pre_tags[g][:occ][::-1]
            ldirty = pre_dirty[g][:occ][::-1]
            base = start_l[g]
            for p in range(base, base + counts_l[g]):
                t = tag_l[p]
                op = order_l[p]
                # Membership test, not try/except: misses dominate here
                # and raising ValueError per miss costs ~1us each.
                if t in ltags:
                    pos = ltags.index(t)
                    d = ldirty[pos]
                    found_tag[op] = t
                    found_dirty[op] = d
                    if pos:
                        del ltags[pos]
                        del ldirty[pos]
                        ltags.insert(0, t)
                        ldirty.insert(0, d or dirtying_l[p])
                    elif dirtying_l[p]:
                        ldirty[0] = True
                    continue
                if len(ltags) >= assoc:
                    found_tag[op] = ltags.pop()
                    found_dirty[op] = ldirty.pop()
                ltags.insert(0, t)
                ldirty.insert(0, dirtying_l[p])
            out_tags.append(ltags)
            out_dirty.append(ldirty)

        # Write the per-set outcomes back into the matrices (batched).
        rows_flat: List[int] = []
        cols_flat: List[int] = []
        tags_flat: List[int] = []
        dirty_flat: List[bool] = []
        stamps_flat: List[int] = []
        clock = self._clock
        for g in range(m):
            ltags = out_tags[g]
            occ = len(ltags)
            row = uniq_l[g]
            ld = out_dirty[g]
            for slot in range(occ):  # slot 0 = LRU after reversal below
                rows_flat.append(row)
                cols_flat.append(slot)
                # ltags is MRU-first; store LRU-first so stamp = clock+slot.
                tags_flat.append(ltags[occ - 1 - slot])
                dirty_flat.append(ld[occ - 1 - slot])
                stamps_flat.append(clock + slot)
        self._clock += assoc
        self._tag[uniq] = -1
        self._dirty[uniq] = False
        self._stamp[uniq] = 0
        if rows_flat:
            flat = np.asarray(rows_flat, dtype=np.int64) * assoc + np.asarray(
                cols_flat, dtype=np.int64
            )
            self._tag.reshape(-1)[flat] = tags_flat
            self._dirty.reshape(-1)[flat] = dirty_flat
            self._stamp.reshape(-1)[flat] = stamps_flat
        self._occ[uniq] = [len(t) for t in out_tags]
        return (
            np.array(found_tag, dtype=np.int64),
            np.array(found_dirty, dtype=bool),
        )

    def _apply_rounds(
        self,
        tag: np.ndarray,
        kinds: np.ndarray,
        order: np.ndarray,
        start: np.ndarray,
        counts: np.ndarray,
        uniq: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a grouped batch as rounds of vector ops, way-major.

        Round ``j`` takes the ``j``-th op of every set that has one —
        exact, because sets share no state.  The active sets' tag,
        stamp and dirty rows are copied way-major, ``(assoc, m)`` with
        the deepest sets first, so a round's sets are a prefix of every
        way column.  A round finds each op's way (its line on a hit,
        else the LRU victim) with one compare per way column, reads and
        overwrites that way through one flat index per field, and
        records only the way's old content; :meth:`_finish` derives
        hits, fills and victims from it in stream order.

        Stamps are ``clock + j``: within a set the rounds are its ops in
        stream order, so relative recency (all that LRU needs) matches
        the scalar walk exactly; absolute stamp values across sets
        differ, which is unobservable.
        """
        n = tag.shape[0]
        m = uniq.shape[0]
        grp = np.argsort(-counts, kind="stable")
        counts_d = counts[grp]
        rows = uniq[grp]
        max_count = int(counts_d[0])
        # Round j covers ops bounds[j]..bounds[j+1]-1 of the round-major
        # order: the j-th op of each of the first widths[j] sets.
        widths = np.searchsorted(-counts_d, -np.arange(max_count), side="left")
        bounds = np.zeros(max_count + 1, dtype=np.int64)
        np.cumsum(widths, out=bounds[1:])
        rank = np.empty(m, dtype=np.int64)
        rank[grp] = np.arange(m)
        j_of = np.arange(n, dtype=np.int64) - np.repeat(start, counts)
        src = np.empty(n, dtype=np.int64)  # round-major -> stream position
        src[bounds[j_of] + np.repeat(rank, counts)] = order
        t_rm = tag[src]
        dirtying = kinds[src] != _READ

        T = np.ascontiguousarray(self._tag[rows].T)
        S = np.ascontiguousarray(self._stamp[rows].T)
        D = np.ascontiguousarray(self._dirty[rows].T)
        Tf = T.reshape(-1)
        Sf = S.reshape(-1)
        Df = D.reshape(-1)
        cell = np.arange(T.size, dtype=np.int64).reshape(T.shape)
        found_tag = np.empty(n, dtype=np.int64)
        found_dirty = np.empty(n, dtype=bool)
        clock = self._clock
        b_l = bounds.tolist()
        for j in range(max_count):
            a = b_l[j]
            b = b_l[j + 1]
            t = t_rm[a:b]
            idx = _touched_cell(T, S, cell, b - a, t)
            pt = found_tag[a:b]
            pd = found_dirty[a:b]
            np.take(Tf, idx, out=pt)
            np.take(Df, idx, out=pd)
            Tf[idx] = t
            Sf[idx] = clock + j
            Df[idx] = ((pt == t) & pd) | dirtying[a:b]

        self._clock += max_count
        self._tag[rows] = T.T
        self._stamp[rows] = S.T
        self._dirty[rows] = D.T
        self._occ[rows] = np.count_nonzero(T != -1, axis=0)

        pre_tag = np.empty(n, dtype=np.int64)
        pre_tag[src] = found_tag
        pre_dirty = np.empty(n, dtype=bool)
        pre_dirty[src] = found_dirty
        return pre_tag, pre_dirty

    # -- latency assembly + next-level costing -------------------------

    def _finish(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        tag: np.ndarray,
        kinds: np.ndarray,
        pre_tag: np.ndarray,
        pre_dirty: np.ndarray,
    ) -> np.ndarray:
        """Derive a resolved batch's hits, fills and victims, and charge it.

        ``pre_tag``/``pre_dirty`` give, per op in stream order, what the
        way it touched held before it: the op's own line on a hit, else
        the victim (tag -1 for a free way, which is never dirty).
        """
        hit = pre_tag == tag
        miss = ~hit
        demand = kinds != _INSTALL
        fills = np.flatnonzero(demand & miss)
        victims = np.flatnonzero(pre_dirty & miss)
        charged = victims[demand[victims]]  # demand ops pay the post
        n_fills = fills.shape[0]
        n_victims = victims.shape[0]
        stats = self.stats
        stats.hits += int(np.count_nonzero(demand)) - n_fills
        stats.misses += n_fills
        stats.writebacks += n_victims

        lat = (demand & hit) * self.config.hit_ns
        victim_addrs = pre_tag[victims] * self._n_sets + set_idx[victims]
        return self._charge(lat, addrs, fills, victims, victim_addrs, charged)

    def _charge(
        self,
        lat: np.ndarray,
        addrs: np.ndarray,
        fills: np.ndarray,
        victims: np.ndarray,
        victim_addrs: np.ndarray,
        charged: np.ndarray,
    ) -> np.ndarray:
        """Set each fill's latency and add each charged victim's post
        cost, sending the fills and posted victims below.

        ``fills`` (ascending), ``victims`` and ``charged`` (the victims
        of demand ops, a subset of ``fills``) are op positions; the
        victims may come in any order.  Float association matches the
        scalar model: ``(hit + fill) + writeback`` per op.
        """
        hit_ns = self.config.hit_ns
        if self.next_level is not None:
            lower = self._spill(
                addrs.shape[0], fills, addrs[fills], victims, victim_addrs
            )
            lat[fills] = hit_ns + lower
            if charged.shape[0]:
                lat[charged] += self.next_level.config.hit_ns
            return lat
        line_bytes = self.config.line_bytes
        n_fills = fills.shape[0]
        if n_fills:
            lat[fills] = hit_ns + self.dram.read_lines(n_fills, line_bytes)
        n_charged = charged.shape[0]
        if n_charged:
            lat[charged] += self.dram.write_lines(n_charged, line_bytes)
        n_posted = victims.shape[0] - n_charged
        if n_posted:
            self.dram.write_lines(n_posted, line_bytes)
        return lat

    # -- next-level spill ----------------------------------------------

    def _spill(
        self,
        n: int,
        fills: np.ndarray,
        fill_addrs: np.ndarray,
        victims: np.ndarray,
        victim_addrs: np.ndarray,
    ) -> np.ndarray:
        """Send demand fills + posted victims below, in global order.

        ``fills`` (ascending) and ``victims`` (any order) are positions
        among the batch's ``n`` ops.  The scalar model sends each op's
        fill, then the victim it evicts, op by op.  An op sends at most
        those two lines, so one prefix count of lines per op position
        places every fill and victim in that order, with no sort or
        search.  Returns the next level's per-op latency for the demand
        fills, aligned with ``fills``.
        """
        n_fills = fills.shape[0]
        n_victims = victims.shape[0]
        if n_victims == 0:
            return self.next_level._process(
                fill_addrs, np.zeros(n_fills, dtype=np.int8)
            )
        fill_at, victim_at = _traffic_slots(n, fills, victims)
        addrs = np.empty(n_fills + n_victims, dtype=np.int64)
        addrs[fill_at] = fill_addrs
        addrs[victim_at] = victim_addrs
        kinds = np.full(n_fills + n_victims, _INSTALL, dtype=np.int8)
        kinds[fill_at] = _READ
        return self.next_level._process(addrs, kinds)[fill_at]

    # ------------------------------------------------------------------
    # Introspection / maintenance

    def contains(self, line_addr: int) -> bool:
        """True if ``line_addr`` is currently resident (no state change)."""
        s = line_addr % self._n_sets
        t = line_addr // self._n_sets
        if self._scalar_sets is not None:
            return t in (self._scalar_sets[s] or ())
        return bool((self._tag[s] == t).any())

    def dirty_lines_in(self, lo_line: int, hi_line: int) -> List[int]:
        """Dirty resident lines in ``[lo_line, hi_line]`` (no state change).

        Used by the sanitizer's dispatch-time coherence check; sorted
        ascending so reports are deterministic.
        """
        n_sets = self._n_sets
        out: List[int] = []
        if self._scalar_sets is not None:
            for s in self._scalar_live:
                for t, d in self._scalar_sets[s].items():
                    if d:
                        line = t * n_sets + s
                        if lo_line <= line <= hi_line:
                            out.append(line)
            out.sort()
            return out
        mask = self._dirty & (self._tag != -1)
        if not mask.any():
            return out
        rows, ways = np.nonzero(mask)
        lines = self._tag[rows, ways] * n_sets + rows
        keep = (lines >= lo_line) & (lines <= hi_line)
        return sorted(int(x) for x in lines[keep])

    def flush_range(self, lo_line: int, hi_line: int) -> float:
        """Write back and drop all lines in ``[lo_line, hi_line]``.

        Dirty lines are posted to the level below (counted in this
        level's ``writebacks``) and their posted cost returned; clean
        lines are silently invalidated.  The flush cascades down the
        hierarchy, this level first, so L1 victims land in L2 before
        L2's own sweep.

        Runs in whichever regime each level is currently in (flushing
        is frequent on app streams, so forcing a regime conversion per
        flush would thrash).  Writebacks are posted in set-ascending,
        LRU-first order — the order the scalar reference model uses —
        and, like the walk's, committed once per level: this level's
        victims are installed below by one :meth:`_install`, and the
        last level's go to DRAM in one ``write_lines``.  The returned
        total is this level's posted costs summed left to right, plus
        the last level's summed the same way.
        """
        total = 0.0
        level = self
        while level is not None:
            lower = level.next_level
            victims = level._drop_range(lo_line, hi_line)
            if victims:
                level.stats.writebacks += len(victims)
                if lower is None:
                    level.dram.write_lines(len(victims), level.config.line_bytes)
                else:
                    lower._install(victims)
                cost = level._post_ns
                posted = 0.0
                for _ in victims:
                    posted += cost
                total += posted
            level = lower
        return total

    def _drop_range(self, lo_line: int, hi_line: int) -> List[int]:
        """Invalidate this level's lines in ``[lo_line, hi_line]``.

        Returns the dirty ones in set-ascending, LRU-first order.  The
        dict regime skips empty sets; the matrix regime finds doomed
        ways with one vectorized mask.  A range narrower than the set
        count holds at most one line per set, so it enumerates its
        lines in set order: those from the first multiple of the set
        count up, then those below it.
        """
        n_sets = self._n_sets
        sets = self._scalar_sets
        span = hi_line - lo_line + 1
        out: List[int] = []
        if sets is not None:
            if span < n_sets:
                wrap = min(lo_line + (-lo_line) % n_sets, hi_line + 1)
                for lines in (range(wrap, hi_line + 1), range(lo_line, wrap)):
                    for line in lines:
                        od = sets[line % n_sets]
                        if od:
                            t = line // n_sets
                            if t in od and od.pop(t):
                                out.append(line)
            else:
                for s in sorted(self._scalar_live):
                    od = sets[s]
                    doomed = [
                        t for t in od if lo_line <= t * n_sets + s <= hi_line
                    ]
                    for t in doomed:
                        if od.pop(t):
                            out.append(t * n_sets + s)
            return out
        tagm = self._tag
        if span < n_sets:
            # Narrow range: compare only the candidate lines'
            # (set, tag) slots, not the whole tag matrix.
            cand = np.arange(lo_line, hi_line + 1, dtype=np.int64)
            s_idx = cand % n_sets
            hitm = tagm[s_idx] == (cand // n_sets)[:, None]
            cr, ways = np.nonzero(hitm)
            rows = s_idx[cr]
            doomed_lines = cand[cr]
        else:
            lines = tagm * n_sets + np.arange(n_sets, dtype=np.int64)[:, None]
            doomed_mask = (tagm != -1) & (lines >= lo_line) & (lines <= hi_line)
            rows, ways = np.nonzero(doomed_mask)
            doomed_lines = lines[rows, ways]
        if rows.size:
            # (set, stamp) order == the dict regime's LRU-first walk.
            order = np.lexsort((self._stamp[rows, ways], rows))
            rows = rows[order]
            ways = ways[order]
            dirty = self._dirty[rows, ways]
            if dirty.any():
                out = doomed_lines[order][dirty].tolist()
            tagm[rows, ways] = -1
            self._dirty[rows, ways] = False
            self._stamp[rows, ways] = 0
            self._occ -= np.bincount(rows, minlength=n_sets)
        return out

    def lru_contents(self, set_idx: int) -> List[Tuple[int, bool]]:
        """``[(line_addr, dirty), ...]`` of one set, MRU first."""
        if self._scalar_sets is not None:
            od = self._scalar_sets[set_idx] or {}
            return [
                (t * self._n_sets + set_idx, bool(d))
                for t, d in reversed(od.items())
            ]
        row = self._tag[set_idx]
        valid = row != -1
        ways = np.argsort(np.where(valid, -self._stamp[set_idx], 1))
        out = []
        for w in ways:
            if row[w] != -1:
                out.append(
                    (int(row[w]) * self._n_sets + set_idx, bool(self._dirty[set_idx, w]))
                )
        return out

    def invalidate_all(self) -> None:
        """Drop all lines (without writeback) — used between runs."""
        self._scalar_sets = None
        self._tag.fill(-1)
        self._stamp.fill(0)
        self._dirty.fill(False)
        self._occ.fill(0)

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        if self._scalar_sets is not None:
            sets = self._scalar_sets
            return sum(len(sets[s]) for s in self._scalar_live)
        return int(self._occ.sum())

    def reset_stats(self) -> None:
        self.stats.reset()


# ----------------------------------------------------------------------
# Helpers


def _as_line_array(lines: Union[range, np.ndarray, Iterable[int]]) -> np.ndarray:
    if isinstance(lines, np.ndarray):
        if lines.dtype == np.int64:
            return lines
        return lines.astype(np.int64)
    if isinstance(lines, range):
        return np.arange(lines.start, lines.stop, lines.step, dtype=np.int64)
    return np.fromiter(lines, dtype=np.int64)


def _concat_lines(parts: list, counts: List[int]) -> np.ndarray:
    """Line sequences back to back in one int64 array.

    Step-1 ranges, the block footprints, expand in one vectorised pass:
    each range's start less its position, repeated over its lines, plus
    one ``arange`` over the whole batch.  Other parts are copied into
    their positions.
    """
    is_range = [type(p) is range and p.step == 1 for p in parts]
    starts = [p.start if r else 0 for p, r in zip(parts, is_range)]
    cnt = np.array(counts, dtype=np.int64)
    pos = np.cumsum(cnt) - cnt
    addrs = np.repeat(np.array(starts, dtype=np.int64) - pos, cnt)
    addrs += np.arange(addrs.shape[0], dtype=np.int64)
    if not all(is_range):
        rest = [_as_line_array(p) for p, r in zip(parts, is_range) if not r]
        addrs[np.repeat(np.logical_not(is_range), cnt)] = np.concatenate(rest)
    return addrs


def _traffic_slots(
    n: int, fills: np.ndarray, victims: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Slots of each fill and victim in the merged next-level traffic.

    Op by op, a fill goes first and its victim second: one prefix count
    of the lines each of the ``n`` ops sends places both.  A function of
    its own, so the ``n``-sized counts are freed before the next level
    resolves the traffic.
    """
    sent = np.zeros(n, dtype=np.int8)
    sent[fills] = 1
    sent[victims] += 1
    end = np.cumsum(sent, dtype=np.int64)  # one past each op's last line
    return end[fills] - sent[fills], end[victims] - 1


def _all_distinct(addrs: np.ndarray) -> bool:
    """True if no line address repeats in the batch."""
    n = addrs.shape[0]
    if n < 2:
        return True
    d = np.diff(addrs)
    if (d > 0).all() or (d < 0).all():
        return True
    lo = int(addrs.min())
    span = int(addrs.max()) - lo + 1
    if span <= 8 * n:
        # Dense address range: one boolean scatter counts distinct
        # values in O(n + span), far cheaper than a sort or hash.
        flags = np.zeros(span, dtype=bool)
        flags[addrs - lo] = True
        return int(flags.sum()) == n
    return bool((np.diff(np.sort(addrs)) != 0).all())


def _last_occurrence_positions(flat: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each distinct value."""
    rev = flat[::-1]
    _, first_in_rev = np.unique(rev, return_index=True)
    return flat.shape[0] - 1 - first_in_rev


def _way_of(tagm: np.ndarray, rows, tag: np.ndarray) -> np.ndarray:
    """Way of ``tagm[rows]`` (index array or slice) holding ``tag``, -1
    where absent.  One compare per way column (assoc is 1-8) instead of
    an ``(n, assoc)`` match matrix and its short-axis reductions; the
    lowest matching way wins, as ``argmax`` picks."""
    way = np.full(tag.shape[0], -1, dtype=np.int64)
    for w in range(tagm.shape[1] - 1, -1, -1):
        way[tagm[:, w][rows] == tag] = w
    return way


def _touched_cell(
    tagw: np.ndarray, stampw: np.ndarray, cell: np.ndarray, width: int, tag: np.ndarray
) -> np.ndarray:
    """Cell (``cell[way, set]``) each of the first ``width`` sets of the
    way-major ``tagw``/``stampw`` touches for ``tag``: the way holding it,
    else the victim, the first way with the smallest stamp (``argmin``'s
    tie rule: invalid ways carry stamp 0, so the lowest invalid way goes
    first).  One pass per way column for each of the two picks."""
    idx = cell[0, :width].copy()
    assoc = tagw.shape[0]
    best = stampw[0, :width]
    for w in range(1, assoc):
        col = stampw[w, :width]
        np.copyto(idx, cell[w, :width], where=col < best)  # a tie keeps the lower way
        if w + 1 < assoc:
            best = np.minimum(best, col)
    for w in range(assoc - 1, -1, -1):
        np.copyto(idx, cell[w, :width], where=tagw[w, :width] == tag)
    return idx


#: From this many ops up, :func:`_group_by_set` sorts packed keys;
#: narrower batches keep the radix argsort, which is cheaper there
#: (DESIGN.md §5b).
_PACKED_SORT_MIN_OPS = 4096


def _group_by_set(set_idx: np.ndarray, n_sets: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stable set order of a batch: ``(order, s_sorted)``, equal to
    ``np.argsort(set_idx, kind="stable")`` and ``set_idx[order]``.

    A wide batch sorts the keys ``set << b | position`` in place, ``b``
    bits being enough for any position.  The keys are unique, so any
    sort of them is stable: the low bits are the order and the high
    bits the sorted sets, with no gather.  They are ``uint32`` when
    they fit in 32 bits, else int64.  A narrow batch takes a stable
    argsort, on a ``uint16`` key (numpy's radix sort) up to 65,536
    sets, and gathers.
    """
    n = set_idx.shape[0]
    if n < _PACKED_SORT_MIN_OPS:
        key = set_idx.astype(np.uint16) if n_sets <= 1 << 16 else set_idx
        order = np.argsort(key, kind="stable")
        return order, set_idx[order]
    b = (n - 1).bit_length()
    if (n_sets - 1).bit_length() + b <= 32:
        keys = set_idx.astype(np.uint32)
        keys <<= b
        keys |= np.arange(n, dtype=np.uint32)
    else:
        keys = set_idx << b
        keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    order = np.empty(n, dtype=np.int64)
    np.bitwise_and(keys, (1 << b) - 1, out=order)
    keys >>= b
    return order, keys


def _group_sorted(s_sorted: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group boundaries of a sorted key array: (starts, counts, keys),
    the keys as int64 whatever the input's dtype."""
    n = s_sorted.shape[0]
    boundaries = np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1
    start = np.concatenate(([0], boundaries))
    counts = np.diff(np.concatenate((start, [n])))
    return start, counts, s_sorted[start].astype(np.int64, copy=False)


def build_hierarchy(
    l1d_cfg: CacheConfig,
    l2_cfg: CacheConfig,
    dram: DRAM,
    l1i_cfg: Optional[CacheConfig] = None,
) -> tuple:
    """Wire up an L1D (+ optional L1I) sharing an L2 over DRAM.

    Returns ``(l1d, l1i, l2)``; ``l1i`` is None when not requested.
    """
    l2 = Cache("L2", l2_cfg, dram=dram)
    l1d = Cache("L1D", l1d_cfg, next_level=l2)
    l1i = Cache("L1I", l1i_cfg, next_level=l2) if l1i_cfg is not None else None
    return l1d, l1i, l2
