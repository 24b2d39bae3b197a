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
line-address array (what :mod:`repro.sim.ops` produces for block,
strided and gather accesses) and resolves hits, misses, evictions and
writebacks in vectorized passes:

* **all-hit batches** (warm re-touch runs) update recency stamps and
  dirty bits with pure array ops — no per-line Python;
* **cold distinct streams** (the contiguous ``range`` output of
  ``lines_for_block``, cold strided scans) resolve every victim with
  segmented index arithmetic: with no re-touches, a set's eviction
  order is exactly "pre-state lines in LRU order, then this batch's
  installs in order";
* everything else (mixed hit/miss runs, the interleaved
  demand/writeback streams a lower level receives) resolves
  round-major when wide and otherwise falls back to an exact per-set
  scalar walk over numpy-extracted state.

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
  by keying every spilled access with ``2 * position`` (demand fill)
  or ``2 * position + 1`` (posted victim) and sorting;
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
scalar access and flushed back on the next wide batch, so uniform
workloads — an app trace of 16-line block ops, or a microbenchmark of
megabyte scans — pay for at most one conversion each way.  Both
regimes implement the identical state machine; the differential suite
drives them against the scalar reference with mixed batch sizes.
"""

from __future__ import annotations

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
        self.name = name
        self.config = config
        self.next_level = next_level
        self.dram = dram
        self.stats = CacheStats()
        n_sets = config.n_sets
        assoc = config.assoc
        self._n_sets = n_sets
        self._assoc = assoc
        self._tag = np.full((n_sets, assoc), -1, dtype=np.int64)
        self._stamp = np.zeros((n_sets, assoc), dtype=np.int64)
        self._dirty = np.zeros((n_sets, assoc), dtype=bool)
        self._occ = np.zeros(n_sets, dtype=np.int64)
        self._clock = 1  # stamp 0 is reserved for invalid ways
        # Scalar-regime state: per-set OrderedDict(tag -> dirty), LRU
        # first.  None means the matrices are authoritative.
        self._scalar_sets: Optional[List[OrderedDict]] = None

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

        Each set becomes ``OrderedDict(tag -> dirty)`` iterating LRU
        first; dict order replaces stamps entirely in this regime.  The
        matrices go stale until :meth:`_flush_lists` rebuilds them.
        """
        if self._scalar_sets is not None:
            return
        sets = [OrderedDict() for _ in range(self._n_sets)]
        if self._occ.any():
            occupied = np.nonzero(self._occ)[0]
            tag_rows = self._tag[occupied]
            stamp_rows = np.where(tag_rows == -1, _STAMP_MAX, self._stamp[occupied])
            order = np.argsort(stamp_rows, axis=1)
            tags = np.take_along_axis(tag_rows, order, axis=1).tolist()
            dirty = np.take_along_axis(self._dirty[occupied], order, axis=1).tolist()
            occs = self._occ[occupied].tolist()
            for s, trow, drow, k in zip(occupied.tolist(), tags, dirty, occs):
                od = sets[s]
                for t, d in zip(trow[:k], drow[:k]):
                    od[t] = d
        self._scalar_sets = sets

    def _flush_lists(self) -> None:
        """Write the scalar dicts back into the matrices.

        Stamps are renumbered ``1..k`` per set (with the clock bumped
        past them): only the *within-set relative* order is observable
        through LRU decisions, so renumbering preserves behaviour.
        """
        sets = self._scalar_sets
        if sets is None:
            return
        self._scalar_sets = None
        assoc = self._assoc
        self._tag.fill(-1)
        self._stamp.fill(0)
        self._dirty.fill(False)
        idx: List[int] = []
        tags: List[int] = []
        dirt: List[bool] = []
        occ = self._occ
        for s, od in enumerate(sets):
            k = len(od)
            occ[s] = k
            if k:
                base = s * assoc
                i = base
                for t, d in od.items():
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
        sets = self._scalar_sets
        if sets is None:
            self._ensure_lists()
            sets = self._scalar_sets
        n_sets = self._n_sets
        s = line_addr % n_sets
        od = sets[s]
        t = line_addr // n_sets
        if t in od:
            self.stats.hits += 1
            od.move_to_end(t)
            if write:
                od[t] = True
            return self.config.hit_ns
        self.stats.misses += 1
        latency = self.config.hit_ns
        if self.next_level is not None:
            latency += self.next_level.access_line(line_addr, write=False)
        else:
            latency += self.dram.read_line(self.config.line_bytes)
        if len(od) >= self._assoc:
            victim_tag, victim_dirty = od.popitem(last=False)  # exact LRU
            if victim_dirty:
                self.stats.writebacks += 1
                latency += self._writeback(victim_tag * n_sets + s)
        od[t] = write
        return latency

    def _writeback(self, victim_line: int) -> float:
        """Post a dirty victim to the level below; returns the posted cost.

        The victim is installed (dirty) in the next level; only the next
        level's hit time (or the DRAM line-write bus time) lands on the
        critical path.
        """
        if self.next_level is not None:
            self.next_level.install_line(victim_line)
            return self.next_level.config.hit_ns
        return self.dram.write_line(self.config.line_bytes)

    def install_line(self, line_addr: int) -> None:
        """Accept a posted dirty victim from the level above.

        Allocates without fetching; never counts as a demand hit/miss.
        Cascaded dirty evictions count in this level's ``writebacks``
        but charge no latency (off the critical path).
        """
        sets = self._scalar_sets
        if sets is None:
            self._ensure_lists()
            sets = self._scalar_sets
        n_sets = self._n_sets
        s = line_addr % n_sets
        od = sets[s]
        t = line_addr // n_sets
        if t in od:
            od.move_to_end(t)
            od[t] = True
            return
        if len(od) >= self._assoc:
            victim_tag, victim_dirty = od.popitem(last=False)
            if victim_dirty:
                self.stats.writebacks += 1
                self._writeback(victim_tag * n_sets + s)
        od[t] = True

    # ------------------------------------------------------------------
    # Batched interface

    def access_lines(
        self, line_addrs: Union[range, np.ndarray, Iterable[int]], write: bool
    ) -> float:
        """Access a sequence of lines; returns total latency in ns.

        Accepts the ``range`` / ndarray output of the op-expansion
        helpers (or any iterable of line addresses).  Decisions, stats
        and the returned total are bit-identical to looping
        ``access_line`` over the sequence.
        """
        addrs = _as_line_array(line_addrs)
        n = addrs.shape[0]
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
            # Narrow batch: the dict-based scalar walk beats numpy's
            # fixed per-call overhead.  Left-to-right accumulation
            # matches the batched total bit-for-bit.
            total = 0.0
            access = self.access_line
            for a in addrs.tolist():
                total += access(a, write)
        else:
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
        line_arrays: List[Union[range, np.ndarray, Iterable[int]]],
        write_flags: List[bool],
    ) -> np.ndarray:
        """Resolve several ops' line sequences in one fused pass.

        Returns the **per-line** latency array in global order; the
        caller folds each op's slice left-to-right, which reproduces
        separate :meth:`access_lines` totals bit-identically (the
        scalar accumulation and ``cumsum`` share the same association
        order).  A live tracer gets one batch event for the whole call.
        The sanitizer's stale-sync hook is not consulted: the processor
        fuses ops only while the checker watches no line, when
        :meth:`~repro.check.runtime.Checker.on_cache_batch` has nothing
        to resolve.
        """
        parts = [_as_line_array(a) for a in line_arrays]
        addrs = np.concatenate(parts)
        kinds = np.repeat(
            np.array(
                [(_WRITE if w else _READ) for w in write_flags], dtype=np.int8
            ),
            [p.shape[0] for p in parts],
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
        n_sets = self._n_sets
        tag, set_idx = np.divmod(addrs, n_sets)

        match = self._tag[set_idx] == tag[:, None]  # (n, assoc)
        hit = match.any(axis=1)
        demand = kinds != _INSTALL

        if hit.all():
            return self._apply_all_hits(addrs, set_idx, kinds, match, demand)

        if demand.all() and not hit.any() and _all_distinct(addrs):
            return self._apply_cold_distinct(addrs, set_idx, tag, kinds)

        return self._apply_general(addrs, set_idx, tag, kinds)

    # -- fast path 1: every op hits in the pre-state -------------------

    def _apply_all_hits(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        kinds: np.ndarray,
        match: np.ndarray,
        demand: np.ndarray,
    ) -> np.ndarray:
        """Hits never evict, so pre-state membership is the decision."""
        n = addrs.shape[0]
        way = np.argmax(match, axis=1)
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

        order = np.argsort(set_idx, kind="stable")
        s_sorted = set_idx[order]
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
            src = (np.repeat(start, counts) + j - assoc)[from_new]
            victim_tag[from_new] = tag_sorted[src]
            victim_dirty[from_new] = w_sorted[src]

        wb = victim_dirty  # dirty victim evicted at this (sorted) op
        n_wb = int(wb.sum())
        self.stats.misses += n
        self.stats.writebacks += n_wb

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

        # Spill to the next level: every op is a demand fill, dirty
        # victims follow their op as posted installs.
        wb_orig = order[wb]
        victim_addr = victim_tag[wb] * n_sets + s_sorted[wb]
        hit_ns = self.config.hit_ns
        if self.next_level is not None:
            lower = self._spill(
                addrs, 2 * np.arange(n, dtype=np.int64), victim_addr, 2 * wb_orig + 1
            )
            lat = hit_ns + lower
            if n_wb:
                wb_add = np.zeros(n)
                wb_add[wb_orig] = self.next_level.config.hit_ns
                lat = lat + wb_add
            return lat
        line_bytes = self.config.line_bytes
        fill = self.dram.read_lines(n, line_bytes)
        lat = np.full(n, hit_ns + fill)
        if n_wb:
            wb_cost = self.dram.write_lines(n_wb, line_bytes)
            wb_add = np.zeros(n)
            wb_add[wb_orig] = wb_cost
            lat = lat + wb_add
        return lat

    # -- general path: exact per-set scalar walk -----------------------

    def _apply_general(
        self,
        addrs: np.ndarray,
        set_idx: np.ndarray,
        tag: np.ndarray,
        kinds: np.ndarray,
    ) -> np.ndarray:
        """Mixed hit/miss (or repeated / install-bearing) batches.

        Sets are independent: wide batches resolve round-major, the
        rest are walked per set with exact scalar LRU over
        numpy-extracted state.  Next-level traffic is re-merged into
        global order.
        """
        n = addrs.shape[0]
        assoc = self._assoc
        n_sets = self._n_sets

        order = np.argsort(set_idx, kind="stable")
        s_sorted = set_idx[order]
        start, counts, uniq = _group_sorted(s_sorted)
        m = uniq.shape[0]

        lat = np.zeros(n)

        # Wide batches over many sets: resolve round-major, one vector
        # op per "j-th access of every set" (exact — sets independent).
        max_count = int(counts.max())
        if n >= self._ROUNDS_MIN_OPS and max_count * self._ROUNDS_WIDTH <= order.shape[0]:
            return self._apply_rounds(lat, order, tag, kinds, start, counts, uniq)

        # Narrow residue: exact per-set scalar walk, MRU-first lists.
        tag_rows = self._tag[uniq]
        stamp_rows = np.where(tag_rows == -1, _STAMP_MAX, self._stamp[uniq])
        lru = np.argsort(stamp_rows, axis=1)
        pre_tags = np.take_along_axis(tag_rows, lru, axis=1).tolist()
        pre_dirty = np.take_along_axis(self._dirty[uniq], lru, axis=1).tolist()
        occ0 = self._occ[uniq].tolist()

        order_l = order.tolist()
        tag_l = tag[order].tolist()
        kind_l = kinds[order].tolist()
        start_l = start.tolist()
        counts_l = counts.tolist()
        uniq_l = uniq.tolist()

        hits = misses = writebacks = 0
        posted_dram_writes = 0
        read_keys: List[int] = []
        read_addrs: List[int] = []
        read_ops: List[int] = []
        inst_keys: List[int] = []
        inst_addrs: List[int] = []
        wb_ops: List[int] = []  # demand ops charged a posted-victim cost
        hit_ops: List[int] = []  # demand ops that hit
        has_next = self.next_level is not None

        out_tags: List[List[int]] = []
        out_dirty: List[List[bool]] = []

        for g in range(m):
            s = uniq_l[g]
            occ = occ0[g]
            # MRU-first working lists for this set.
            ltags = pre_tags[g][:occ][::-1]
            ldirty = pre_dirty[g][:occ][::-1]
            base = start_l[g]
            for p in range(base, base + counts_l[g]):
                t = tag_l[p]
                kd = kind_l[p]
                op = order_l[p]
                # Membership test, not try/except: misses dominate here
                # and raising ValueError per miss costs ~1us each.
                pos = ltags.index(t) if t in ltags else -1
                if pos >= 0:
                    if pos:
                        ltags.insert(0, ltags.pop(pos))
                        ldirty.insert(0, ldirty.pop(pos))
                    if kd == _INSTALL:
                        ldirty[0] = True
                    else:
                        hits += 1
                        hit_ops.append(op)
                        if kd == _WRITE:
                            ldirty[0] = True
                    continue
                # Miss at this level.
                if kd != _INSTALL:
                    misses += 1
                    read_keys.append(2 * op)
                    read_addrs.append(t * n_sets + s)
                    read_ops.append(op)
                if len(ltags) >= assoc:
                    vd = ldirty.pop()
                    vt = ltags.pop()
                    if vd:
                        writebacks += 1
                        if has_next:
                            inst_keys.append(2 * op + 1)
                            inst_addrs.append(vt * n_sets + s)
                        else:
                            posted_dram_writes += 1
                        if kd != _INSTALL:
                            wb_ops.append(op)
                            if not has_next:
                                posted_dram_writes -= 1
                ltags.insert(0, t)
                ldirty.insert(0, kd != _READ)
            out_tags.append(ltags)
            out_dirty.append(ldirty)

        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.writebacks += writebacks

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

        return self._charge_and_spill(
            lat,
            hit_ops,
            np.asarray(read_ops, dtype=np.int64),
            np.asarray(read_keys, dtype=np.int64),
            np.asarray(read_addrs, dtype=np.int64),
            np.asarray(inst_keys, dtype=np.int64),
            np.asarray(inst_addrs, dtype=np.int64),
            wb_ops,
            posted_dram_writes,
        )

    # -- general path, wide batches: round-major vectorization ---------

    #: Use the rounds engine when the batch has at least this many ops...
    _ROUNDS_MIN_OPS = 192
    #: ...and the deepest set's op count times this fits in the batch
    #: (i.e. the average vector width per round is at least this).
    _ROUNDS_WIDTH = 24

    def _apply_rounds(
        self,
        lat: np.ndarray,
        order: np.ndarray,
        tag: np.ndarray,
        kinds: np.ndarray,
        start: np.ndarray,
        counts: np.ndarray,
        uniq: np.ndarray,
    ) -> np.ndarray:
        """Resolve a grouped batch as per-set rounds of vector ops.

        Round ``j`` processes the ``j``-th op of every set still active
        — exact, because sets share no state.  Per-op Python work
        disappears; cost scales with ``max(ops per set)`` rounds, each
        a handful of array ops over the active sets.

        Stamps are assigned ``clock + j``: within a set the rounds are
        its ops in stream order, so relative recency (all that LRU
        needs) matches the scalar walk exactly; absolute stamp values
        across sets differ, which is unobservable.
        """
        assoc = self._assoc
        n_sets = self._n_sets

        # Sort groups by depth so each round's active sets are a prefix.
        grp = np.argsort(-counts, kind="stable")
        counts_d = counts[grp]
        start_d = start[grp]
        uniq_d = uniq[grp]
        max_count = int(counts_d[0])

        # Working copies of the affected rows; written back at the end.
        T = self._tag[uniq_d].copy()
        S = self._stamp[uniq_d].copy()
        D = self._dirty[uniq_d].copy()

        tag_sorted = tag[order]
        kind_sorted = kinds[order]
        set_of_group = uniq_d

        hits = misses = writebacks = 0
        posted_dram_writes = 0
        hit_parts: List[np.ndarray] = []
        read_op_parts: List[np.ndarray] = []
        read_addr_parts: List[np.ndarray] = []
        inst_key_parts: List[np.ndarray] = []
        inst_addr_parts: List[np.ndarray] = []
        wb_op_parts: List[np.ndarray] = []

        clock = self._clock
        has_next = self.next_level is not None
        neg_counts = -counts_d

        for j in range(max_count):
            width = np.searchsorted(neg_counts, -j, side="left")
            p = start_d[:width] + j
            t = tag_sorted[p]
            kd = kind_sorted[p]
            o = order[p]
            demand = kd != _INSTALL

            Tw = T[:width]
            match = Tw == t[:, None]
            hit = match.any(axis=1)

            h_rows = np.flatnonzero(hit)
            if h_rows.shape[0]:
                way = match[h_rows].argmax(axis=1)
                S[h_rows, way] = clock + j
                dirtying = kd[h_rows] != _READ
                if dirtying.any():
                    D[h_rows[dirtying], way[dirtying]] = True
                dh = demand[h_rows]
                hits += int(dh.sum())
                hit_parts.append(o[h_rows[dh]])

            mi_rows = np.flatnonzero(~hit)
            if mi_rows.shape[0]:
                # Invalid ways carry stamp 0 < any live stamp, so one
                # argmin picks a free way if present, else the true LRU.
                vway = S[mi_rows].argmin(axis=1)
                vtag = T[mi_rows, vway]
                vdirty = D[mi_rows, vway] & (vtag != -1)
                dm = demand[mi_rows]
                misses += int(dm.sum())
                read_op_parts.append(o[mi_rows[dm]])
                read_addr_parts.append(
                    t[mi_rows[dm]] * n_sets + set_of_group[mi_rows[dm]]
                )
                n_wb = int(vdirty.sum())
                if n_wb:
                    writebacks += n_wb
                    wb_rows = mi_rows[vdirty]
                    if has_next:
                        inst_key_parts.append(2 * o[wb_rows] + 1)
                        inst_addr_parts.append(
                            vtag[vdirty] * n_sets + set_of_group[wb_rows]
                        )
                    chargeable = vdirty & dm
                    wb_op_parts.append(o[mi_rows[chargeable]])
                    if not has_next:
                        posted_dram_writes += n_wb - int(chargeable.sum())
                T[mi_rows, vway] = t[mi_rows]
                D[mi_rows, vway] = kd[mi_rows] != _READ
                S[mi_rows, vway] = clock + j

        self._clock += max_count
        self._tag[uniq_d] = T
        self._stamp[uniq_d] = S
        self._dirty[uniq_d] = D
        self._occ[uniq_d] = (T != -1).sum(axis=1)

        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.writebacks += writebacks

        hit_ops = _concat_i64(hit_parts)
        read_ops = _concat_i64(read_op_parts)
        read_addrs = _concat_i64(read_addr_parts)
        inst_keys = _concat_i64(inst_key_parts)
        inst_addrs = _concat_i64(inst_addr_parts)
        wb_ops = _concat_i64(wb_op_parts)
        return self._charge_and_spill(
            lat,
            hit_ops,
            read_ops,
            2 * read_ops,
            read_addrs,
            inst_keys,
            inst_addrs,
            wb_ops,
            posted_dram_writes,
        )

    # -- shared latency assembly + next-level costing ------------------

    def _charge_and_spill(
        self,
        lat: np.ndarray,
        hit_ops,
        read_ops: np.ndarray,
        read_keys: np.ndarray,
        read_addrs: np.ndarray,
        inst_keys: np.ndarray,
        inst_addrs: np.ndarray,
        wb_ops,
        posted_dram_writes: int,
    ) -> np.ndarray:
        """Fill per-op latencies and route spilled traffic downward.

        Float association matches the scalar model exactly:
        ``(hit + fill) + writeback`` per op, so the cumsum total is
        bit-identical to the sequential accumulation.
        """
        hit_ns = self.config.hit_ns
        if len(hit_ops):
            lat[hit_ops] = hit_ns
        n_reads = read_ops.shape[0]
        if self.next_level is not None:
            lower = self._spill(read_addrs, read_keys, inst_addrs, inst_keys)
            if n_reads:
                lat[read_ops] = hit_ns + lower
            if len(wb_ops):
                lat[wb_ops] += self.next_level.config.hit_ns
        else:
            line_bytes = self.config.line_bytes
            if n_reads:
                fill = self.dram.read_lines(n_reads, line_bytes)
                lat[read_ops] = hit_ns + fill
            n_demand_wb = len(wb_ops)
            if n_demand_wb:
                wb_cost = self.dram.write_lines(n_demand_wb, line_bytes)
                lat[wb_ops] += wb_cost
            if posted_dram_writes:
                self.dram.write_lines(posted_dram_writes, line_bytes)
        return lat

    # -- next-level spill ----------------------------------------------

    def _spill(
        self,
        read_addrs: np.ndarray,
        read_keys: np.ndarray,
        inst_addrs: np.ndarray,
        inst_keys: np.ndarray,
    ) -> np.ndarray:
        """Send demand fills + posted victims below, in global order.

        Keys are ``2 * op`` for demand fills and ``2 * op + 1`` for the
        posted victim that op evicted, so one stable sort reconstructs
        the exact traffic order the scalar model would generate.
        Returns the next level's per-op latency for the demand fills,
        aligned with ``read_addrs``.
        """
        n_reads = read_addrs.shape[0]
        if inst_addrs.shape[0] == 0:
            if n_reads < 2 or (np.diff(read_keys) > 0).all():
                return self.next_level._process(
                    read_addrs, np.zeros(n_reads, dtype=np.int8)
                )
            ord1 = np.argsort(read_keys, kind="stable")
            lower = self.next_level._process(
                read_addrs[ord1], np.zeros(n_reads, dtype=np.int8)
            )
            inv = np.empty(n_reads, dtype=np.int64)
            inv[ord1] = np.arange(n_reads)
            return lower[inv]
        keys = np.concatenate([read_keys, inst_keys])
        nl_addrs = np.concatenate([read_addrs, inst_addrs])
        nl_kinds = np.concatenate(
            [
                np.zeros(n_reads, dtype=np.int8),
                np.full(inst_addrs.shape[0], _INSTALL, dtype=np.int8),
            ]
        )
        ord2 = np.argsort(keys, kind="stable")
        lower = self.next_level._process(nl_addrs[ord2], nl_kinds[ord2])
        inv = np.empty(ord2.shape[0], dtype=np.int64)
        inv[ord2] = np.arange(ord2.shape[0])
        return lower[inv[:n_reads]]

    # ------------------------------------------------------------------
    # Introspection / maintenance

    def contains(self, line_addr: int) -> bool:
        """True if ``line_addr`` is currently resident (no state change)."""
        s = line_addr % self._n_sets
        t = line_addr // self._n_sets
        if self._scalar_sets is not None:
            return t in self._scalar_sets[s]
        return bool((self._tag[s] == t).any())

    def dirty_lines_in(self, lo_line: int, hi_line: int) -> List[int]:
        """Dirty resident lines in ``[lo_line, hi_line]`` (no state change).

        Used by the sanitizer's dispatch-time coherence check; sorted
        ascending so reports are deterministic.
        """
        n_sets = self._n_sets
        out: List[int] = []
        if self._scalar_sets is not None:
            for s, od in enumerate(self._scalar_sets):
                for t, d in od.items():
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

        Runs in whichever regime the level is currently in (flushing
        is frequent on app streams, so forcing a regime conversion per
        flush would thrash): the dict walk skips empty sets, the
        matrix path discovers doomed ways with one vectorized mask.
        Writebacks are posted in set-ascending, LRU-first order in
        both — the order the scalar reference model uses.
        """
        n_sets = self._n_sets
        total = 0.0
        stats = self.stats
        writeback = self._writeback
        sets = self._scalar_sets
        span = hi_line - lo_line + 1
        if sets is not None:
            if span < n_sets:
                # Narrow range (the common shape: one page's worth of
                # lines): enumerate candidate lines instead of walking
                # every set.  Each line maps to exactly one (set, tag)
                # slot, so membership is one dict probe.
                hits: dict = {}
                for line in range(lo_line, hi_line + 1):
                    s = line % n_sets
                    od = sets[s]
                    if od and (line // n_sets) in od:
                        hits.setdefault(s, []).append(line // n_sets)
                for s in sorted(hits):
                    od = sets[s]
                    want = hits[s]
                    if len(want) > 1:
                        # Restore the LRU-first within-set order the
                        # full walk produces.
                        wset = set(want)
                        want = [t for t in od if t in wset]
                    for t in want:
                        if od.pop(t):
                            stats.writebacks += 1
                            total += writeback(t * n_sets + s)
            else:
                for s, od in enumerate(sets):
                    if not od:
                        continue
                    doomed = [
                        t for t in od if lo_line <= t * n_sets + s <= hi_line
                    ]
                    for t in doomed:
                        if od.pop(t):
                            stats.writebacks += 1
                            total += writeback(t * n_sets + s)
        else:
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
                doomed_mask = (
                    (tagm != -1) & (lines >= lo_line) & (lines <= hi_line)
                )
                rows, ways = np.nonzero(doomed_mask)
                doomed_lines = lines[rows, ways]
            if rows.size:
                # (set, stamp) order == the dict regime's LRU-first walk.
                order = np.lexsort((self._stamp[rows, ways], rows))
                rows = rows[order]
                ways = ways[order]
                dirty = self._dirty[rows, ways]
                if dirty.any():
                    wb_lines = doomed_lines[order][dirty]
                    for ln in wb_lines.tolist():
                        stats.writebacks += 1
                        total += writeback(ln)
                tagm[rows, ways] = -1
                self._dirty[rows, ways] = False
                self._stamp[rows, ways] = 0
                self._occ -= np.bincount(rows, minlength=n_sets)
        if self.next_level is not None:
            total += self.next_level.flush_range(lo_line, hi_line)
        return total

    def lru_contents(self, set_idx: int) -> List[Tuple[int, bool]]:
        """``[(line_addr, dirty), ...]`` of one set, MRU first."""
        if self._scalar_sets is not None:
            od = self._scalar_sets[set_idx]
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
            return sum(len(od) for od in self._scalar_sets)
        return int(self._occ.sum())

    def reset_stats(self) -> None:
        self.stats.reset()


# ----------------------------------------------------------------------
# Helpers


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _concat_i64(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return _EMPTY_I64
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _as_line_array(lines: Union[range, np.ndarray, Iterable[int]]) -> np.ndarray:
    if isinstance(lines, np.ndarray):
        if lines.dtype == np.int64:
            return lines
        return lines.astype(np.int64)
    if isinstance(lines, range):
        return np.arange(lines.start, lines.stop, lines.step, dtype=np.int64)
    return np.fromiter(lines, dtype=np.int64)


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


def _group_sorted(s_sorted: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group boundaries of a sorted key array: (starts, counts, keys)."""
    n = s_sorted.shape[0]
    boundaries = np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1
    start = np.concatenate(([0], boundaries))
    counts = np.diff(np.concatenate((start, [n])))
    return start, counts, s_sorted[start]


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
