"""Regime flips on the real machine geometry, and the way-column helpers.

The differential suites drive small geometries, where every set of a
level is in use.  The machine's own caches (L1D 1024 x 2, L2 8192 x 4)
are mostly empty during an app's short memory stretches, so entering
the dict regime must cost the sets in use, and every query must treat
a set with no dict as empty.
"""

import numpy as np
import pytest

from repro.sim import cache as cache_mod
from repro.sim.bus import Bus
from repro.sim.cache import build_hierarchy
from repro.sim.cache_reference import build_scalar_hierarchy
from repro.sim.config import MachineConfig
from repro.sim.dram import DRAM

CFG = MachineConfig()
L2_SETS = CFG.l2.n_sets


def machine_pair():
    """(production, reference) hierarchies on the machine geometry."""
    dram_v = DRAM(CFG.dram, Bus(CFG.bus))
    dram_s = DRAM(CFG.dram, Bus(CFG.bus))
    vec = build_hierarchy(CFG.l1d, CFG.l2, dram_v)
    ref = build_scalar_hierarchy(CFG.l1d, CFG.l2, dram_s)
    return (vec[0], vec[2]), (ref[0], ref[2]), dram_v, dram_s


def few_set_scan(sets, per_set=50):
    """A wide batch (array regime) confined to the given sets of both
    levels: every line is ``set + k * L2_SETS``."""
    return [s + k * L2_SETS for s in sets for k in range(per_set)]


def materialised(c):
    return [s for s, od in enumerate(c._scalar_sets) if od is not None]


def ref_flush(c, lo, hi):
    """The scalar model's flush: set-ascending, LRU first, then below."""
    n = c._n_sets
    total = 0.0
    for s in range(n):
        tags, dirty = c._tags[s], c._dirty[s]
        for i in range(len(tags) - 1, -1, -1):  # lists are MRU first
            line = tags[i] * n + s
            if lo <= line <= hi:
                d = dirty.pop(i)
                tags.pop(i)
                if d:
                    c.stats.writebacks += 1
                    total += c._writeback(line)
    if c.next_level is not None:
        total += ref_flush(c.next_level, lo, hi)
    return total


def assert_same(vec, ref, dram_v, dram_s, ctx):
    for vc, sc in zip(vec, ref):
        assert (vc.stats.hits, vc.stats.misses, vc.stats.writebacks) == (
            sc.stats.hits,
            sc.stats.misses,
            sc.stats.writebacks,
        ), f"{vc.name} stats {ctx}"
        assert vc.resident_lines() == sc.resident_lines(), f"{vc.name} {ctx}"
        for s in range(vc.config.n_sets):
            assert vc.lru_contents(s) == sc.lru_contents(s), f"{vc.name} {s} {ctx}"
    assert (dram_v.reads, dram_v.writes) == (dram_s.reads, dram_s.writes), ctx


class TestConversionFollowsSetsInUse:
    def test_geometry_is_the_machine_default(self):
        assert (CFG.l1d.n_sets, CFG.l1d.assoc) == (1024, 2)
        assert (CFG.l2.n_sets, CFG.l2.assoc) == (8192, 4)

    def test_narrow_access_materialises_only_sets_in_use(self, monkeypatch):
        (l1, l2), _, _, _ = machine_pair()
        l1.access_lines(few_set_scan([0, 1, 2, 3]), write=True)
        assert l1._scalar_sets is None and l2._scalar_sets is None
        l1.access_lines([7], write=False)  # narrow: both levels flip
        touched = {0, 1, 2, 3, 7}
        for c in (l1, l2):
            assert c._scalar_sets is not None, c.name
            assert len(c._scalar_sets) == c.config.n_sets
            assert set(materialised(c)) <= touched, c.name
            assert sorted(c._scalar_live) == materialised(c), c.name

        # The flush back writes only the materialised rows: rows outside
        # them carry a mark the flush must leave alone.
        flushed = {}
        original = cache_mod.Cache._flush_lists

        def spy(self):
            live = set(self._scalar_live)
            others = np.array(
                [s for s in range(self._n_sets) if s not in live], dtype=np.int64
            )
            self._stamp[others] = -7
            original(self)
            assert (self._stamp[others] == -7).all(), self.name
            self._stamp[others] = 0
            flushed[self.name] = live

        monkeypatch.setattr(cache_mod.Cache, "_flush_lists", spy)
        l1.access_lines(few_set_scan([0, 1]), write=False)  # wide: flip back
        assert set(flushed) == {"L1D", "L2"}
        for live in flushed.values():
            assert live <= touched


class TestRegimeFlipDifferential:
    """Production dispatch vs the scalar model on the machine geometry,
    querying sets no dict was made for while in the dict regime."""

    def test_queries_and_flushes_on_untouched_sets(self):
        vec, ref, dram_v, dram_s = machine_pair()
        l1, l2 = vec

        def both(lines, write):
            lv = vec[0].access_lines(lines, write=write)
            ls = ref[0].access_lines(lines, write=write)
            assert lv == ls, f"latency for {lines[:4]}..."

        both(few_set_scan([0, 5, 9, 1030]), True)  # wide: array regime
        both([5, 9 + L2_SETS, 3000, 3001], True)  # narrow: dict regime
        assert l1._scalar_sets is not None and l2._scalar_sets is not None
        untouched = [2, 100, 1023, 4095, L2_SETS - 1]
        for c, sc in zip(vec, ref):
            for s in untouched:
                assert c._scalar_sets[s % c._n_sets] is None
                assert c.lru_contents(s % c._n_sets) == []
                assert not c.contains(s)
            for s in range(c.config.n_sets):
                assert c.lru_contents(s) == sc.lru_contents(s), (c.name, s)
            assert c.resident_lines() == sc.resident_lines()
            ref_dirty = sorted(
                line
                for s in range(sc._n_sets)
                for line, d in sc.lru_contents(s)
                if d and line <= 2 * L2_SETS
            )
            assert c.dirty_lines_in(0, 2 * L2_SETS) == ref_dirty
            assert c.dirty_lines_in(200, 900) == []  # untouched sets only

        # Narrow span (enumerates candidate lines), then a span of at
        # least n_sets at both levels (walks the materialised sets).
        for lo, hi in ((3000, 3001), (2, 100), (0, L2_SETS + 8)):
            assert l1._scalar_sets is not None
            assert l1.flush_range(lo, hi) == ref_flush(ref[0], lo, hi), (lo, hi)
            assert_same(vec, ref, dram_v, dram_s, f"flush {lo}..{hi}")
        both([9 + L2_SETS, 77], False)  # still the dict regime
        both(few_set_scan([5, 77, 4000]), True)  # wide: flush back
        assert l1._scalar_sets is None
        assert_same(vec, ref, dram_v, dram_s, "after the flip back")


class TestWayColumnHelpers:
    """``_way_of`` and the rounds engine's ``_touched_cell`` replace
    argmax/argmin over an ``(n, assoc)`` matrix; they must pick the same
    way, ties included."""

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_match_agrees_with_argmax(self, assoc):
        rng = np.random.default_rng(assoc)
        tagm = rng.integers(-1, 6, size=(64, assoc))  # repeats: many ties
        tag = rng.integers(0, 6, size=300)
        rows = rng.integers(0, 64, size=300)
        for got_rows, n in ((rows, 300), (slice(0, 64), 64)):
            match = tagm[got_rows] == tag[:n, None]
            want = np.where(match.any(axis=1), match.argmax(axis=1), -1)
            got = cache_mod._way_of(tagm, got_rows, tag[:n])
            assert (got == want).all(), got_rows

    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_victim_agrees_with_argmin(self, assoc):
        # Way-major state, as the rounds engine keeps it: the way holding
        # the tag wins, else the first way with the smallest stamp.
        rng = np.random.default_rng(10 + assoc)
        stampw = rng.integers(0, 4, size=(assoc, 64))  # many ties
        tagw = rng.integers(-1, 6, size=(assoc, 64))
        cell = np.arange(assoc * 64).reshape(assoc, 64)
        for width in (64, 37, 1):
            tag = rng.integers(0, 12, size=width)  # about half absent
            key = np.where(tagw[:, :width] == tag, -1, stampw[:, :width])
            want = key.argmin(axis=0) * 64 + np.arange(width)
            got = cache_mod._touched_cell(tagw, stampw, cell, width, tag)
            assert (got == want).all(), width

    def test_hit_in_a_way_other_than_zero(self):
        tagm = np.array([[-1, 4, 9, -1, 2, 3, 5, 7]])
        rows = np.zeros(4, dtype=np.int64)
        tag = np.array([9, 7, 2, 8])
        assert cache_mod._way_of(tagm, rows, tag).tolist() == [2, 7, 4, -1]
        assert cache_mod._way_of(tagm[:, :1], rows, tag).tolist() == [-1] * 4

    def test_lowest_matching_way_wins(self):
        tagm = np.array([[6, 3, 6, 3]])
        got = cache_mod._way_of(tagm, np.zeros(2, dtype=np.int64), np.array([3, 6]))
        assert got.tolist() == [1, 0]

    def test_lowest_invalid_way_is_the_victim(self):
        # Invalid ways carry stamp 0: several free ways, lowest wins.
        stampm = np.array(
            [
                [5, 0, 9, 0, 0, 4, 0, 8],  # assoc 8, invalid ways 1, 3, 4, 6
                [0, 0, 0, 0, 0, 0, 0, 0],  # empty set
                [7, 6, 5, 4, 3, 2, 1, 9],  # full set: true LRU is way 6
                [3, 3, 1, 1, 2, 2, 1, 9],  # equal stamps: first of them
            ]
        )
        stampw = np.ascontiguousarray(stampm.T)  # way-major
        tagw = np.full(stampw.shape, -1)
        tag = np.full(4, 100)  # resident nowhere: every set picks a victim

        def victim_ways(tagw, stampw):
            cell = np.arange(stampw.size).reshape(stampw.shape)
            return (cache_mod._touched_cell(tagw, stampw, cell, 4, tag) // 4).tolist()

        assert victim_ways(tagw, stampw) == [1, 0, 6, 2]
        assert victim_ways(tagw[:1], stampw[:1]) == [0, 0, 0, 0]
