"""Differential suite for the narrow walk.

A narrow batch (at most ``Cache._SMALL_BATCH`` lines) is settled in one
walk over the L1's dicts and, on a miss or a dirty victim, the last
level's; hits, misses, writebacks and all DRAM and bus traffic are
committed once per call.  A dict-regime flush drops each level's lines
and posts its dirty ones the same way.  Hypothesis drives the three
hierarchy shapes the code builds (L1D over L2 over DRAM, several L1Ds
over one L2, one level over DRAM) with narrow batches in every input
form, wide batches that flip the regime both ways, single-line calls
and narrow and wide flushes, against the scalar reference model
(:mod:`repro.sim.cache_reference`).  Set counts are not powers of two
and the hit times, miss latency and bus cycle are fractional, so every
call's total must follow the reference's float association exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bus import Bus
from repro.sim.cache import Cache
from repro.sim.cache_reference import ScalarCache
from repro.sim.config import BusConfig, CacheConfig, DRAMConfig
from repro.sim.dram import DRAM
from tests.sim.test_cache_regimes import ref_flush
from tests.sim.test_cache_vectorized import _examples

LINE = 32
SMALL = Cache._SMALL_BATCH
#: Lines drawn from here: a few times the largest L2 below, so sets
#: conflict and dirty victims cascade...
SPAN = 400
#: ...and most from a hot region about the size of an L1, so flushes
#: find resident dirty lines.
line_addr = st.one_of(st.integers(0, 47), st.integers(0, SPAN))

SHAPES = ("two-level", "shared-l2", "one-level")


class Rig:
    """A production hierarchy and its reference twin over separate DRAM."""

    def __init__(self, shape, l1_geom, l2_geom, timing, n_l1=1):
        hit1, hit2, miss_ns, bus_ns, bus_bytes = timing
        l1_cfg = _cfg(l1_geom, hit1)
        l2_cfg = _cfg(l2_geom, hit2)
        bus_cfg = BusConfig(bytes_per_transfer=bus_bytes, ns_per_transfer=bus_ns)
        self.drams = []
        self.tops = []  # (production L1, reference L1) per CPU
        self.levels = []  # (production, reference) per cache level
        for klass in (Cache, ScalarCache):
            dram = DRAM(DRAMConfig(miss_latency_ns=miss_ns), Bus(bus_cfg))
            self.drams.append(dram)
            if shape == "one-level":
                l1s = [klass("L1D", l1_cfg, dram=dram)]
                levels = list(l1s)
            else:
                l2 = klass("L2", l2_cfg, dram=dram)
                l1s = [klass("L1D", l1_cfg, next_level=l2) for _ in range(n_l1)]
                levels = l1s + [l2]
            self.tops.append(l1s)
            self.levels.append(levels)
        self.tops = list(zip(*self.tops))
        self.levels = list(zip(*self.levels))

    def check(self, ctx):
        for c, ref in self.levels:
            assert (c.stats.hits, c.stats.misses, c.stats.writebacks) == (
                ref.stats.hits,
                ref.stats.misses,
                ref.stats.writebacks,
            ), f"{c.name} stats, {ctx}"
            for s in range(c.config.n_sets):
                assert c.lru_contents(s) == ref.lru_contents(s), (
                    f"{c.name} set {s}, {ctx}"
                )
        got, want = self.drams
        assert (got.reads, got.writes) == (want.reads, want.writes), ctx
        assert (
            got.bus.bytes_transferred,
            got.bus.cycles,
            got.bus.transfers,
        ) == (
            want.bus.bytes_transferred,
            want.bus.cycles,
            want.bus.transfers,
        ), f"bus, {ctx}"


def _cfg(geom, hit_ns):
    n_sets, assoc = geom
    return CacheConfig(
        size_bytes=n_sets * assoc * LINE, assoc=assoc, line_bytes=LINE, hit_ns=hit_ns
    )


# ----------------------------------------------------------------------
# Strategies

#: Set counts that are mostly not powers of two.  Some L1s have more
#: sets than some L2s, so the victims of one narrow flush (one per L1
#: set) can share an L2 set, where their posting order shows.
l1_geometry = st.tuples(
    st.sampled_from([1, 3, 5, 6, 7, 12, 20]), st.sampled_from([1, 2, 4])
)
l2_geometry = st.tuples(
    st.sampled_from([3, 5, 6, 10, 12, 24]), st.sampled_from([1, 2, 4, 8])
)
#: (L1 hit, L2 hit, DRAM miss latency, bus cycle, bus width): every
#: timing fractional in most draws.
timings = st.tuples(
    st.sampled_from([1.0, 1.3, 0.7]),
    st.sampled_from([6.0, 6.7, 2.9]),
    st.sampled_from([50.0, 50.3, 33.1, 0.0]),
    st.sampled_from([10.0, 10.1, 2.7]),
    st.sampled_from([4, 8, 3]),
)


@st.composite
def narrow_lines(draw):
    """1-96 lines as a ``range``, a list or an int64 ndarray."""
    form = draw(st.sampled_from(["range", "list", "ndarray"]))
    if form == "range":
        start = draw(line_addr)
        step = draw(st.sampled_from([1, 1, 2, 3, 7]))
        n = draw(st.integers(1, SMALL))
        return range(start, start + n * step, step)
    lines = draw(st.lists(line_addr, min_size=1, max_size=SMALL))
    return lines if form == "list" else np.array(lines, dtype=np.int64)


@st.composite
def wide_lines(draw):
    """More than ``Cache._SMALL_BATCH`` lines: the matrix regime."""
    start = draw(st.integers(0, SPAN))
    n = draw(st.integers(SMALL + 1, 3 * SMALL))
    if draw(st.booleans()):
        return list(range(start, start + n))
    return draw(st.lists(st.integers(0, SPAN), min_size=n, max_size=n))


@st.composite
def steps(draw):
    kind = draw(st.sampled_from(["narrow"] * 6 + ["wide", "line", "flush", "flush"]))
    cpu = draw(st.integers(0, 2))
    if kind == "narrow":
        return kind, cpu, draw(narrow_lines()), draw(st.booleans())
    if kind == "wide":
        return kind, cpu, draw(wide_lines()), draw(st.booleans())
    if kind == "line":
        return kind, cpu, draw(line_addr), draw(st.booleans())
    lo = draw(line_addr)
    # Narrow flushes (span under the set count) and wide ones.
    width = draw(st.one_of(st.integers(1, 16), st.integers(17, 64)))
    return kind, cpu, lo, lo + width - 1


def run_step(rig, step):
    kind, cpu, a, b = step
    c, ref = rig.tops[cpu % len(rig.tops)]
    if kind in ("narrow", "wide"):
        return c.access_lines(a, write=b), ref.access_lines(a, write=b)
    if kind == "line":
        return c.access_line(a, write=b), ref.access_line(a, write=b)
    return c.flush_range(a, b), ref_flush(ref, a, b)


class TestNarrowWalkDifferential:
    @pytest.mark.parametrize("shape", SHAPES)
    @given(
        l1=l1_geometry,
        l2=l2_geometry,
        timing=timings,
        n_l1=st.integers(2, 3),
        script=st.lists(steps(), min_size=1, max_size=25),
    )
    @settings(max_examples=_examples(100), deadline=None)
    def test_every_call_matches_reference(self, shape, l1, l2, timing, n_l1, script):
        rig = Rig(shape, l1, l2, timing, n_l1 if shape == "shared-l2" else 1)
        for i, step in enumerate(script):
            got, want = run_step(rig, step)
            ctx = f"step {i} {step[0]}"
            assert got == want, f"total, {ctx}"
            rig.check(ctx)


class TestWalkShape:
    """What the walk settles inline and commits once."""

    def test_deeper_chain_is_rejected(self):
        dram = DRAM(DRAMConfig(), Bus(BusConfig()))
        cfg = _cfg((4, 2), 1.0)
        l3 = Cache("L3", cfg, dram=dram)
        l2 = Cache("L2", cfg, next_level=l3)
        with pytest.raises(ValueError, match="over DRAM"):
            Cache("L1D", cfg, next_level=l2)

    def test_narrow_flush_posts_victims_in_set_order(self):
        """A narrow flush range that crosses a multiple of the L1's set
        count posts its lines from that multiple up first (sets 0,
        1, ...), then those below it.  Here the L1 (20 sets, one way)
        holds dirty lines 22 and 16, and their two-way L2 set holds a
        dirty copy of 22 behind clean line 100.  Posted in set order,
        22 is refreshed and 16 evicts the clean 100; posted the other
        way round, 16 would evict the dirty 22, one more writeback."""
        rig = Rig("two-level", (20, 1), (3, 2), (1.3, 6.7, 50.3, 10.1, 4))
        (c, ref), = rig.tops
        for line, write in ((16, True), (22, True), (42, True), (22, True), (100, False)):
            assert c.access_lines([line], write) == ref.access_lines([line], write)
        assert [ln for ln, _ in c.next_level.lru_contents(1)] == [100, 22]
        assert c.flush_range(15, 27) == ref_flush(ref, 15, 27)
        rig.check("flush")
        assert (c.next_level.stats.writebacks, rig.drams[0].writes) == (2, 2)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dram_and_bus_committed_once_per_call(self, shape, monkeypatch):
        """Narrow accesses and flushes never reach the per-line DRAM
        and bus calls, and commit DRAM reads and writes at most once
        each per call."""

        def per_line(*args):
            raise AssertionError("per-line DRAM or bus call")

        rig = Rig(shape, (3, 2), (5, 2), (1.3, 6.7, 50.3, 10.1, 4), n_l1=2)
        dram = rig.drams[0]  # the production side's
        for owner, attr in (
            (dram, "read_line"),
            (dram, "write_line"),
            (dram.bus, "transfer"),
        ):
            monkeypatch.setattr(owner, attr, per_line)
        calls = []
        for attr in ("read_lines", "write_lines"):

            def counted(count, line_bytes, _attr=attr, _original=getattr(dram, attr)):
                calls.append(_attr)
                return _original(count, line_bytes)

            monkeypatch.setattr(dram, attr, counted)
        rng = np.random.default_rng(5)
        for i in range(60):
            c, ref = rig.tops[i % len(rig.tops)]
            lines = rng.integers(0, SPAN, size=int(rng.integers(1, 12))).tolist()
            calls.clear()
            assert c.access_lines(lines, write=bool(i % 3)) == ref.access_lines(
                lines, write=bool(i % 3)
            )
            assert calls.count("read_lines") <= 1
            assert calls.count("write_lines") <= 1
            if i % 7 == 6:
                lo = int(rng.integers(0, SPAN))
                calls.clear()
                assert c.flush_range(lo, lo + 2) == ref_flush(ref, lo, lo + 2)
                assert calls.count("write_lines") <= len(rig.levels)
            rig.check(f"call {i}")
        assert rig.drams[0].writes > 0

    def test_access_line_is_a_one_line_walk(self):
        rig = Rig("two-level", (3, 1), (5, 1), (1.3, 6.7, 50.3, 10.1, 4))
        (c, ref), = rig.tops
        for line, write in ((0, True), (3, False), (6, True), (0, False), (9, True)):
            assert c.access_line(line, write) == ref.access_line(line, write)
            rig.check(f"line {line}")
        assert c._scalar_sets is not None
