"""Differential suite: vectorized engine vs the scalar reference model.

:mod:`repro.sim.cache` resolves whole line streams with array passes;
:mod:`repro.sim.cache_reference` replays the same streams one line at a
time with list-based LRU.  Hypothesis drives both hierarchies with
random mixes of block / stride / gather streams and write/read
interleavings over small, conflict-heavy geometries and demands
**bit-identical** results: hits, misses, writebacks at every level,
DRAM traffic, total latency (exact float equality, not approx), and
full per-set residency/recency/dirty state.
"""

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bus import Bus
from repro.sim.cache import build_hierarchy
from repro.sim.cache_reference import build_scalar_hierarchy
from repro.sim.config import BusConfig, CacheConfig, DRAMConfig
from repro.sim.dram import DRAM
from repro.sim.ops import lines_for_block, lines_for_gather, lines_for_stride

LINE = 32


def _examples(percent):
    """``percent``% of the loaded hypothesis profile's example budget:
    ``percent`` examples under the default profile (100), ten times as
    many under ``--hypothesis-profile=deep`` (tests/conftest.py)."""
    return max(1, settings.default.max_examples * percent // 100)


def make_pair(l1_sets, l1_assoc, l2_sets, l2_assoc, small_batch=0):
    """A (vectorized, scalar) hierarchy pair with identical geometry.

    ``small_batch=0`` pins the vectorized engine to its array paths so
    the suite actually exercises them on the small streams hypothesis
    generates; pass ``None`` to keep the production adaptive dispatch.
    """
    l1_cfg = CacheConfig(
        size_bytes=l1_sets * l1_assoc * LINE, assoc=l1_assoc, line_bytes=LINE, hit_ns=1.0
    )
    l2_cfg = CacheConfig(
        size_bytes=l2_sets * l2_assoc * LINE, assoc=l2_assoc, line_bytes=LINE, hit_ns=6.0
    )
    dram_v = DRAM(DRAMConfig(), Bus(BusConfig()))
    dram_s = DRAM(DRAMConfig(), Bus(BusConfig()))
    vec = build_hierarchy(l1_cfg, l2_cfg, dram_v)
    ref = build_scalar_hierarchy(l1_cfg, l2_cfg, dram_s)
    if small_batch is not None:
        for c in (vec[0], vec[2]):
            c._SMALL_BATCH = small_batch
    return vec, ref, dram_v, dram_s


def assert_identical(vec, ref, dram_v, dram_s, ctx=""):
    """Full-state equality: stats, DRAM traffic, per-set LRU order."""
    for vc, sc in zip((vec[0], vec[2]), (ref[0], ref[2])):
        assert vc.stats.hits == sc.stats.hits, f"{vc.name} hits {ctx}"
        assert vc.stats.misses == sc.stats.misses, f"{vc.name} misses {ctx}"
        assert vc.stats.writebacks == sc.stats.writebacks, f"{vc.name} wb {ctx}"
        assert vc.resident_lines() == sc.resident_lines(), f"{vc.name} occ {ctx}"
        for s in range(vc.config.n_sets):
            assert vc.lru_contents(s) == sc.lru_contents(s), (
                f"{vc.name} set {s} {ctx}"
            )
    assert dram_v.reads == dram_s.reads, f"dram reads {ctx}"
    assert dram_v.writes == dram_s.writes, f"dram writes {ctx}"


# ----------------------------------------------------------------------
# Stream strategies: the shapes the op layer actually produces


@st.composite
def block_stream(draw):
    addr = draw(st.integers(min_value=0, max_value=2048))
    nbytes = draw(st.integers(min_value=1, max_value=2048))
    return list(lines_for_block(addr, nbytes, LINE))


@st.composite
def stride_stream(draw):
    addr = draw(st.integers(min_value=0, max_value=1024))
    count = draw(st.integers(min_value=1, max_value=40))
    stride = draw(st.integers(min_value=1, max_value=160))
    elem = draw(st.sampled_from([1, 4, 8, 32, 64, 96]))
    return list(lines_for_stride(addr, count, stride, elem, LINE))


@st.composite
def gather_stream(draw):
    addrs = draw(
        st.lists(st.integers(min_value=0, max_value=2048), min_size=1, max_size=40)
    )
    elem = draw(st.sampled_from([1, 4, 8]))
    return list(lines_for_gather(addrs, elem, LINE))


@st.composite
def raw_stream(draw):
    """Arbitrary line addresses — repeats, reversals, conflicts."""
    return draw(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=60)
    )


workload = st.lists(
    st.tuples(
        st.one_of(block_stream(), stride_stream(), gather_stream(), raw_stream()),
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=12,
)

# Set counts that are not powers of two split lines with np.divmod
# instead of a shift and a mask.
geometry = st.tuples(
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),  # l1 sets
    st.sampled_from([1, 2, 4, 8]),  # l1 assoc
    st.sampled_from([2, 4, 6, 12, 16, 24]),  # l2 sets
    st.sampled_from([1, 2, 4, 8]),  # l2 assoc
)


class TestBatchedDifferential:
    @given(geom=geometry, streams=workload)
    @settings(max_examples=_examples(120), deadline=None)
    def test_bit_identical_streams(self, geom, streams):
        vec, ref, dram_v, dram_s = make_pair(*geom)
        for i, (lines, write) in enumerate(streams):
            lat_v = vec[0].access_lines(lines, write=write)
            lat_s = ref[0].access_lines(lines, write=write)
            assert lat_v == lat_s, f"latency, stream {i} ({lines[:8]}...)"
            assert_identical(vec, ref, dram_v, dram_s, ctx=f"stream {i}")

    @given(geom=geometry, streams=workload, data=st.data())
    @settings(max_examples=_examples(60), deadline=None)
    def test_bit_identical_with_scalar_interleaving(self, geom, streams, data):
        """Batched and single-line entry points share one state machine."""
        vec, ref, dram_v, dram_s = make_pair(*geom)
        for i, (lines, write) in enumerate(streams):
            if data.draw(st.booleans(), label=f"scalar[{i}]"):
                lat_v = sum(vec[0].access_line(int(l), write) for l in lines)
                lat_s = sum(ref[0].access_line(int(l), write) for l in lines)
            else:
                lat_v = vec[0].access_lines(lines, write=write)
                lat_s = ref[0].access_lines(lines, write=write)
            assert lat_v == lat_s, f"latency, stream {i}"
            assert_identical(vec, ref, dram_v, dram_s, ctx=f"stream {i}")

    @given(
        geom=geometry,
        streams=st.lists(
            st.tuples(raw_stream(), st.booleans(), st.booleans()),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=_examples(60), deadline=None)
    def test_shared_l2_two_l1s(self, geom, streams):
        """Dual L1s (D+I) interleaving traffic into one L2 — the SMP shape."""
        l1_sets, l1_assoc, l2_sets, l2_assoc = geom
        l1_cfg = CacheConfig(
            size_bytes=l1_sets * l1_assoc * LINE,
            assoc=l1_assoc,
            line_bytes=LINE,
            hit_ns=1.0,
        )
        l2_cfg = CacheConfig(
            size_bytes=l2_sets * l2_assoc * LINE,
            assoc=l2_assoc,
            line_bytes=LINE,
            hit_ns=6.0,
        )
        dram_v = DRAM(DRAMConfig(), Bus(BusConfig()))
        dram_s = DRAM(DRAMConfig(), Bus(BusConfig()))
        vec = build_hierarchy(l1_cfg, l2_cfg, dram_v, l1i_cfg=l1_cfg)
        ref = build_scalar_hierarchy(l1_cfg, l2_cfg, dram_s, l1i_cfg=l1_cfg)
        for c in vec:
            c._SMALL_BATCH = 0
        for i, (lines, write, use_l1i) in enumerate(streams):
            vc = vec[1] if use_l1i else vec[0]
            sc = ref[1] if use_l1i else ref[0]
            assert vc.access_lines(lines, write=write) == sc.access_lines(
                lines, write=write
            ), f"latency, stream {i}"
            for a, b in zip(vec, ref):
                assert (a.stats.hits, a.stats.misses, a.stats.writebacks) == (
                    b.stats.hits,
                    b.stats.misses,
                    b.stats.writebacks,
                ), f"stats, stream {i}"
                for s in range(a.config.n_sets):
                    assert a.lru_contents(s) == b.lru_contents(s), f"stream {i}"
            assert (dram_v.reads, dram_v.writes) == (dram_s.reads, dram_s.writes)


@st.composite
def wide_stream(draw):
    """Wide enough (>96 lines) to engage the array engine."""
    start = draw(st.integers(min_value=0, max_value=256))
    length = draw(st.integers(min_value=100, max_value=400))
    step = draw(st.sampled_from([1, 2, 3]))
    return list(range(start, start + length * step, step))


mixed_workload = st.lists(
    st.tuples(st.one_of(raw_stream(), wide_stream()), st.booleans()),
    min_size=2,
    max_size=10,
)


class TestAdaptiveDispatchDifferential:
    """Production dispatch: narrow batches run the dict-based scalar
    regime, wide ones the array engine, with lazy state conversion at
    every regime flip.  Mixed-width workloads force flips both ways."""

    @given(geom=geometry, streams=mixed_workload)
    @settings(max_examples=_examples(80), deadline=None)
    def test_bit_identical_across_regime_flips(self, geom, streams):
        vec, ref, dram_v, dram_s = make_pair(*geom, small_batch=None)
        for i, (lines, write) in enumerate(streams):
            lat_v = vec[0].access_lines(lines, write=write)
            lat_s = ref[0].access_lines(lines, write=write)
            assert lat_v == lat_s, f"latency, stream {i} (n={len(lines)})"
            assert_identical(vec, ref, dram_v, dram_s, ctx=f"stream {i}")

    def test_state_survives_round_trip(self):
        """scalar -> vector -> scalar conversion preserves residency,
        recency and dirty bits exactly."""
        vec, ref, dram_v, dram_s = make_pair(4, 2, 16, 4, small_batch=None)
        vec[0].access_lines([0, 4, 1, 5], write=True)  # scalar regime
        ref[0].access_lines([0, 4, 1, 5], write=True)
        big = list(range(8, 8 + 200))  # vector regime (flush)
        assert vec[0].access_lines(big, write=False) == ref[0].access_lines(
            big, write=False
        )
        assert vec[0].access_lines([0, 2], write=False) == ref[0].access_lines(
            [0, 2], write=False
        )  # back to scalar (rebuild)
        assert_identical(vec, ref, dram_v, dram_s)


class TestRoundsEngineDifferential:
    """Force the round-major general path (normally only wide batches
    trigger it) and re-run the differential checks."""

    @staticmethod
    def _force_rounds(vec):
        for c in (vec[0], vec[2]):
            c._ROUNDS_MIN_OPS = 1
            c._ROUNDS_WIDTH = 0

    @given(geom=geometry, streams=workload)
    @settings(max_examples=_examples(80), deadline=None)
    def test_bit_identical_streams_rounds(self, geom, streams):
        vec, ref, dram_v, dram_s = make_pair(*geom)
        self._force_rounds(vec)
        for i, (lines, write) in enumerate(streams):
            lat_v = vec[0].access_lines(lines, write=write)
            lat_s = ref[0].access_lines(lines, write=write)
            assert lat_v == lat_s, f"latency, stream {i} ({lines[:8]}...)"
            assert_identical(vec, ref, dram_v, dram_s, ctx=f"stream {i}")

    def test_wide_write_scan_uses_rounds(self):
        """The cold-write shape: L2 receives interleaved fills+installs
        wide enough for the rounds engine organically."""
        l1 = CacheConfig(size_bytes=64 * 32, assoc=2, line_bytes=LINE, hit_ns=1.0)
        l2 = CacheConfig(size_bytes=2048 * 32, assoc=4, line_bytes=LINE, hit_ns=6.0)
        dram_v = DRAM(DRAMConfig(), Bus(BusConfig()))
        dram_s = DRAM(DRAMConfig(), Bus(BusConfig()))
        vec = build_hierarchy(l1, l2, dram_v)
        ref = build_scalar_hierarchy(l1, l2, dram_s)
        for rep in range(3):
            lines = range(rep * 512, rep * 512 + 8192)
            assert vec[0].access_lines(lines, write=True) == ref[0].access_lines(
                lines, write=True
            ), f"rep {rep}"
            assert_identical(vec, ref, dram_v, dram_s, ctx=f"rep {rep}")
        assert vec[2].stats.writebacks > 0


class TestFastPathCoverage:
    """Deterministic streams that pin each vector path specifically."""

    def test_cold_contiguous_block(self):
        """Path 2: cold distinct stream (the ``lines_for_block`` shape)."""
        vec, ref, dram_v, dram_s = make_pair(4, 2, 16, 4)
        lines = range(0, 32)
        assert vec[0].access_lines(lines, write=True) == ref[0].access_lines(
            lines, write=True
        )
        assert_identical(vec, ref, dram_v, dram_s)

    def test_all_hit_retouch(self):
        """Path 1: warm re-touch run, repeats included."""
        vec, ref, dram_v, dram_s = make_pair(4, 2, 16, 4)
        warm = [0, 1, 2, 3]
        vec[0].access_lines(warm, write=False)
        ref[0].access_lines(warm, write=False)
        retouch = [3, 0, 3, 1, 2, 2, 0]
        assert vec[0].access_lines(retouch, write=True) == ref[0].access_lines(
            retouch, write=True
        )
        assert_identical(vec, ref, dram_v, dram_s)

    def test_mixed_residual(self):
        """Path 3: interleaved hits, misses, conflict evictions."""
        vec, ref, dram_v, dram_s = make_pair(2, 2, 4, 2)
        stream = [0, 2, 4, 0, 6, 2, 8, 0, 10, 4]
        assert vec[0].access_lines(stream, write=True) == ref[0].access_lines(
            stream, write=True
        )
        assert_identical(vec, ref, dram_v, dram_s)

    def test_writeback_cascade_through_l2(self):
        """Dirty L1 victims install in L2 and cascade L2 evictions."""
        vec, ref, dram_v, dram_s = make_pair(1, 2, 1, 2)
        for batch in ([0, 1, 2, 3, 4, 5], [0, 1, 2], [6, 7, 8]):
            assert vec[0].access_lines(batch, write=True) == ref[0].access_lines(
                batch, write=True
            )
            assert_identical(vec, ref, dram_v, dram_s, ctx=str(batch))
        assert vec[2].stats.writebacks > 0  # cascades actually exercised
