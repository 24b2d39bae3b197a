"""Deterministic differential cases for the way-major rounds engine.

The hypothesis suites draw random streams; these pin the shapes the
rounds engine and the batch routing must get right, at associativity
1, 2, 4 and 8, against the scalar reference model: a free way taken
mid-batch, a last-level rounds batch whose victims post DRAM writes,
and a batch carrying installs whose first op misses, which skips the
full-batch way lookup.
"""

import numpy as np
import pytest

from repro.sim import cache as cache_mod
from tests.sim.test_cache_regimes import ref_flush
from tests.sim.test_cache_vectorized import assert_identical, make_pair

ASSOCS = [1, 2, 4, 8]


def force_rounds(vec):
    for c in (vec[0], vec[2]):
        c._ROUNDS_MIN_OPS = 1
        c._ROUNDS_WIDTH = 0


def run_both(vec, ref, dram_v, dram_s, lines, write, ctx=""):
    got = vec[0].access_lines(lines, write=write)
    want = ref[0].access_lines(lines, write=write)
    assert got == want, f"latency {ctx}"
    assert_identical(vec, ref, dram_v, dram_s, ctx)


def conflict_stream(rng, n_lines, span):
    """Re-touch-heavy reads and writes over a span a few times the cache."""
    return [int(x) for x in rng.integers(0, span, size=n_lines)]


@pytest.mark.parametrize("assoc", ASSOCS)
def test_mixed_batches_match_reference(assoc):
    vec, ref, dram_v, dram_s = make_pair(8, assoc, 16, assoc)
    force_rounds(vec)
    rng = np.random.default_rng(assoc)
    span = 4 * 16 * assoc
    for i in range(6):
        lines = conflict_stream(rng, 300, span)
        run_both(vec, ref, dram_v, dram_s, lines, write=bool(i % 2), ctx=f"batch {i}")
    assert vec[0].batches_rounds == 6
    assert vec[2].batches_rounds > 0
    assert vec[2].stats.writebacks > 0


@pytest.mark.parametrize("assoc", ASSOCS)
def test_free_way_taken_mid_batch(assoc):
    """A flush leaves a hole in a middle way of a full set; a later
    batch hits, then misses into the hole (stamp 0 beats every live
    stamp), then evicts true LRU victims."""
    n_sets = 4
    vec, ref, dram_v, dram_s = make_pair(n_sets, assoc, 64, 8)
    force_rounds(vec)
    # Fill set 0 of L1 with `assoc` dirty lines: tags 0..assoc-1.
    fill = [t * n_sets for t in range(assoc)]
    run_both(vec, ref, dram_v, dram_s, fill, write=True, ctx="fill")
    hole = fill[assoc // 2]
    assert vec[0].flush_range(hole, hole) == ref_flush(ref[0], hole, hole)
    assert_identical(vec, ref, dram_v, dram_s, "after the flush")
    way = assoc // 2
    assert vec[0]._tag[0, way] == -1  # the hole sits where the line was
    survivors = [line for line in fill if line != hole]
    fresh = [(assoc + k) * n_sets for k in range(3)]
    # The repeat of fresh[0] keeps even the 1-way batch off the cold path.
    batch = survivors[:1] + fresh[:1] + survivors[1:] + fresh[1:] + fresh[:1] + [hole]
    run_both(vec, ref, dram_v, dram_s, batch, write=False, ctx="refill")
    assert vec[0].batches_rounds == 1


@pytest.mark.parametrize("assoc", ASSOCS)
def test_last_level_rounds_batch_posts_dram_writes(assoc):
    """Dirty L1 victims arrive at L2 as installs in a rounds batch; the
    L2 victims they displace are posted DRAM writes charged to nobody,
    while demand fills that evict dirty lines pay the write."""
    vec, ref, dram_v, dram_s = make_pair(4, 2, 8, assoc)
    force_rounds(vec)
    span = 3 * 8 * assoc
    writes = list(range(span))
    run_both(vec, ref, dram_v, dram_s, writes, write=True, ctx="dirty L2")
    w0 = dram_v.writes
    reads = list(range(span, 3 * span)) + list(range(span))
    run_both(vec, ref, dram_v, dram_s, reads, write=True, ctx="second pass")
    assert dram_v.writes > w0
    assert vec[2].batches_rounds >= 2
    assert vec[2].stats.writebacks > 0


@pytest.mark.parametrize("assoc", ASSOCS)
def test_install_batch_with_first_miss_skips_lookup(assoc, monkeypatch):
    """A batch with installs whose first op misses can only take the
    general path: it is routed there without the full-batch lookup, and
    still resolves exactly."""
    vec, ref, dram_v, dram_s = make_pair(4, 2, 16, assoc)
    # Dirty L1 (4 sets x 2 ways), then a wide write scan of new lines:
    # L2 gets fills of new lines (the first misses) and installs of
    # L1's dirty victims.
    run_both(vec, ref, dram_v, dram_s, list(range(8)), write=True, ctx="warm")
    l2 = vec[2]
    lookups = []
    real_way_of = cache_mod._way_of

    def counting_way_of(tagm, rows, tag):
        lookups.append(tagm is l2._tag)
        return real_way_of(tagm, rows, tag)

    monkeypatch.setattr(cache_mod, "_way_of", counting_way_of)
    before = (l2.batches_rounds, l2.batches_walked)
    fast = (l2.batches_all_hit, l2.batches_cold)
    scan = list(range(1000, 1000 + 40 * 16 * assoc))
    run_both(vec, ref, dram_v, dram_s, scan, write=True, ctx="scan")
    assert (l2.batches_rounds, l2.batches_walked) != before
    assert (l2.batches_all_hit, l2.batches_cold) == fast
    assert True not in lookups  # L2 never looked its batch up
    assert False in lookups  # L1's demand-only batch did
    assert l2.stats.writebacks + vec[0].stats.writebacks > 0


def test_non_power_of_two_sets_cold_rounds_and_walk():
    """A 768-set L1 over a 1536-set L2 splits lines with ``np.divmod``:
    a cold scan, a wide re-touching batch in rounds and a narrow batch
    walked per set, each on both sides of the packed-sort crossover
    where it can be, against the reference model."""
    n_sets = 768
    vec, ref, dram_v, dram_s = make_pair(n_sets, 2, 2 * n_sets, 4)
    assert vec[0]._set_shift == -1 and vec[2]._set_shift == -1
    rng = np.random.default_rng(768)
    span = 4 * n_sets * 2
    for i, n in enumerate((6000, 1000)):
        base = 10 * span * (i + 1)
        run_both(vec, ref, dram_v, dram_s, list(range(base, base + n)), True, f"cold {n}")
        lines = [int(x) for x in rng.integers(0, span, size=n)]
        run_both(vec, ref, dram_v, dram_s, lines, bool(i), f"rounds {n}")
    crowded = [t * n_sets + s for t in range(40) for s in (5, 767)]
    crowded += crowded[::3]
    run_both(vec, ref, dram_v, dram_s, crowded, True, "walk")
    l1 = vec[0]
    assert l1.batches_cold == 2
    assert l1.batches_rounds == 2
    assert l1.batches_walked == 1
    assert l1.stats.writebacks > 0
