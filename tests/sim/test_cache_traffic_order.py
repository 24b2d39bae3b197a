"""Deterministic differential cases for the order of next-level traffic.

A wide batch sends its demand fills and posted dirty victims to the
next level in one call, merged by op position with each op's fill
ahead of the victim it evicts.  The cold path finds its victims in set
order and must put them back into stream order; the spill must
interleave them with the fills exactly.  Each case runs one batch
through the vectorised hierarchy and the scalar reference
(:mod:`repro.sim.cache_reference`) and compares per-line latencies,
stats, both levels' LRU state and DRAM traffic, after checking on the
reference's L2 traffic that the batch has the shape it is meant to.
"""

import pytest

from tests.sim.test_cache_rounds import force_rounds
from tests.sim.test_cache_vectorized import assert_identical, make_pair


def log_l2_traffic(ref):
    """Record the reference L2's incoming traffic as ``(kind, line)``."""
    l2 = ref[2]
    log = []
    fill, install = l2.access_line, l2.install_line

    def logged_fill(line, write):
        log.append(("fill", line))
        return fill(line, write)

    def logged_install(line):
        log.append(("victim", line))
        return install(line)

    l2.access_line = logged_fill
    l2.install_line = logged_install
    return log


def run_batch(vec, ref, dram_v, dram_s, parts, writes):
    """One fused batch on both hierarchies; per-line latencies must match."""
    got = vec[0].access_lines_batch(parts, writes, [len(p) for p in parts])
    want = [
        ref[0].access_line(line, write) for part, write in zip(parts, writes)
        for line in part
    ]
    assert got.tolist() == want
    assert_identical(vec, ref, dram_v, dram_s)


@pytest.mark.parametrize("assoc", [1, 2, 4])
def test_cold_batch_victims_in_stream_order(assoc):
    """Every op misses and evicts: the first ``assoc`` installs of each
    set push out the dirty pre-state, the next ``assoc`` the batch's own
    dirty writes, the last ``assoc`` its clean reads.  Consecutive lines
    cycle through the eight L1 sets, so set order and stream order
    disagree for every victim, and L1 sets 0 and 4 share an L2 set."""
    vec, ref, dram_v, dram_s = make_pair(8, assoc, 4, 4)
    warm = [list(range(8 * assoc))]
    run_batch(vec, ref, dram_v, dram_s, warm, [True])
    width = 8 * assoc
    parts = [
        list(range(1000, 1000 + width)),
        list(range(2000, 2000 + width)),
        list(range(3000, 3000 + width)),
    ]
    log = log_l2_traffic(ref)
    cold = vec[0].batches_cold
    run_batch(vec, ref, dram_v, dram_s, parts, [True, False, True])
    assert vec[0].batches_cold == cold + 1
    victims = [line for kind, line in log if kind == "victim"]
    assert len(victims) == 2 * width
    assert any(line < 1000 for line in victims)  # from the pre-state
    assert any(line >= 1000 for line in victims)  # installed by this batch
    # Each victim follows its own op's fill.
    for i, (kind, line) in enumerate(log):
        if kind == "victim":
            assert log[i - 1][0] == "fill"
            assert log[i - 1][1] % 8 == line % 8
    assert dram_v.writes > 0


@pytest.mark.parametrize("resolver", ["walk", "rounds"])
def test_general_spill_interleaves_fills_and_victims(resolver):
    """Hits, fills of clean ways and fills that evict dirty lines (from
    the pre-state and from this batch's writes) in one batch: each
    dirty victim lands right after its op's fill, in the same L2 set,
    with other ops' fills before and after it."""
    vec, ref, dram_v, dram_s = make_pair(8, 2, 4, 4)
    if resolver == "rounds":
        force_rounds(vec)
    # Each L1 set s holds line s (dirty, LRU) and s + 8 (clean, MRU).
    run_batch(vec, ref, dram_v, dram_s, [list(range(8))], [True])
    run_batch(vec, ref, dram_v, dram_s, [list(range(8, 16))], [False])
    parts = [
        [16, 9, 18, 17, 19, 11, 27],  # evict 0, hit, evict 2, 1, 3, hit, clean
        [20, 12, 13, 21, 24],  # evict 4, hit, hit, evict 5, clean
        [28, 0, 29],  # evict 20 (written above), clean, evict 13 (written)
    ]
    log = log_l2_traffic(ref)
    l1 = vec[0]
    rounds, walked = l1.batches_rounds, l1.batches_walked
    run_batch(vec, ref, dram_v, dram_s, parts, [False, True, False])
    assert (l1.batches_rounds - rounds, l1.batches_walked - walked) == (
        (1, 0) if resolver == "rounds" else (0, 1)
    )
    # Each dirty victim right after its own op's fill, in the same L2
    # set; clean-way fills (27, 24, 0) between victims.
    assert log == [
        ("fill", 16), ("victim", 0), ("fill", 18), ("victim", 2),
        ("fill", 17), ("victim", 1), ("fill", 19), ("victim", 3),
        ("fill", 27), ("fill", 20), ("victim", 4), ("fill", 21),
        ("victim", 5), ("fill", 24), ("fill", 28), ("victim", 20),
        ("fill", 0), ("fill", 29), ("victim", 13),
    ]
    assert dram_v.reads > 0
