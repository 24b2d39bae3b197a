"""``_fold_slices`` is exactly a left-to-right Python fold per slice.

The fused executor charges each memory op the sum of its slice of the
per-line latency array, and must get the value the per-op path gets
from ``total += latency`` line by line.  Latencies here are fractional
and of mixed magnitude, so any other association order (pairwise,
compensated, reversed) gives a different float; every comparison is
exact ``==``.
"""

import math

import numpy as np
import pytest

from repro.sim.processor import _fold_slices


def left_folds(lat, counts):
    out, pos = [], 0
    for k in counts:
        total = 0.0
        for x in lat[pos : pos + k].tolist():
            total += x
        out.append(total)
        pos += k
    return out


def latencies(n, seed=0):
    """Fractional per-line latencies spanning several magnitudes."""
    rng = np.random.default_rng(seed)
    return rng.random(n) * 10.0 ** rng.integers(-3, 4, size=n)


def check(counts, seed=0):
    lat = latencies(sum(counts), seed)
    got = _fold_slices(lat, counts)
    assert got == left_folds(lat, counts)
    assert len(got) == len(counts)
    return lat, got


CASES = {
    # One bit-length group, all slices the same width, back to back.
    "uniform": [16] * 40,
    # Every width of one bit-length group, 2^(b-1) .. 2^b - 1, shuffled.
    "spanning": [int(w) for w in np.random.default_rng(1).permutation(np.arange(32, 64))],
    # Equal widths that do not lie back to back.
    "uniform-apart": [24, 100, 24, 70, 24, 24, 90],
    # Empty and one-line slices between wider ones.
    "empty-and-single": [0, 1, 0, 0, 37, 1, 0, 5, 1, 1, 0],
    "all-empty": [0, 0, 0],
    "one-line": [1] * 9,
    "mixed": [3, 0, 17, 1, 200, 16, 31, 2, 0, 64, 63, 1, 129],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_python_left_fold(name):
    check(CASES[name])


@pytest.mark.parametrize("seed", range(5))
def test_random_widths_match_python_left_fold(seed):
    rng = np.random.default_rng(100 + seed)
    counts = rng.integers(0, 300, size=60).tolist()
    counts[rng.integers(0, 60)] = 0
    counts[rng.integers(0, 60)] = 1
    check(counts, seed)


def test_association_order_matters_for_these_latencies():
    """Guard against a vacuous pass: on this data another summation
    order gives a different float for some slice."""
    counts = CASES["spanning"]
    lat, got = check(counts)
    pos, differs = 0, 0
    for k, total in zip(counts, got):
        differs += math.fsum(lat[pos : pos + k].tolist()) != total
        pos += k
    assert differs > 0


def test_empty_slices_fold_to_zero():
    assert _fold_slices(np.empty(0), [0, 0]) == [0.0, 0.0]
