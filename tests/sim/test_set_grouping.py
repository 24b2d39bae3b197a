"""``_group_by_set`` is a stable argsort of set indices and its gather.

The cache groups each wide batch by set before resolving it.  Narrow
batches take a stable argsort; wide ones sort packed ``(set, position)``
keys, ``uint32`` when they fit and int64 otherwise.  Every path must
return exactly ``np.argsort(set_idx, kind="stable")`` and
``set_idx[order]``.  The grid below straddles the batch-size crossover
and the 32-bit key boundary; the property draws random set arrays on
both sides of the crossover.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import cache as cache_mod
from repro.sim.cache import _PACKED_SORT_MIN_OPS, _group_by_set, _group_sorted
from tests.sim.test_cache_vectorized import _examples

SIZES = [1, 2, 4095, 4096, 4097, 1 << 17, (1 << 17) + 1, 1 << 18]
SET_COUNTS = [1, 768, 1024, 8192, 32768, 1 << 16, 1 << 17]


def patterns(n, n_sets):
    """Set-index streams of the shapes line footprints produce."""
    i = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(n * 31 + n_sets)
    return {
        "ascending": i * n_sets // n,
        "wrapped": (i + n_sets // 2 + 1) % n_sets,
        "stride": (i * 5) % n_sets,
        "descending": (n_sets - 1) - i * n_sets // n,
        "random": rng.integers(0, n_sets, size=n, dtype=np.int64),
        "single": np.full(n, n_sets - 1, dtype=np.int64),
    }


def path_of(n, n_sets):
    if n < _PACKED_SORT_MIN_OPS:
        return "argsort"
    bits = (n_sets - 1).bit_length() + (n - 1).bit_length()
    return "uint32" if bits <= 32 else "int64"


def check(set_idx, n_sets, group=_group_by_set):
    want = np.argsort(set_idx, kind="stable")
    order, s_sorted = group(set_idx, n_sets)
    assert order.dtype == np.int64
    assert np.array_equal(order, want)
    assert np.array_equal(s_sorted, set_idx[want])
    start, counts, uniq = _group_sorted(s_sorted)
    assert uniq.dtype == np.int64
    assert np.array_equal(uniq, np.unique(set_idx))
    assert np.array_equal(counts, np.bincount(set_idx)[uniq])
    assert np.array_equal(start, np.concatenate(([0], np.cumsum(counts)[:-1])))
    return s_sorted


@pytest.mark.parametrize("n_sets", SET_COUNTS)
@pytest.mark.parametrize("n", SIZES)
def test_matches_stable_argsort_and_gather(n, n_sets, monkeypatch):
    argsorts = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        argsorts.append(1)
        return real_argsort(*args, **kwargs)

    def spied_group(set_idx, n_sets):
        with monkeypatch.context() as m:
            m.setattr(cache_mod.np, "argsort", counting_argsort)
            return _group_by_set(set_idx, n_sets)

    path = path_of(n, n_sets)
    for name, set_idx in patterns(n, n_sets).items():
        argsorts.clear()
        s_sorted = check(set_idx, n_sets, spied_group)
        # The path taken shows: only the narrow one argsorts, and only
        # 32-bit packed keys come back as uint32 sorted sets.
        assert bool(argsorts) == (path == "argsort"), name
        assert (s_sorted.dtype == np.uint32) == (path == "uint32"), name


def test_grid_covers_every_path_and_both_boundaries():
    paths = {path_of(n, s) for n in SIZES for s in SET_COUNTS}
    assert paths == {"argsort", "uint32", "int64"}
    assert _PACKED_SORT_MIN_OPS - 1 in SIZES and _PACKED_SORT_MIN_OPS in SIZES
    bits = {
        (s - 1).bit_length() + (n - 1).bit_length()
        for n in SIZES
        for s in SET_COUNTS
        if n >= _PACKED_SORT_MIN_OPS
    }
    assert {32, 33} <= bits


@given(
    n=st.integers(min_value=1, max_value=3 * _PACKED_SORT_MIN_OPS),
    n_sets=st.integers(min_value=1, max_value=1 << 17),
    spread=st.integers(min_value=1, max_value=1 << 17),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=_examples(100), deadline=None)
def test_random_set_arrays(n, n_sets, spread, seed):
    """Sets drawn from the first ``spread`` of ``n_sets`` sets, so
    batches range from a few crowded sets to nearly all distinct."""
    rng = np.random.default_rng(seed)
    set_idx = rng.integers(0, min(spread, n_sets), size=n, dtype=np.int64)
    check(set_idx, n_sets)
