"""A footprint's Python type never changes what the cache does.

``repro.sim.ops`` hands the cache ``range`` objects (blocks), lists
(short gathers) and int64 arrays (strides, long gathers).
``Cache.access_lines`` walks a small ``range`` or list as it is and
``access_lines_batch`` expands a segment's ranges in one vectorised
pass; neither may change a decision, a statistic, the latency or the
events a tracer or checker sees.  Every test runs the same lines in
each form on a fresh hierarchy and compares everything observable.
"""

import numpy as np
import pytest

from repro.check import runtime as check_runtime
from repro.sim.bus import Bus
from repro.sim.cache import build_hierarchy
from repro.sim.config import BusConfig, CacheConfig, DRAMConfig
from repro.sim.dram import DRAM
from repro.trace import events as trace_events

#: A small geometry, so a few hundred lines evict and write back.
L1 = CacheConfig(size_bytes=2048, assoc=2, hit_ns=1.0)
L2 = CacheConfig(size_bytes=8192, assoc=4, hit_ns=6.0)

#: Lines touched before each measured call: a mix of reads and writes
#: that leaves dirty lines to evict.
WARM = [(list(range(s, s + 40)), s % 3 == 0) for s in range(0, 400, 37)]

FORMS = {
    "range": lambda r: r,
    "list": lambda r: list(r),
    "ndarray": lambda r: np.arange(r.start, r.stop, dtype=np.int64),
}


def measured(n):
    """The ``n`` lines each test accesses after the warm-up."""
    return range(350, 350 + n)


def hierarchy():
    bus = Bus(BusConfig())
    dram = DRAM(DRAMConfig(), bus)
    l1, _, l2 = build_hierarchy(L1, L2, dram)
    for lines, write in WARM:
        l1.access_lines(lines, write)
    return l1, l2, dram, bus


def state(l1, l2, dram, bus):
    out = {"dram": (dram.reads, dram.writes), "bus": (bus.cycles, bus.transfers)}
    for c in (l1, l2):
        out[c.name] = (
            c.stats.hits,
            c.stats.misses,
            c.stats.writebacks,
            [c.lru_contents(s) for s in range(c._n_sets)],
        )
    return out


class _Recorder:
    """Counting checker whose stale-sync hook records what it is given."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = check_runtime.Checker.on_cache_batch

        def on_cache_batch(ck, cache, addrs, write):
            self.calls.append((cache.name, type(addrs).__name__, list(addrs), write))
            return original(ck, cache, addrs, write)

        monkeypatch.setattr(check_runtime.Checker, "on_cache_batch", on_cache_batch)


def cache_events(tracer):
    return [e for e in tracer.events() if e.track.startswith("cache.")]


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("n", [1, 7, 96, 97, 300])
class TestAccessLinesForms:
    """``n`` at or below ``_SMALL_BATCH`` (96) takes the dict regime,
    above it the matrix regime."""

    def run(self, form, n, write):
        h = hierarchy()
        total = h[0].access_lines(FORMS[form](measured(n)), write)
        return total, state(*h)

    def test_same_total_stats_and_state(self, n, write):
        want = self.run("ndarray", n, write)
        for form in ("range", "list"):
            assert self.run(form, n, write) == want, form

    def test_same_under_tracer_and_checker(self, n, write, monkeypatch):
        seen = {}
        for form, make in FORMS.items():
            h = hierarchy()
            rec = _Recorder(monkeypatch)
            with trace_events.tracing() as tr, check_runtime.checking(strict=False):
                total = h[0].access_lines(make(measured(n)), write)
            monkeypatch.undo()
            # The checker gets the footprint itself, unconverted.
            assert [kind for _, kind, _, _ in rec.calls] == [
                type(make(range(0))).__name__
            ]
            calls = [(name, lines, w) for name, _, lines, w in rec.calls]
            seen[form] = (total, state(*h), cache_events(tr), calls)
        assert seen["range"] == seen["ndarray"]
        assert seen["list"] == seen["ndarray"]
        assert seen["ndarray"][2], "a live tracer gets the batch events"


SEGMENT = [
    (range(20, 25), False),
    (range(400, 401), True),
    (range(100, 108), False),
    (range(20, 140), True),
    (range(0, 0), False),
    (range(600, 603), True),
]


def segment_forms():
    """All-range, mixed (every other op converted) and all-array."""
    ranges = [r for r, _ in SEGMENT]
    arrays = [FORMS["ndarray"](r) for r in ranges]
    mixed = [
        FORMS["list"](r) if i % 3 == 1 else FORMS["ndarray"](r) if i % 3 == 2 else r
        for i, r in enumerate(ranges)
    ]
    return {"ranges": ranges, "mixed": mixed, "arrays": arrays}


def test_access_lines_batch_same_per_line_latencies():
    writes = [w for _, w in SEGMENT]
    got = {}
    for name, parts in segment_forms().items():
        h = hierarchy()
        lat = h[0].access_lines_batch(parts, writes, [len(p) for p in parts])
        got[name] = (lat.tolist(), state(*h))
    assert len(got["arrays"][0]) == sum(len(r) for r, _ in SEGMENT)
    assert got["ranges"] == got["arrays"]
    assert got["mixed"] == got["arrays"]


def test_access_lines_batch_expands_non_unit_step_ranges():
    parts = [range(10, 40, 3), range(5, 9), range(90, 60, -7)]
    h = hierarchy()
    counts = [len(p) for p in parts]
    lat = h[0].access_lines_batch(parts, [False, True, False], counts)
    ref = hierarchy()
    want = ref[0].access_lines_batch(
        [np.array(list(p), dtype=np.int64) for p in parts], [False, True, False], counts
    )
    assert lat.tolist() == want.tolist()
    assert state(*h) == state(*ref)
