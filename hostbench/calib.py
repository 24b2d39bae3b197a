"""Frozen host-speed calibration kernel and the normalisation it feeds.

The host this benchmark was built on changes speed by tens of percent
over a few seconds (it flips between a fast and a slow state), so raw
timings of identical code do not repeat.  Every gated timing is
therefore bracketed: the fixed kernel below runs right before and
right after each timed unit (one sweep point, one fresh-interpreter
set-up, one serve burst), and the unit's time is divided by the mean
slowdown its two bracketing calibrations measured.  Normalised values
stay in seconds at the speed of the reference host.

The slow state does not slow all code alike: interpreter-bound Python
slows more than long NumPy array passes.  The kernel therefore has
three parts, timed separately, and each workload is normalised by the
mix of parts that resembles its own code:

* ``python`` -- an LRU set walk over dicts and lists, like the
  simulator's scalar and dict regimes, plus small-array NumPy calls
  like its short batches.  RADram dispatch, the instrumented scalar
  executor and interpreter set-up are normalised by it.
* ``vector`` -- sorts and scans over arrays of 16k elements, like the
  vectorised cache engine streaming a large working set.  The
  conventional sweep is normalised by it.
* ``blend`` -- all three parts.  Serve-mixed (its bursts, and the
  in-process reference runs of workload builds plus short simulations
  on both systems that time its ``sweep_s``) is normalised by it: each
  part's own noise averages out.  Over three repeat recordings of the
  same requests, it cut the run-to-run range of the reference runs'
  median-of-five sum from 2.5-4.2% (``python``) to 0.9-1.2%.

Over repeat runs on the reference host, normalising the RADram sweep
by ``python`` cut its run-to-run spread (IQR over median) from 32% raw
to 2%, and normalising the conventional sweep by ``vector`` cut its
spread from 5% to 1%; normalising by the other mix did worse.

The kernel never imports the program, so a change to the program
cannot move it.  Editing the kernel, ``NOMINAL_S`` or ``MIXES``
rescales every metric the benchmark reports: that is a benchmark
change, and the baseline must be measured again after it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Tuple

import numpy as np

Calibration = Tuple[float, float, float]

#: Wall seconds of each part on the reference host (2 vCPUs, Python
#: 3.11, NumPy 2.4), medians over many runs.
NOMINAL_S: Calibration = (0.00220, 0.00220, 0.00570)

#: Weight of each part (python walk, small arrays, large arrays).
MIXES: Dict[str, Calibration] = {
    "python": (0.6, 0.4, 0.0),
    "vector": (0.0, 0.0, 1.0),
    "blend": (0.4, 0.3, 0.3),
}

_SMALL = np.arange(384, dtype=np.int64)
_LARGE = (np.arange(1 << 14, dtype=np.int64) * 2654435761) % (1 << 20)


def _python_part() -> int:
    sets = [OrderedDict() for _ in range(32)]
    x = 12345
    hits = 0
    for _ in range(2600):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 8) % 1536
        od = sets[line & 31]
        tag = line >> 5
        if tag in od:
            od.move_to_end(tag)
            hits += 1
        else:
            if len(od) >= 8:
                od.popitem(last=False)
            od[tag] = True
    return hits


def _small_array_part() -> float:
    acc = 0.0
    for k in range(24):
        b = (_SMALL * (k + 3)) % 509
        u = np.unique(b)
        pos = np.searchsorted(u, b)
        acc += float(np.cumsum(pos.astype(np.float64))[-1])
    return acc


def _large_array_part() -> int:
    acc = 0
    for k in range(2):
        s = np.sort(_LARGE ^ k)
        u = np.unique(s >> 6)
        acc += int(np.cumsum(u)[-1])
    return acc


_PARTS = (_python_part, _small_array_part, _large_array_part)


def calibrate(mix: str) -> Calibration:
    """Wall seconds of each kernel part ``mix`` uses (0.0 for the rest)."""
    times = []
    for part, weight in zip(_PARTS, MIXES[mix]):
        t0 = time.perf_counter()
        if weight:
            part()
        times.append(time.perf_counter() - t0 if weight else 0.0)
    return tuple(times)  # type: ignore[return-value]


def slowdown(calibration: Calibration, mix: str) -> float:
    """How much slower than the reference host this calibration ran."""
    return sum(
        w * t / nominal
        for w, t, nominal in zip(MIXES[mix], calibration, NOMINAL_S)
    )


def normalise(
    raw_s: float, before: Calibration, after: Calibration, mix: str
) -> float:
    """``raw_s`` rescaled to the reference host's speed."""
    return raw_s * 2.0 / (slowdown(before, mix) + slowdown(after, mix))


class Bracketed:
    """Times units back to back, sharing each calibration between the
    unit before it and the unit after it (C U C U C ...)."""

    def __init__(self, mix: str) -> None:
        self.mix = mix
        self.calibrations = [calibrate(mix)]

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns ``(result, raw_s, normalised_s)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        before = self.calibrations[-1]
        after = calibrate(self.mix)
        self.calibrations.append(after)
        return result, raw, normalise(raw, before, after, self.mix)

    def recalibrate(self) -> None:
        """Start a fresh bracket after untimed work (checks, set-up)."""
        self.calibrations.append(calibrate(self.mix))

    def median_ms(self) -> float:
        """Median calibration time (the mix's weighted part sum), in ms."""
        values = sorted(
            sum(w * t for w, t in zip(MIXES[self.mix], c)) * 1e3
            for c in self.calibrations
        )
        return values[len(values) // 2]
