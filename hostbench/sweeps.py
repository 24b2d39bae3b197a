"""The three sweep workloads: fig3-conventional, fig3-radram, instrumented.

A *point* is one ``(system, app, pages)`` simulation on a fresh
``Machine``, so caches start empty.  Each round runs every point once,
in an order shuffled by the seed; the benchmark repeats rounds and
keeps each point's median.  Every result is checked against the
digests recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.registry import FIG3_APPS, get_app
from repro.experiments import harness
from repro.check import runtime as check_runtime
from repro.experiments.fig3_speedup import DEFAULT_SWEEPS, SMOKE_SWEEP
from repro.experiments.runner import RunResult, run_conventional, run_radram
from repro.faults.models import FaultConfig
from repro.radram.config import RADramConfig
from repro.trace import events as trace_events

import calib

Point = Tuple[str, str, float]  # (system, app, pages)

#: dynamic-prog's 128- and 256-page RADram points are one LCS
#: wavefront each and took 77% of the RADram sweep's host time; the
#: cut keeps the sweep from measuring that single kernel.
DYNPROG_MAX_PAGES = 64

#: The instrumented sweep stops at 8 pages: the conventional 32-page
#: points of the linear apps repeat the 8-page simulation (they are
#: extrapolated), and RADram dynamic-prog at 32 pages took a third of
#: the instrumented round.  Conventional median-kernel and dynamic-prog
#: stop at 2 pages: at 8 pages each emits over the tracer's one million
#: event ring, so events would be dropped, and together they took 40%
#: of the round.
INSTRUMENTED_MAX_PAGES = 8
INSTRUMENTED_SMALL_APPS = ("median-kernel", "dynamic-prog")
INSTRUMENTED_SMALL_PAGES = 2

#: Applications whose timing-mode inputs depend on the seed (sparse
#: matrix structure); every other point simulates seed-free inputs.
SEEDED_APPS = ("matrix-simplex", "matrix-boeing")

#: Seeds map onto this many input seeds, all of which have digests.
INPUT_SEEDS = 32

#: Rounds every sweep point runs before the time budget may stop it.
MIN_ROUNDS = 3

#: Result-cache loads timed right after each simulated point: a repeat
#: request for the point, served by the harness cache.
REPEAT_LOADS = 3

DIGESTS_PATH = Path(__file__).with_name("digests.json")

SYSTEMS = {"conventional": run_conventional, "radram": run_radram}

#: Calibration mix per workload (see calib.py).
MIX = {"fig3-conventional": "vector", "fig3-radram": "python", "instrumented": "python"}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def fig3_points(system: str) -> List[Point]:
    return [
        (system, app, float(pages))
        for app in FIG3_APPS
        for pages in DEFAULT_SWEEPS[app]
        if not (app == "dynamic-prog" and pages > DYNPROG_MAX_PAGES)
    ]


def instrumented_points() -> List[Point]:
    points = []
    for system in SYSTEMS:
        for app in FIG3_APPS:
            limit = INSTRUMENTED_MAX_PAGES
            if system == "conventional" and app in INSTRUMENTED_SMALL_APPS:
                limit = INSTRUMENTED_SMALL_PAGES
            points += [(system, app, float(p)) for p in SMOKE_SWEEP if p <= limit]
    return points


def workload_points(workload: str) -> List[Point]:
    if workload == "fig3-conventional":
        return fig3_points("conventional")
    if workload == "fig3-radram":
        return fig3_points("radram")
    return instrumented_points()


def build_inputs(workload: str, seed: int) -> List[Point]:
    """The workload's points with the apps resolved (set-up work)."""
    points = workload_points(workload)
    for _, app, _ in points:
        get_app(app)
    return points


def point_key(point: Point, seed: int) -> str:
    system, app, pages = point
    key = f"{system}|{app}|{pages:g}"
    if app in SEEDED_APPS:
        key += f"|{input_seed(seed)}"
    return key


def result_digest(result: RunResult) -> str:
    blob = json.dumps(
        [result.stats.as_dict(), result.total_ns, list(result.page_busy_ns)],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def simulate(point: Point, seed: int) -> RunResult:
    system, app, pages = point
    return SYSTEMS[system](get_app(app), pages, seed=input_seed(seed))


_ZERO_FAULTS = RADramConfig.reference().with_faults(FaultConfig())


class Instrumented:
    """Runs points under a live tracer, a counting checker and (RADram)
    a zero-rate fault config: together they force the scalar executor."""

    def __init__(self) -> None:
        self.events = 0
        self.dropped = 0
        self.violations = 0

    def __call__(self, point: Point, seed: int) -> RunResult:
        system, app, pages = point
        kwargs = {"radram_config": _ZERO_FAULTS} if system == "radram" else {}
        with trace_events.tracing() as tracer, check_runtime.checking(
            strict=False
        ) as checker:
            result = SYSTEMS[system](
                get_app(app), pages, seed=input_seed(seed), **kwargs
            )
        self.events += len(tracer)
        self.dropped += tracer.dropped
        self.violations += checker.total
        if checker.total:
            raise RuntimeError(f"{checker.total} checker violation(s)")
        return result


class SweepRun:
    """Bracketed, per-point-median timing of one sweep workload."""

    def __init__(
        self,
        seed: int,
        points: List[Point],
        instrumented: bool = False,
        repeat_dir: Optional[Path] = None,
    ) -> None:
        self.seed = seed
        self.points = points
        self.digests = load_digests()
        self.runner: Callable[[Point, int], RunResult] = simulate
        self.instrumented: Optional[Instrumented] = None
        if instrumented:
            self.instrumented = Instrumented()
            self.runner = self.instrumented
        self.raw: Dict[Point, List[float]] = {p: [] for p in points}
        self.norm: Dict[Point, List[float]] = {p: [] for p in points}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.results: Dict[Point, RunResult] = {}
        #: One result cache per system: a point's task key does not
        #: name the system.
        self.repeat_caches = (
            {s: harness.ResultCache(repeat_dir / s) for s in SYSTEMS}
            if repeat_dir is not None
            else None
        )
        self.repeat: Dict[Point, List[float]] = {p: [] for p in points}
        self._cached: Dict[Point, tuple] = {}
        self._rng = random.Random(seed)

    def check(self, point: Point, result: RunResult) -> bool:
        want = self.digests.get(point_key(point, self.seed))
        return want is not None and result_digest(result) == want

    def run_round(self, bracket: calib.Bracketed) -> None:
        order = list(self.points)
        self._rng.shuffle(order)
        for point in order:
            self.attempted += 1
            try:
                result, raw, norm = bracket.time(self.runner, point, self.seed)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.failed += 1
                self.errors.append(f"{point}: {type(exc).__name__}: {exc}")
                bracket.recalibrate()
                continue
            if not self.check(point, result):
                self.failed += 1
                self.errors.append(f"{point}: digest mismatch")
            self.results[point] = result
            self.raw[point].append(raw)
            self.norm[point].append(norm)
            if self.repeat_caches is not None:
                self.time_repeats(point, result, norm / raw if raw else 1.0)

    def time_repeats(self, point: Point, result: RunResult, scale: float) -> None:
        """Serve the point again from the result cache, normalised by
        the point's own bracket."""
        cache = self.repeat_caches[point[0]]
        cached = self._cached.get(point)
        if cached is None:
            system, app, pages = point
            task = harness.speedup_task(app, pages, seed=input_seed(self.seed))
            values = {f"{system}_ns": result.total_ns, "stall_fraction": result.stall_fraction}
            cache.store(harness.TaskResult(task=task, values=values, wall_s=0.0))
            cached = self._cached[point] = (task, values)
        task, values = cached
        for _ in range(REPEAT_LOADS):
            self.attempted += 1
            t0 = time.perf_counter()
            hit = cache.load(task)
            seconds = time.perf_counter() - t0
            if hit is None or hit.values != values:
                self.failed += 1
                self.errors.append(f"{point}: result-cache repeat differs")
            self.repeat[point].append(seconds * scale)

    def point_medians(self, values: Dict[Point, List[float]]) -> List[float]:
        return [statistics.median(v) for v in values.values() if v]

    def app_shares(self) -> Dict[str, float]:
        """Each application's share of ``sweep_s``."""
        total = self.sweep_s()
        shares: Dict[str, float] = {}
        for (_, app, _), v in self.norm.items():
            if v:
                shares[app] = shares.get(app, 0.0) + statistics.median(v) / total
        return shares

    def sweep_s(self) -> float:
        return sum(self.point_medians(self.norm))

    def raw_sweep_s(self) -> float:
        return sum(self.point_medians(self.raw))
