"""Generator framework: axes, parameter points, and task streams.

A :class:`Generator` describes one application's input space as a set
of :class:`Axis` ranges.  A *parameter point* is a plain
``{axis_name: float}`` mapping (always including the universal
``pages`` axis); the generator can sample points, mutate them, clamp
them back into range, and convert them into hashable
:class:`~repro.experiments.harness.SweepTask`\\ s whose cache key
includes both the axis values and the generator's version tag — so a
generator change can never be served stale cached results.

Determinism contract: everything here draws only from the
``random.Random`` instance handed in by the caller, and the produced
workloads draw only from NumPy generators seeded by the task seed.
The same ``(seed, params)`` therefore yields bit-identical datasets
across calls, processes, and pool workers (property-tested in
``tests/workloads/test_generator_properties.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.experiments.harness import SweepTask, speedup_task
from repro.sim.memory import DEFAULT_PAGE_BYTES


@dataclass(frozen=True)
class Axis:
    """One dimension of a generator's parameter space."""

    name: str
    lo: float
    hi: float
    default: float
    integer: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.lo <= self.default <= self.hi:
            raise ValueError(
                f"axis {self.name!r}: default {self.default} outside "
                f"[{self.lo}, {self.hi}]"
            )

    def clamp(self, value: float) -> float:
        v = min(self.hi, max(self.lo, float(value)))
        return float(round(v)) if self.integer else v

    def sample(self, rng: random.Random) -> float:
        return self.clamp(rng.uniform(self.lo, self.hi))

    def mutate(self, value: float, rng: random.Random) -> float:
        """A local perturbation: +-25% of the range, occasionally an edge."""
        roll = rng.random()
        if roll < 0.1:
            return self.clamp(self.lo)
        if roll < 0.2:
            return self.clamp(self.hi)
        span = (self.hi - self.lo) or 1.0
        return self.clamp(value + rng.uniform(-0.25, 0.25) * span)


#: The universal problem-size axis, shared by every generator.  Sizes
#: are in pages; the fuzzer runs small (64 KB) pages, so even ``hi``
#: simulates in well under a second.
PAGES_AXIS = Axis(
    "pages", 0.5, 6.0, 2.0, description="problem size in memory pages"
)


class Generator:
    """Base class: one application's parametric workload family.

    Subclasses set ``app_name`` (a :data:`repro.apps.registry.ALL_APPS`
    key), ``axes`` (the app-specific axes; ``pages`` is added
    automatically), ``model_tolerance`` (the documented relative
    divergence the analytic-model oracle allows, see
    ``docs/workloads.md``), and implement :meth:`observe`.

    Bump ``version`` whenever generated datasets change for the same
    ``(params, seed)`` — the tag is part of the sweep-cache key, so a
    bump invalidates exactly this generator's cached results.
    """

    app_name: str = ""
    version: int = 1
    axes: Tuple[Axis, ...] = ()
    #: Allowed |measured - model| / measured for the fuzz model oracle.
    model_tolerance: float = 0.10
    #: ``(axis, observable, direction)`` triples the monotonicity
    #: property suite checks: moving ``axis`` from low to high moves
    #: ``observe()[observable]`` in ``direction`` (+1 up, -1 down).
    monotone: Tuple[Tuple[str, str, int], ...] = ()

    # ------------------------------------------------------------------
    @property
    def tag(self) -> str:
        """Version tag recorded in task cache keys (``"database/v1"``)."""
        return f"{self.app_name}/v{self.version}"

    def all_axes(self) -> Tuple[Axis, ...]:
        return (PAGES_AXIS,) + tuple(self.axes)

    def axis(self, name: str) -> Axis:
        for ax in self.all_axes():
            if ax.name == name:
                return ax
        raise KeyError(f"{self.tag}: no axis {name!r}")

    # ------------------------------------------------------------------
    # Parameter points
    def default_params(self) -> Dict[str, float]:
        return {ax.name: ax.clamp(ax.default) for ax in self.all_axes()}

    def clamp(self, params: Mapping[str, float]) -> Dict[str, float]:
        """Project an arbitrary point into the valid parameter box.

        Unknown keys are dropped, missing axes filled with defaults —
        so a mutated or hand-written point is always runnable.
        """
        out = self.default_params()
        for ax in self.all_axes():
            if ax.name in params:
                out[ax.name] = ax.clamp(params[ax.name])
        return out

    def sample(self, rng: random.Random) -> Dict[str, float]:
        return {ax.name: ax.sample(rng) for ax in self.all_axes()}

    def mutate(
        self, params: Mapping[str, float], rng: random.Random
    ) -> Dict[str, float]:
        """Perturb 1-2 axes of ``params`` (the fuzzer's mutation step)."""
        out = self.clamp(params)
        axes = self.all_axes()
        for _ in range(rng.choice((1, 1, 2))):
            ax = axes[rng.randrange(len(axes))]
            out[ax.name] = ax.mutate(out[ax.name], rng)
        return out

    # ------------------------------------------------------------------
    # Tasks
    def split(
        self, params: Mapping[str, float]
    ) -> Tuple[float, Dict[str, float]]:
        """``(n_pages, workload_params)`` from one parameter point."""
        clamped = self.clamp(params)
        n_pages = clamped.pop("pages")
        return n_pages, clamped

    def task(
        self,
        params: Mapping[str, float],
        seed: int = 0,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> SweepTask:
        """A harness task for one parameter point (speedup mode)."""
        n_pages, wparams = self.split(params)
        return speedup_task(
            self.app_name,
            n_pages,
            page_bytes=page_bytes,
            seed=seed,
            params=wparams,
            generator=self.tag,
        )

    def tasks(
        self,
        seeds: Sequence[int],
        params: Optional[Mapping[str, float]] = None,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> Iterator[SweepTask]:
        """A deterministic seed-keyed task stream at one point."""
        point = self.clamp(params) if params is not None else self.default_params()
        for seed in seeds:
            yield self.task(point, seed=seed, page_bytes=page_bytes)

    # ------------------------------------------------------------------
    # Observables
    def observe(
        self,
        params: Mapping[str, float],
        seed: int = 0,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> Dict[str, float]:
        """Named statistics of the generated dataset at ``params``.

        Cheap (no simulation): computed straight from the data
        generators, so the monotonicity property suite can probe many
        points.  Keys are referenced by :attr:`monotone`.
        """
        raise NotImplementedError


#: Registry: generator name (== application name) -> singleton.
GENERATORS: Dict[str, Generator] = {}


def register(gen: Generator) -> Generator:
    """Add a generator to :data:`GENERATORS` (import-time hook)."""
    if not gen.app_name:
        raise ValueError("generator must set app_name")
    GENERATORS[gen.app_name] = gen
    return gen


def get_generator(name: str) -> Generator:
    try:
        return GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}"
        ) from None

