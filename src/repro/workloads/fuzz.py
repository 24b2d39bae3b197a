"""Seeded perf/correctness fuzzing: ``python -m repro fuzz``.

The fuzzer is a time-boxed mutation loop over generator parameter
points.  Each candidate case runs on each memory system with the
runtime sanitizer installed, and again under the execution regimes of
the ``regimes`` oracle; it is judged by four oracles:

``checker``
    The :mod:`repro.check` runtime sanitizer in counting mode — any
    coherence/race/protocol violation on either system fails the case.

``equivalence``
    ``app.check_equivalence`` — the conventional and Active-Page
    versions must compute identical results.

``model``
    Measured RADram time vs the Figure 7 analytic model evaluated on
    the run's *own* phase statistics:
    ``|measured - partitioned_time(T_A, T_P, T_C, K)| / measured``
    must stay within the generator's documented ``model_tolerance``
    (scaled by ``--tolerance-scale``).

``regimes``
    Bit-identity between execution regimes.  Each system's plain run
    must equal, on ``MachineStats.as_dict()``, ``phase_ns``,
    ``total_ns`` and the final memory image, its per-op reference run
    (:mod:`repro.sim.processor_reference`), its traced run, its
    checked run (the ``checker`` oracle's), and on RADram its run with
    a zero-rate :class:`~repro.faults.models.FaultConfig`.

A failing case is *shrunk* — axes are greedily moved toward their
defaults (and the problem size toward its minimum) while the failure
reproduces — and written as a replayable JSON case file.

Everything is deterministic in the fuzz seed: candidate parameters
come from one ``random.Random(seed)``, case seeds are drawn from it,
and the simulations are seed-keyed — so ``repro fuzz --seed N``
produces the same candidate sequence on every run.
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import PHASE_ACTIVATION, PHASE_POST
from repro.apps.registry import FUZZ_APPS, get_app
from repro.check.runtime import CheckError, checking
from repro.core.model import partitioned_time
from repro.experiments.runner import RunResult, run_conventional, run_radram
from repro.faults.models import FaultConfig
from repro.radram.config import RADramConfig
from repro.sim.processor_reference import per_op_reference
from repro.trace.events import tracing
from repro.workloads.base import Generator, get_generator

#: Fuzzing runs small pages so a candidate simulates in ~0.1 s: the
#: whole axis box (up to 6 pages) stays cheap, while both systems still
#: execute real multi-page schedules.
FUZZ_PAGE_BYTES = 64 * 1024

#: Case-file schema version.
CASE_SCHEMA = 1

ORACLE_CHECKER = "checker"
ORACLE_EQUIVALENCE = "equivalence"
ORACLE_MODEL = "model"
ORACLE_REGIMES = "regimes"

SYSTEMS = ("conventional", "radram")


@dataclass(frozen=True)
class FuzzCase:
    """One replayable fuzz candidate: a generator point plus seeds."""

    generator: str
    params: Mapping[str, float]
    seed: int
    page_bytes: int = FUZZ_PAGE_BYTES

    def to_dict(self) -> Dict[str, object]:
        return {
            "generator": self.generator,
            "params": dict(self.params),
            "seed": self.seed,
            "page_bytes": self.page_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FuzzCase":
        return cls(
            generator=str(payload["generator"]),
            params={str(k): float(v) for k, v in payload["params"].items()},
            seed=int(payload["seed"]),
            page_bytes=int(payload.get("page_bytes", FUZZ_PAGE_BYTES)),
        )


@dataclass
class OracleResult:
    """Verdict of one oracle on one case."""

    oracle: str
    ok: bool
    detail: str = ""
    metric: float = 0.0


@dataclass
class Finding:
    """One confirmed failure: the original case and its shrunk form."""

    case: FuzzCase
    failures: List[OracleResult]
    shrunk: FuzzCase
    shrink_evals: int = 0
    path: Optional[str] = None  # written case file, when out_dir given


@dataclass
class FuzzReport:
    """Outcome of one ``run_fuzz`` invocation."""

    seed: int
    cases_run: int = 0
    elapsed_s: float = 0.0
    findings: List[Finding] = field(default_factory=list)
    #: every candidate in execution order (determinism introspection).
    candidates: List[FuzzCase] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"fuzz: seed={self.seed} cases={self.cases_run} "
            f"elapsed={self.elapsed_s:.1f}s findings={len(self.findings)}"
        ]
        for f in self.findings:
            oracles = ", ".join(o.oracle for o in f.failures)
            lines.append(
                f"  FAIL {f.case.generator} [{oracles}] "
                f"shrunk->{_fmt_params(f.shrunk.params)} seed={f.shrunk.seed}"
            )
            for o in f.failures:
                lines.append(f"    {o.oracle}: {o.detail}")
            if f.path:
                lines.append(f"    case file: {f.path}")
        lines.append("fuzz: " + ("CLEAN" if self.clean else "FAILURES FOUND"))
        return "\n".join(lines)


def _fmt_params(params: Mapping[str, float]) -> str:
    return "{" + ", ".join(f"{k}={v:g}" for k, v in sorted(params.items())) + "}"


# ----------------------------------------------------------------------
# Oracles


def _simulate(
    system: str, app, case: FuzzCase, n_pages: float, wparams, **kwargs
) -> RunResult:
    """One functional run of ``case`` on ``system``."""
    if system == "conventional":
        return run_conventional(
            app,
            n_pages,
            page_bytes=case.page_bytes,
            functional=True,
            seed=case.seed,
            cap_pages=None,
            params=wparams,
        )
    return run_radram(
        app,
        n_pages,
        page_bytes=case.page_bytes,
        functional=True,
        seed=case.seed,
        params=wparams,
        **kwargs,
    )


def _fingerprint(result: RunResult) -> tuple:
    """What the regimes must agree on, bit for bit: the run's stats and
    time, per-level cache, DRAM and bus counts, and memory image."""
    memory = result.workload.memory
    image = (
        {}
        if memory is None
        else {b: r.buffer.tobytes() for b, r in memory._regions.items()}
    )
    return (
        result.stats.as_dict(),
        dict(result.stats.phase_ns),
        result.total_ns,
        result.machine_counts,
        image,
    )


def _regimes_oracle(
    app, case: FuzzCase, n_pages: float, wparams, checked: Dict[str, RunResult]
) -> OracleResult:
    """Plain runs against the reference, traced, checked and zero-rate
    faulted runs of the same case."""
    zero_faults = RADramConfig.reference().with_faults(FaultConfig())
    mismatches: List[str] = []
    for system in SYSTEMS:
        run = functools.partial(_simulate, system, app, case, n_pages, wparams)
        plain = _fingerprint(run())
        with per_op_reference():
            variants = {"per-op reference": _fingerprint(run())}
        with tracing():
            variants["traced"] = _fingerprint(run())
        variants["checked"] = _fingerprint(checked[system])
        if system == "radram":
            variants["zero-rate faults"] = _fingerprint(
                run(radram_config=zero_faults)
            )
        mismatches += [
            f"{system}: {name} run differs"
            for name, fp in variants.items()
            if fp != plain
        ]
    return OracleResult(
        ORACLE_REGIMES,
        ok=not mismatches,
        detail="; ".join(mismatches) or "bit-identical",
        metric=float(len(mismatches)),
    )


def run_case(
    case: FuzzCase, tolerance_scale: float = 1.0
) -> List[OracleResult]:
    """Run one candidate under all four oracles; returns all verdicts.

    One functional checked run per system suffices for three of them:
    the op streams do not depend on ``functional``, so the same pair
    of simulations yields sanitizer counts, results for the
    equivalence check, and the timing statistics the model oracle
    consumes.  The regimes oracle re-runs each system per regime.
    """
    gen = get_generator(case.generator)
    n_pages, wparams = gen.split(case.params)
    app = get_app(gen.app_name)

    checker_fails: List[str] = []
    strict_error: Optional[str] = None
    checked: Dict[str, RunResult] = {}
    for system in SYSTEMS:
        with checking(strict=False, app=f"{gen.app_name}/{system}") as ck:
            try:
                checked[system] = _simulate(system, app, case, n_pages, wparams)
            except CheckError as exc:  # pragma: no cover - strict only
                strict_error = str(exc)
        if sum(ck.counts.values()):
            checker_fails.append(f"{system}: {dict(ck.counts)}")
    if strict_error is not None:
        checker_fails.append(f"aborted: {strict_error}")
    conv = checked.get("conventional")
    rad = checked.get("radram")

    results = [
        OracleResult(
            ORACLE_CHECKER,
            ok=not checker_fails,
            detail="; ".join(checker_fails) or "clean",
            metric=float(len(checker_fails)),
        )
    ]

    if conv is None or rad is None:
        results.append(
            OracleResult(
                ORACLE_EQUIVALENCE, ok=False, detail="run aborted (strict)"
            )
        )
        results.append(
            OracleResult(ORACLE_MODEL, ok=True, detail="run aborted (skipped)")
        )
        results.append(
            OracleResult(ORACLE_REGIMES, ok=True, detail="run aborted (skipped)")
        )
        return results

    results.append(_regimes_oracle(app, case, n_pages, wparams, checked))

    try:
        app.check_equivalence(conv.workload, rad.workload)
        results.append(OracleResult(ORACLE_EQUIVALENCE, ok=True, detail="equal"))
    except AssertionError as exc:
        results.append(
            OracleResult(ORACLE_EQUIVALENCE, ok=False, detail=str(exc))
        )

    measured = rad.total_ns
    k = rad.stats.activations
    if k <= 0 or measured <= 0:
        results.append(
            OracleResult(
                ORACLE_MODEL, ok=True, detail="no activations (skipped)"
            )
        )
        return results
    t_a = rad.stats.phase_mean_ns(PHASE_ACTIVATION)
    t_p = rad.stats.phase_mean_ns(PHASE_POST, exclude_wait=True)
    if len(rad.page_busy_ns) == k:
        # One activation per page: feed the model the data-dependent
        # per-page T_C vector (partial last pages and skewed rows stop
        # looking like divergence, so the tolerance can stay tight).
        t_c = np.array(rad.page_busy_ns)
    else:
        t_c = rad.mean_page_busy_ns
    predicted = partitioned_time(t_a, t_p, t_c, k)
    divergence = abs(measured - predicted) / measured
    tolerance = gen.model_tolerance * tolerance_scale
    results.append(
        OracleResult(
            ORACLE_MODEL,
            ok=divergence <= tolerance,
            detail=(
                f"divergence {divergence:.3f} vs tolerance {tolerance:.3f} "
                f"(measured {measured:.0f}ns, model {predicted:.0f}ns, K={k})"
            ),
            metric=divergence,
        )
    )
    return results


def case_failures(
    case: FuzzCase, tolerance_scale: float = 1.0
) -> List[OracleResult]:
    """The failing oracle verdicts for ``case`` (empty = clean)."""
    return [o for o in run_case(case, tolerance_scale) if not o.ok]


# ----------------------------------------------------------------------
# Shrinking


def shrink_case(
    case: FuzzCase,
    tolerance_scale: float = 1.0,
    max_evals: int = 48,
) -> tuple:
    """Greedy deterministic shrink toward the minimal failing point.

    Axis values move toward their defaults (the known-good operating
    point) and the problem size toward its minimum, accepting a move
    only while the case still fails; repeated to a fixpoint within the
    evaluation budget.  Returns ``(shrunk_case, evaluations_used)``.
    """
    gen = get_generator(case.generator)
    current = gen.clamp(case.params)
    evals = 0

    def fails(params: Mapping[str, float]) -> bool:
        nonlocal evals
        evals += 1
        return bool(case_failures(replace(case, params=dict(params)), tolerance_scale))

    changed = True
    while changed and evals < max_evals:
        changed = False
        for ax in gen.all_axes():
            target = ax.lo if ax.name == "pages" else ax.clamp(ax.default)
            value = current[ax.name]
            if value == target:
                continue
            for candidate in (target, ax.clamp((value + target) / 2.0)):
                if candidate == value or evals >= max_evals:
                    continue
                trial = dict(current)
                trial[ax.name] = candidate
                if fails(trial):
                    current = trial
                    changed = True
                    break
    return replace(case, params=current), evals


# ----------------------------------------------------------------------
# The fuzz loop


def _write_case_file(
    out_dir: Path,
    index: int,
    finding: Finding,
    fuzz_seed: int,
    tolerance_scale: float,
) -> str:
    gen = get_generator(finding.case.generator)
    payload = {
        "schema": CASE_SCHEMA,
        "tag": gen.tag,
        "case": finding.shrunk.to_dict(),
        "original": finding.case.to_dict(),
        "failures": [
            {"oracle": o.oracle, "detail": o.detail, "metric": o.metric}
            for o in finding.failures
        ],
        "fuzz_seed": fuzz_seed,
        "tolerance_scale": tolerance_scale,
        "shrink_evals": finding.shrink_evals,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"case-{index:03d}-{finding.case.generator}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1))
    return str(path)


#: Corpus bound per generator (passing points kept as mutation bases).
_CORPUS_CAP = 32


def run_fuzz(
    seed: int = 0,
    time_box_s: float = 60.0,
    max_cases: Optional[int] = None,
    apps: Optional[Sequence[str]] = None,
    tolerance_scale: float = 1.0,
    out_dir: Optional[str] = None,
    page_bytes: int = FUZZ_PAGE_BYTES,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """The seeded, time-boxed fuzz loop.

    Generators round-robin (coverage over luck); each candidate is
    either a fresh uniform sample or a mutation of a previously-passing
    corpus point.  The loop stops at ``time_box_s`` seconds or
    ``max_cases`` candidates, whichever comes first — with a generous
    time box the candidate sequence is a pure function of ``seed``.
    """
    rng = random.Random(seed)
    gens: List[Generator] = [get_generator(a) for a in (apps or FUZZ_APPS)]
    corpus: Dict[str, List[Dict[str, float]]] = {
        g.app_name: [g.default_params()] for g in gens
    }
    report = FuzzReport(seed=seed)
    out_path = Path(out_dir) if out_dir else None
    start = time.monotonic()

    while True:
        if max_cases is not None and report.cases_run >= max_cases:
            break
        if time.monotonic() - start >= time_box_s:
            break
        gen = gens[report.cases_run % len(gens)]
        pool = corpus[gen.app_name]
        if rng.random() < 0.3 or not pool:
            params = gen.sample(rng)
        else:
            params = gen.mutate(pool[rng.randrange(len(pool))], rng)
        case = FuzzCase(
            generator=gen.app_name,
            params=params,
            seed=rng.randrange(2**31),
            page_bytes=page_bytes,
        )
        report.candidates.append(case)
        failures = case_failures(case, tolerance_scale)
        report.cases_run += 1
        if failures:
            shrunk, evals = shrink_case(case, tolerance_scale)
            finding = Finding(
                case=case, failures=failures, shrunk=shrunk, shrink_evals=evals
            )
            if out_path is not None:
                finding.path = _write_case_file(
                    out_path,
                    len(report.findings),
                    finding,
                    seed,
                    tolerance_scale,
                )
            report.findings.append(finding)
            if log:
                log(
                    f"fuzz: {gen.app_name} failed "
                    f"[{', '.join(o.oracle for o in failures)}] "
                    f"at {_fmt_params(case.params)}"
                )
        else:
            if len(pool) < _CORPUS_CAP:
                pool.append(params)
            elif rng.random() < 0.25:
                pool[rng.randrange(len(pool))] = params

    report.elapsed_s = time.monotonic() - start
    return report


# ----------------------------------------------------------------------
# Replay


def load_case_file(path: str) -> FuzzCase:
    """The shrunk case recorded in a fuzz case file."""
    payload = json.loads(Path(path).read_text())
    if "case" in payload:
        return FuzzCase.from_dict(payload["case"])
    return FuzzCase.from_dict(payload)  # bare-case files are accepted too


def replay_case(
    path: str, tolerance_scale: float = 1.0
) -> List[OracleResult]:
    """Re-run a written case file; returns every oracle verdict."""
    return run_case(load_case_file(path), tolerance_scale)
