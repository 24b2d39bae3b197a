"""Cache-hierarchy hot-path microbenchmarks and the perf baseline.

``BENCH_sim.json`` (repo root) records the simulator's perf trajectory
across PRs.  Because wall-clock numbers are machine-dependent, the
*regression gate* is the speedup **ratio** of the vectorized engine
(:mod:`repro.sim.cache`) over the retained scalar reference
(:mod:`repro.sim.cache_reference`) on the same host at the same moment:
that ratio is a property of the code, not the machine.  Absolute
timings are recorded alongside for context only.

Refresh the baseline with ``python -m repro bench``; CI replays the
workloads via ``benchmarks/test_sim_hotpath.py`` and fails if any
workload's speedup ratio falls more than ``REGRESSION_TOLERANCE``
below the committed baseline.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.sim.bus import Bus
from repro.sim.cache import build_hierarchy
from repro.sim.cache_reference import build_scalar_hierarchy
from repro.sim.config import KB, MB, BusConfig, CacheConfig, DRAMConfig
from repro.sim.dram import DRAM

#: A workload's speedup ratio may fall at most this far below baseline.
REGRESSION_TOLERANCE = 0.30

#: Budget for the *disabled* tracer on the vectorized hot path: with
#: ``repro.trace`` off, each workload's speedup ratio may sit at most
#: this far below the committed baseline.  The instrumented engine pays
#: one ``TRACER is None`` test per batch, so 5% is generous — a failure
#: means someone put a guard inside a per-line loop.
TRACING_OVERHEAD_TOLERANCE = 0.05

#: The wide workloads gated at :data:`TRACING_OVERHEAD_TOLERANCE` —
#: exactly the batch shapes whose per-batch guard cost must vanish.
TRACE_GATE_WORKLOADS = (
    "cold_read_scan_4mb",
    "cold_write_scan_4mb",
    "strided_50k_128b",
)

#: Tolerance for the fault-path dispatch gate.  With
#: ``RADramConfig.faults`` left ``None`` (the default), the
#: activate/wait handlers pay one ``self.faults is None`` test per
#: activation and nothing else.  The gated number is the ratio of the
#: same dispatch workload run with a present-but-disabled
#: ``FaultConfig`` over the ``faults=None`` run — both sides share the
#: host, the workload and the noise, so the ratio is tight.  It must
#: stay within 5% of the committed baseline in *either* direction:
#: falling means fault work leaked outside the ``faults is not None``
#: guards (inflating the fault-free denominator every experiment runs
#: on); rising means the disabled controller got more expensive.
FAULTS_OVERHEAD_TOLERANCE = 0.05

#: Baseline key for the fault-path dispatch benchmark.
FAULTS_GATE_KEY = "radram_dispatch_2k"

#: Tolerance for the disabled-sanitizer gate.  With
#: :data:`repro.check.runtime.CHECKER` left ``None`` (the default) the
#: instrumented hot paths — one guard per processor op, per cache
#: batch, per engine event, per sync-word transition — pay a
#: module-attribute load and a ``None`` test each and nothing else.
#: The gated number is ``dispatch_ratio`` from the dispatch benchmark:
#: the frozen scalar-cache yardstick's time over the checker-off
#: dispatch time, the same instrumented-vs-frozen-reference
#: methodology as the tracing gate, with a one-sided floor — if the
#: ratio falls more than 5% below baseline, the checker-off dispatch
#: path (which every experiment runs on) got slower, i.e. sanitizer
#: work leaked outside the ``CHECKER is not None`` guards.
CHECK_OVERHEAD_TOLERANCE = 0.05

#: Sanity ceiling on the *enabled* checker's cost (``checker_overhead``,
#: the paired checked/checker-off ratio).  Enabled-mode checking is an
#: opt-in debugging tool whose cost may evolve with its detectors, so
#: it is not band-gated; but a ratio past this ceiling means a detector
#: went accidentally super-linear (typ. measured ~4-5x).
CHECK_ENABLED_CEILING = 20.0

#: The checker gate anchors on the same dispatch benchmark entry.
CHECK_GATE_KEY = FAULTS_GATE_KEY

#: A batched-execution workload's paired speedup ratio (per-op
#: reference time over production time, same process, fresh
#: machines) may fall at most this far below baseline.  Both
#: executors run the identical op stream back to back, so host noise
#: cancels and the ratio is a property of the code.
BATCHING_TOLERANCE = 0.30

BASELINE_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_sim.json"

HISTORY_PATH = pathlib.Path(__file__).resolve().parents[3] / "BENCH_history.jsonl"

LINE = 32


def _reference_hierarchy(build):
    l1 = CacheConfig(size_bytes=64 * KB, assoc=2, line_bytes=LINE, hit_ns=1.0)
    l2 = CacheConfig(size_bytes=1 * MB, assoc=4, line_bytes=LINE, hit_ns=6.0)
    dram = DRAM(DRAMConfig(), Bus(BusConfig()))
    l1d, _, _ = build(l1, l2, dram)
    return l1d


# ----------------------------------------------------------------------
# Workloads: factories return ([stream, ...], write?, repeats)


def _cold_read_scan():
    return [range(0, (4 * MB) // LINE)], False, 1


def _cold_write_scan():
    return [range(0, (4 * MB) // LINE)], True, 1


def _warm_retouch():
    return [range(0, (32 * KB) // LINE)], False, 20


def _strided_conflict():
    # 128-byte stride: touches every 4th line over a 6.4MB footprint.
    return [np.arange(50_000, dtype=np.int64) * 4], False, 1


def _app_trace_blocks():
    # The app-trace shape: thousands of narrow (16-line) block ops.
    # Exercises the small-batch scalar regime of the adaptive dispatch.
    return [
        np.arange(i * 16, i * 16 + 16, dtype=np.int64) for i in range(10_000)
    ], False, 1


WORKLOADS: Dict[str, Callable] = {
    "cold_read_scan_4mb": _cold_read_scan,
    "cold_write_scan_4mb": _cold_write_scan,
    "warm_retouch_32kb_x20": _warm_retouch,
    "strided_50k_128b": _strided_conflict,
    "app_trace_16line_blocks": _app_trace_blocks,
}


def _time_workload(l1d, streams, write: bool, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        for lines in streams:
            l1d.access_lines(lines, write=write)
    return time.perf_counter() - t0


def run_workload(name: str, trials: int = 3) -> Dict[str, float]:
    """Run one workload on both engines; returns timings + ratio.

    Each engine gets ``trials`` fresh-hierarchy runs and the fastest
    counts: short workloads are jittery and the *minimum* is the
    stable, noise-resistant estimator for a regression gate.  The
    per-trial *medians* ride along for ``BENCH_history.jsonl``, which
    tracks trends rather than gating.
    """
    import statistics

    factory = WORKLOADS[name]
    streams, write, repeats = factory()
    n_lines = sum(len(s) for s in streams) * repeats

    vec_times = []
    ref_times = []
    for _ in range(trials):
        vec = _reference_hierarchy(build_hierarchy)
        vec_times.append(_time_workload(vec, streams, write, repeats))
        ref = _reference_hierarchy(build_scalar_hierarchy)
        ref_times.append(_time_workload(ref, streams, write, repeats))
    t_vec = min(vec_times)
    t_ref = min(ref_times)

    # Equal work is a correctness smoke check, not just timing hygiene.
    assert (vec.stats.hits, vec.stats.misses, vec.stats.writebacks) == (
        ref.stats.hits,
        ref.stats.misses,
        ref.stats.writebacks,
    ), f"engines diverged on workload {name!r}"

    return {
        "lines": n_lines,
        "vectorized_ms": round(t_vec * 1e3, 3),
        "scalar_ref_ms": round(t_ref * 1e3, 3),
        "vectorized_ms_median": round(statistics.median(vec_times) * 1e3, 3),
        "scalar_ref_ms_median": round(statistics.median(ref_times) * 1e3, 3),
        "vectorized_ns_per_line": round(t_vec / n_lines * 1e9, 1),
        "speedup_ratio": round(t_ref / t_vec, 2),
    }


def run_benchmarks(trials: int = 3) -> Dict[str, Dict[str, float]]:
    """All workloads; keyed by workload name."""
    return {name: run_workload(name, trials=trials) for name in sorted(WORKLOADS)}


def load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def check_regressions(
    current: Dict[str, Dict[str, float]], baseline: dict
) -> Dict[str, str]:
    """Compare current ratios against the baseline; returns failures."""
    failures = {}
    for name, base in baseline["workloads"].items():
        cur = current.get(name)
        if cur is None:
            failures[name] = "workload missing from current run"
            continue
        floor = base["speedup_ratio"] * (1.0 - REGRESSION_TOLERANCE)
        if cur["speedup_ratio"] < floor:
            failures[name] = (
                f"speedup ratio {cur['speedup_ratio']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup_ratio']:.2f}x "
                f"- {REGRESSION_TOLERANCE:.0%} tolerance)"
            )
    return failures


def check_tracing_overhead(
    current: Dict[str, Dict[str, float]], baseline: dict
) -> Dict[str, str]:
    """The ≤5% tracing-disabled gate over :data:`TRACE_GATE_WORKLOADS`.

    ``current`` must come from a run with the tracer disabled (the
    default — benchmarks never enable it).  Like the 30% regression
    gate this compares speedup *ratios*, so it is machine-independent;
    only the tolerance differs.
    """
    failures = {}
    for name in TRACE_GATE_WORKLOADS:
        base = baseline["workloads"].get(name)
        cur = current.get(name)
        if base is None or cur is None:
            failures[name] = "workload missing from baseline or current run"
            continue
        floor = base["speedup_ratio"] * (1.0 - TRACING_OVERHEAD_TOLERANCE)
        if cur["speedup_ratio"] < floor:
            failures[name] = (
                f"speedup ratio {cur['speedup_ratio']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup_ratio']:.2f}x - "
                f"{TRACING_OVERHEAD_TOLERANCE:.0%} tracing-overhead budget)"
            )
    return failures


def _dispatch_machine(fault_config):
    """A RADram machine for the dispatch benchmark (4 KB pages)."""
    from repro.radram.config import RADramConfig
    from repro.radram.system import RADramMemorySystem
    from repro.sim.machine import Machine
    from repro.sim.memory import PagedMemory

    cfg = RADramConfig.reference().with_page_bytes(4 * KB).with_faults(fault_config)
    memsys = RADramMemorySystem(cfg)
    return Machine(memory=PagedMemory(page_bytes=4 * KB), memsys=memsys)


def _dispatch_ops(n_pages: int = 64, rounds: int = 32):
    """Wide activate/wait bursts: the dispatch-path hot loop."""
    from repro.core.functions import PageTask
    from repro.sim import ops as O

    # One immutable task descriptor shared by every activation: the
    # benchmark gates the *dispatch* path, and re-constructing 2048
    # identical frozen dataclasses was pure generator noise in the
    # timed region.
    task = PageTask.simple(1_000.0)
    ops = []
    for _ in range(rounds):
        for p in range(n_pages):
            ops.append(O.Activate(p, 1, task))
        for p in range(n_pages):
            ops.append(O.WaitPage(p))
    return ops


def run_dispatch_workload(trials: int = 5) -> Dict[str, float]:
    """The fault-path dispatch benchmark (:data:`FAULTS_GATE_KEY`).

    Times 2048 activate/wait pairs through ``RADramMemorySystem``
    three ways: faults absent (``faults=None``, the default every
    experiment runs with — the headline ``dispatch_ms``), a
    present-but-disabled :class:`FaultConfig` (controller live, zero
    rates), and the frozen scalar cache engine as a same-host
    yardstick.  ``faults_disabled_overhead`` (disabled-config time
    over faults-absent time) is the gated number — both sides run the
    same workload on the same executor in the same call, so host noise
    cancels and a 5% drift either way is code, not jitter.
    ``dispatch_ratio`` (yardstick / faults-absent time) is the
    sanitizer's disabled-path gate number (see
    :data:`CHECK_OVERHEAD_TOLERANCE`): the scalar yardstick carries no
    checker hooks, so a fall means the instrumented checker-off path
    got slower.  The absolute timings are context.

    A fourth leg runs the same workload with a live counting
    :class:`repro.check.runtime.Checker`; ``checker_overhead`` — the
    *median across trials* of the per-trial checked/faults-absent
    ratio (adjacent runs share the host's load burst, so the paired
    median shrugs it off) — reports the enabled-mode cost,
    sanity-bounded by :data:`CHECK_ENABLED_CEILING` rather than
    band-gated.
    """
    import statistics

    from repro.check import runtime as check_runtime
    from repro.faults.models import FaultConfig

    streams, write, repeats = _warm_retouch()
    t_none = t_disabled = t_checked = t_yard = float("inf")
    checked_ratios = []
    for _ in range(trials):
        machine = _dispatch_machine(None)
        t0 = time.perf_counter()
        machine.run(iter(_dispatch_ops()))
        trial_none = time.perf_counter() - t0
        t_none = min(t_none, trial_none)

        machine = _dispatch_machine(FaultConfig())
        t0 = time.perf_counter()
        machine.run(iter(_dispatch_ops()))
        t_disabled = min(t_disabled, time.perf_counter() - t0)

        machine = _dispatch_machine(None)
        with check_runtime.checking():
            t0 = time.perf_counter()
            machine.run(iter(_dispatch_ops()))
            trial_checked = time.perf_counter() - t0
        t_checked = min(t_checked, trial_checked)
        checked_ratios.append(trial_checked / trial_none)

        yard = _reference_hierarchy(build_scalar_hierarchy)
        t_yard = min(t_yard, _time_workload(yard, streams, write, repeats))

    return {
        "activations": 2048,
        "dispatch_ms": round(t_none * 1e3, 3),
        "faults_disabled_ms": round(t_disabled * 1e3, 3),
        "checked_ms": round(t_checked * 1e3, 3),
        "yardstick_ms": round(t_yard * 1e3, 3),
        "dispatch_ratio": round(t_yard / t_none, 3),
        "faults_disabled_overhead": round(t_disabled / t_none, 2),
        "checker_overhead": round(statistics.median(checked_ratios), 2),
    }


def check_faults_overhead(
    current: Dict[str, float], baseline: dict
) -> Dict[str, str]:
    """The ±5% faults-disabled gate over the dispatch benchmark.

    ``current`` is one :func:`run_dispatch_workload` result; the
    baseline entry lives under :data:`FAULTS_GATE_KEY`.  The gated
    number is ``faults_disabled_overhead`` — a paired same-workload
    ratio, so host noise cancels — and the band is two-sided (see
    :data:`FAULTS_OVERHEAD_TOLERANCE` for what each direction means).
    """
    base = baseline.get(FAULTS_GATE_KEY)
    if base is None:
        return {
            FAULTS_GATE_KEY: (
                "dispatch baseline missing; refresh with `python -m repro bench`"
            )
        }
    anchor = base["faults_disabled_overhead"]
    floor = anchor * (1.0 - FAULTS_OVERHEAD_TOLERANCE)
    ceiling = anchor * (1.0 + FAULTS_OVERHEAD_TOLERANCE)
    cur = current["faults_disabled_overhead"]
    if cur < floor:
        return {
            FAULTS_GATE_KEY: (
                f"faults-disabled overhead {cur:.2f}x fell below {floor:.2f}x "
                f"(baseline {anchor:.2f}x - {FAULTS_OVERHEAD_TOLERANCE:.0%}): "
                "fault work likely leaked outside the `faults is not None` "
                "guards, slowing the fault-free path every experiment uses"
            )
        }
    if cur > ceiling:
        return {
            FAULTS_GATE_KEY: (
                f"faults-disabled overhead {cur:.2f}x rose above {ceiling:.2f}x "
                f"(baseline {anchor:.2f}x + {FAULTS_OVERHEAD_TOLERANCE:.0%}): "
                "the disabled fault controller got more expensive"
            )
        }
    return {}


def check_checker_overhead(
    current: Dict[str, float], baseline: dict
) -> Dict[str, str]:
    """The ≤5% checker-disabled gate over the dispatch benchmark.

    ``current`` is one :func:`run_dispatch_workload` result taken with
    :data:`repro.check.runtime.CHECKER` at its default ``None`` outside
    the benchmark's own checked leg (the caller asserts this).  The
    gated number is ``dispatch_ratio`` — the frozen scalar-cache
    yardstick over the checker-off dispatch time, one-sided against
    the entry under :data:`CHECK_GATE_KEY` (see
    :data:`CHECK_OVERHEAD_TOLERANCE`): the yardstick carries no
    sanitizer hooks, so only a slowdown of the instrumented
    checker-off path can pull the ratio down.  ``checker_overhead``
    (the enabled-mode cost) is not band-gated — it is an opt-in
    debugging mode — but a blowup past
    :data:`CHECK_ENABLED_CEILING` flags a detector gone super-linear.
    """
    base = baseline.get(CHECK_GATE_KEY)
    if base is None or "dispatch_ratio" not in base:
        return {
            CHECK_GATE_KEY: (
                "checker baseline missing; refresh with `python -m repro bench`"
            )
        }
    anchor = base["dispatch_ratio"]
    floor = anchor * (1.0 - CHECK_OVERHEAD_TOLERANCE)
    cur = current["dispatch_ratio"]
    if cur < floor:
        return {
            CHECK_GATE_KEY: (
                f"dispatch ratio {cur:.3f} fell below {floor:.3f} "
                f"(baseline {anchor:.3f} - {CHECK_OVERHEAD_TOLERANCE:.0%}): "
                "the checker-off dispatch path slowed relative to the "
                "hook-free scalar yardstick — sanitizer work likely "
                "leaked outside the `CHECKER is not None` guards"
            )
        }
    if current["checker_overhead"] > CHECK_ENABLED_CEILING:
        return {
            CHECK_GATE_KEY: (
                f"enabled-checker overhead {current['checker_overhead']:.1f}x "
                f"blew past the {CHECK_ENABLED_CEILING:.0f}x sanity ceiling "
                "(typ. ~4-5x): a detector likely went super-linear"
            )
        }
    return {}


def run_checked_dispatch_workload() -> Dict[str, float]:
    """The dispatch workload with a *live* (counting) sanitizer.

    The smoke half of the checker benchmarks: proves the instrumented
    dispatch path actually feeds the detectors under a live checker —
    and that a correct workload stays violation-free — without gating
    on enabled-mode wall-clock, which is allowed to be slower.
    """
    from repro.check import runtime as check_runtime

    machine = _dispatch_machine(None)
    with check_runtime.checking() as checker:
        t0 = time.perf_counter()
        machine.run(iter(_dispatch_ops()))
        seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "violations": float(checker.total),
        "pages_tracked": 64.0,
    }


# ----------------------------------------------------------------------
# Batched-execution workloads: the production executor vs the per-op
# reference (:mod:`repro.sim.processor_reference`).


def _processor_step_ops(blocks: int = 12_500):
    """A 100k-op straight-line conventional stream.

    Eight ops per block — reads, compute, writes over a rolling window
    — with no sync points, so the batched executor fuses the whole
    stream into maximal segments while the per-op reference replays it
    op by op.
    """
    from repro.sim import ops as O

    ops = []
    span = 256 * KB
    for i in range(blocks):
        base = (i * 192) % span
        ops.append(O.MemRead(base, 128))
        ops.append(O.Compute(40.0))
        ops.append(O.MemRead(base + 4 * KB, 64))
        ops.append(O.Compute(25.0))
        ops.append(O.MemWrite(base + 8 * KB, 128))
        ops.append(O.StridedRead(base, count=4, stride_bytes=LINE, elem_bytes=4))
        ops.append(O.Compute(10.0))
        ops.append(O.MemWrite(base + 12 * KB, 64))
    return ops


def _conventional_machine():
    from repro.sim.machine import Machine
    from repro.sim.memory import PagedMemory

    return Machine(memory=PagedMemory())


def _timed_run(machine, ops, batching: bool) -> float:
    """Seconds to run ``ops``: production, or the per-op reference."""
    from repro.sim.processor_reference import per_op_reference

    with contextlib.nullcontext() if batching else per_op_reference():
        t0 = time.perf_counter()
        machine.run(iter(ops))
        return time.perf_counter() - t0


def _run_processor_step(batching: bool) -> float:
    return _timed_run(_conventional_machine(), _processor_step_ops(), batching)


#: name -> (runner taking ``batching: bool``, op count for context).
BATCH_WORKLOADS: Dict[str, Tuple[Callable[[bool], float], int]] = {
    "processor_step_100k": (_run_processor_step, 100_000),
}


def run_batch_workload(name: str, trials: int = 3) -> Dict[str, float]:
    """One batched-vs-scalar paired measurement.

    Production and the per-op reference execute the identical op
    stream on fresh machines in the same call; the gated
    ``batch_speedup_ratio`` is reference time over production time, so
    host noise cancels.
    """
    import statistics

    runner, n_ops = BATCH_WORKLOADS[name]
    batched_times = []
    scalar_times = []
    for _ in range(trials):
        batched_times.append(runner(True))
        scalar_times.append(runner(False))
    t_batched = min(batched_times)
    t_scalar = min(scalar_times)
    return {
        "ops": n_ops,
        "batched_ms": round(t_batched * 1e3, 3),
        "scalar_ms": round(t_scalar * 1e3, 3),
        "batched_ms_median": round(statistics.median(batched_times) * 1e3, 3),
        "scalar_ms_median": round(statistics.median(scalar_times) * 1e3, 3),
        "batch_speedup_ratio": round(t_scalar / t_batched, 2),
    }


def run_batch_benchmarks(trials: int = 3) -> Dict[str, Dict[str, float]]:
    """All batched-execution workloads; keyed by workload name."""
    return {
        name: run_batch_workload(name, trials=trials)
        for name in sorted(BATCH_WORKLOADS)
    }


def check_batching_regressions(
    current: Dict[str, Dict[str, float]], baseline: dict
) -> Dict[str, str]:
    """The paired batched-vs-scalar gate over ``batch_workloads``."""
    failures = {}
    base_block = baseline.get("batch_workloads")
    if base_block is None:
        return {
            "batch_workloads": (
                "batched baseline missing; refresh with `python -m repro bench"
                " --update`"
            )
        }
    for name, base in base_block.items():
        cur = current.get(name)
        if cur is None:
            failures[name] = "workload missing from current run"
            continue
        floor = base["batch_speedup_ratio"] * (1.0 - BATCHING_TOLERANCE)
        if cur["batch_speedup_ratio"] < floor:
            failures[name] = (
                f"batched speedup {cur['batch_speedup_ratio']:.2f}x fell "
                f"below {floor:.2f}x (baseline "
                f"{base['batch_speedup_ratio']:.2f}x - "
                f"{BATCHING_TOLERANCE:.0%} tolerance)"
            )
    return failures


# ----------------------------------------------------------------------
# Append-only run history (``BENCH_history.jsonl``)


def history_record(
    workloads: Dict[str, Dict[str, float]],
    batch: Dict[str, Dict[str, float]],
    dispatch: Dict[str, float],
    trials: int,
    note: str = "",
    profiled: bool = False,
) -> dict:
    """One ``BENCH_history.jsonl`` line: host + rev + per-workload medians.

    ``profiled`` marks runs taken under cProfile — their absolute
    timings are inflated severalfold, so statistical consumers must be
    able to exclude them.
    """
    import datetime
    import platform
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BASELINE_PATH.parent,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "note": note or None,
        "profiled": profiled,
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_rev": rev,
        "trials": trials,
        "workloads": {
            name: {
                "vectorized_ms_median": row.get("vectorized_ms_median"),
                "scalar_ref_ms_median": row.get("scalar_ref_ms_median"),
                "speedup_ratio": row.get("speedup_ratio"),
            }
            for name, row in sorted(workloads.items())
        },
        "batch_workloads": {
            name: {
                "batched_ms_median": row.get("batched_ms_median"),
                "scalar_ms_median": row.get("scalar_ms_median"),
                "batch_speedup_ratio": row.get("batch_speedup_ratio"),
            }
            for name, row in sorted(batch.items())
        },
        "dispatch": {
            "dispatch_ms": dispatch.get("dispatch_ms"),
            "dispatch_ratio": dispatch.get("dispatch_ratio"),
            "faults_disabled_overhead": dispatch.get("faults_disabled_overhead"),
            "checker_overhead": dispatch.get("checker_overhead"),
        },
    }


def append_history(record: dict, path: pathlib.Path = HISTORY_PATH) -> None:
    """Append one run record to the append-only history file."""
    with open(path, "a") as fh:
        json.dump(record, fh, sort_keys=False)
        fh.write("\n")


def run_traced_workload(
    name: str = "cold_read_scan_4mb", capacity: int = 100_000
) -> Dict[str, float]:
    """One vectorized-engine workload run with tracing *enabled*.

    The smoke half of the tracing benchmarks: proves the instrumented
    hot path actually emits under a live tracer (and that the ring
    buffer bounds memory) without gating on enabled-mode wall-clock,
    which is allowed to be slower.
    """
    from repro.trace import events as trace_events

    streams, write, repeats = WORKLOADS[name]()
    l1d = _reference_hierarchy(build_hierarchy)
    with trace_events.tracing(capacity=capacity) as tracer:
        seconds = _time_workload(l1d, streams, write, repeats)
    return {
        "seconds": seconds,
        "events": float(len(tracer)),
        "dropped": float(tracer.dropped),
    }


def refresh_baseline(note: str = "", trials: int = 3) -> dict:
    """Re-measure and rewrite ``BENCH_sim.json`` (the ``bench`` CLI).

    A committed baseline anchors tight (5%) overhead gates, so on a
    jittery host refresh with more ``trials`` — each workload keeps its
    fastest run, and the minimum stabilizes as trials grow.
    """
    current = run_benchmarks(trials=trials)
    doc = {
        "comment": (
            "Cache-hierarchy hot-path perf baseline. The regression gate "
            "is 'speedup_ratio' (vectorized engine vs scalar reference, "
            "same host): machine-independent. Absolute ms are context "
            "only. 'batch_workloads' gates the fused op-stream executor "
            "against the per-op reference executor the same way "
            "('batch_speedup_ratio'). Refresh with: python -m repro bench"
        ),
        "regression_tolerance": REGRESSION_TOLERANCE,
        "batching_tolerance": BATCHING_TOLERANCE,
        "workloads": current,
        "batch_workloads": run_batch_benchmarks(trials=trials),
        FAULTS_GATE_KEY: run_dispatch_workload(trials=max(5, trials)),
    }
    if note:
        doc["note"] = note
    # Keep historical context blocks if present.
    try:
        old = load_baseline()
        for key in ("seed_before", "pre_batching", "report_quick"):
            if key in old:
                doc[key] = old[key]
    except (OSError, json.JSONDecodeError):
        pass
    with open(BASELINE_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc
