"""Repository benchmark: Figure 3 sweeps, instrumented runs and serve.

    python3 hostbench/run.py --workload fig3-conventional --seed 0 \\
        --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics (every timing normalised
to the reference host's speed, see ``calib.py``); ``--trace 1`` runs a
separate traced pass and reports the per-layer metrics.  Why each
workload exists, and how steady the figures are, is in RATIONALE.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig3-conventional", "fig3-radram", "instrumented", "serve-mixed")

#: Fresh interpreters whose median set-up is ``setup_s``.
SETUP_CHILDREN = 7
SETUP_TIMEOUT_S = 60.0
#: Set-up is imports and input generation: interpreter-bound.
SETUP_MIX = "python"
#: Upper bound on sweep rounds, whatever ``--seconds`` allows.
MAX_ROUNDS = 25
#: Reference-host seconds one serve burst (send and drain) takes.
BURST_PERIOD_S = 1.35


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def quantile(values, q: float, half_width: float) -> float:
    """Smoothed ``q`` quantile: the mean of the samples ranked within
    ``half_width`` of it, steadier than one order statistic."""
    ordered = sorted(v for v in values if math.isfinite(v))
    n = len(ordered)
    lo = min(n - 1, max(0, math.floor((q - half_width) * n)))
    hi = max(lo + 1, min(n, math.ceil((q + half_width) * n)))
    return statistics.mean(ordered[lo:hi])


def p50(values) -> float:
    return quantile(values, 0.50, 0.05)


def p95(values) -> float:
    return quantile(values, 0.95, 0.025)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up


class SetupSampler:
    """Fresh-interpreter set-ups spread over the run, so their median
    samples the host in every state the measurement saw."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.child = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
        self.work = work
        self.values = []

    def sample(self) -> None:
        import calib

        child_dir = self.work / f"setup-{len(self.values)}"
        child_dir.mkdir(parents=True)
        before = calib.calibrate(SETUP_MIX)
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(
            self.child + [str(child_dir)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        after = calib.calibrate(SETUP_MIX)
        cpu = (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime)
        self.values.append(calib.normalise(cpu, before, after, SETUP_MIX))

    def keep_pace(self, progress: float) -> bool:
        """Run the set-ups due by ``progress`` (0..1); True if any ran."""
        due = min(SETUP_CHILDREN, math.ceil(SETUP_CHILDREN * progress))
        ran = len(self.values) < due
        while len(self.values) < due:
            self.sample()
        return ran

    def median(self) -> float:
        self.keep_pace(1.0)
        return statistics.median(self.values)


def settle() -> None:
    """Collect once and freeze the set-up heap, so collections during
    timing scan only what the workload allocates."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Sweep workloads


def run_rounds(run, bracket, seconds: float, setups: SetupSampler) -> None:
    import sweeps

    start = time.perf_counter()
    rounds = 0
    while rounds < MAX_ROUNDS and (
        rounds < sweeps.MIN_ROUNDS or time.perf_counter() - start < seconds
    ):
        run.run_round(bracket)
        rounds += 1
        progress = (time.perf_counter() - start) / seconds
        if setups.keep_pace(min(progress, rounds / sweeps.MIN_ROUNDS)):
            bracket.recalibrate()


def sweep_end_to_end(args, work: Path) -> dict:
    import calib
    import sweeps

    setups = SetupSampler(args.workload, args.seed, work)
    points = sweeps.build_inputs(args.workload, args.seed)
    run = sweeps.SweepRun(
        args.seed,
        points,
        instrumented=args.workload == "instrumented",
        repeat_dir=work / "cache",
    )
    settle()
    bracket = calib.Bracketed(sweeps.MIX[args.workload])
    run_rounds(run, bracket, args.seconds, setups)
    setup_s = setups.median()
    point_ms = [m * 1e3 for m in run.point_medians(run.norm)]
    repeat_ms = [m * 1e3 for m in run.point_medians(run.repeat)]
    for line in run.errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    print(
        f"note: raw_sweep_s={run.raw_sweep_s():.4f} calib_ms={bracket.median_ms():.4f} "
        + " ".join(f"share.{a}={v:.4f}" for a, v in sorted(run.app_shares().items())),
        file=sys.stderr,
    )
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": run.failed == 0,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "sweep_s": metric(run.sweep_s(), "s"),
            "latency_p50_ms": metric(p50(point_ms), "ms"),
            "latency_p95_ms": metric(p95(point_ms), "ms"),
            "repeat_latency_p50_ms": metric(p50(repeat_ms), "ms"),
        },
    }


def sweep_traced(args, work: Path) -> dict:
    import calib
    import layers
    import sweeps

    points = sweeps.build_inputs(args.workload, args.seed)
    settle()
    bracket = calib.Bracketed(sweeps.MIX[args.workload])
    instrumented = args.workload == "instrumented"
    passes = []
    if instrumented:
        # The same points uninstrumented: the base of the overhead ratio.
        plain = sweeps.SweepRun(args.seed, points)
        plain.run_round(bracket)
        passes.append(plain)
    untraced = sweeps.SweepRun(args.seed, points, instrumented)
    untraced.run_round(bracket)
    passes.append(untraced)
    traced = sweeps.SweepRun(args.seed, points, instrumented)
    spans = layers.Spans()
    spans.install()
    try:
        spans.wall_start = time.perf_counter()
        traced.run_round(bracket)
        spans.wall_end = time.perf_counter()
    finally:
        spans.restore()
    passes.append(traced)
    spans.write(work.parent / f"spans-{args.workload}-{args.seed}.json")
    point_ms = [m * 1e3 for m in untraced.point_medians(untraced.raw)]
    host = {
        "host.calib_ms": bracket.median_ms(),
        "host.raw_sweep_s": untraced.raw_sweep_s(),
        "host.raw_latency_p50_ms": statistics.median(point_ms),
        "host.trace_overhead_ratio": layers.ratio(traced.sweep_s(), untraced.sweep_s()),
        "load.lateness_p95_ms": 0.0,
    }
    extra = {
        "sim.host_ns_per_op": layers.ratio(untraced.sweep_s() * 1e9, spans.counts["ops"])
    }
    if instrumented:
        extra["instrumented.overhead_ratio"] = layers.ratio(
            untraced.sweep_s(), passes[0].sweep_s()
        )
        extra["trace.events"] = traced.instrumented.events
        extra["trace.dropped"] = traced.instrumented.dropped
        extra["check.violations"] = sum(p.instrumented.violations for p in passes[1:])
    return layer_result(spans, passes, host, extra)


# ----------------------------------------------------------------------
# Serve workload


def serve_bursts(seconds: float) -> int:
    import serve_load

    measured = max(
        -(-serve_load.MIN_REQUESTS // len(serve_load.build_schedule(0, 1)[0])),
        int(seconds / BURST_PERIOD_S),
    )
    return min(serve_load.MAX_BURSTS, serve_load.WARMUP_BURSTS + measured)


async def drive_server(args, work: Path, n_bursts: int, spans=None, setups=None):
    """Run the bursts against a fresh server; with ``spans``, the
    second half of the measured bursts runs traced."""
    import calib
    import serve_load

    schedule = serve_load.build_schedule(args.seed, n_bursts)
    server = serve_load.make_server(work)
    await server.start()
    host, port = server.addresses()[0][:2]
    settle()
    results = []
    traced_from = None
    fsyncs = serve_load.CountedFsync()
    with fsyncs.installed():
        try:
            before = calib.calibrate(serve_load.MIX)
            for i, burst in enumerate(schedule):
                if spans is not None and traced_from is None and i >= (
                    serve_load.WARMUP_BURSTS + (n_bursts - serve_load.WARMUP_BURSTS) // 2
                ):
                    traced_from = i
                    spans.install()
                    spans.wall_start = time.perf_counter()
                result = await serve_load.run_burst(host, port, burst, before)
                results.append(result)
                before = result.calib_after
                if setups is not None and setups.keep_pace((i + 1) / n_bursts):
                    before = calib.calibrate(serve_load.MIX)
            if spans is not None:
                spans.wall_end = time.perf_counter()
        finally:
            if spans is not None:
                spans.restore()
            server.request_shutdown()
            await server.wait_drained()
            await server.close()
    snapshot = server.metrics_snapshot()
    snapshot["bench.fsyncs"] = fsyncs.calls
    return results, traced_from, snapshot


def serve_outcomes(results, first: int, last: int = None):
    return [o for r in results[first:last] for o in r.outcomes]


def normalised_latencies_ms(results, first: int, last: int = None, repeat=None):
    out = []
    for r in results[first:last]:
        scale = r.scale()
        out.extend(
            o.latency_s * scale * 1e3
            for o in r.outcomes
            if repeat is None or o.request.repeat == repeat
        )
    return out


def burst_p95(results, first: int) -> float:
    """Smoothed median over the measured bursts (the mean of the middle
    40%) of each burst's 95th percentile of normalised latency, in ms.
    Each burst is one bracketed unit; an episode that slows a few
    bursts cannot set it."""
    per_burst = []
    for r in results[first:]:
        scale = r.scale()
        latencies = [o.latency_s * scale * 1e3 for o in r.outcomes]
        if any(math.isfinite(v) for v in latencies):
            per_burst.append(quantile(latencies, 0.95, 0.0))
    return quantile(per_burst, 0.50, 0.20)


def serve_end_to_end(args, work: Path) -> dict:
    import asyncio

    import calib
    import serve_load

    setups = SetupSampler(args.workload, args.seed, work)
    n_bursts = serve_bursts(args.seconds)
    results, _, _ = asyncio.run(
        drive_server(args, work / "serve", n_bursts, setups=setups)
    )
    setup_s = setups.median()
    outcomes = serve_outcomes(results, 0)
    refs, burst_s = serve_load.reference_runs(
        [r.outcomes for r in results],
        calib.Bracketed(serve_load.MIX),
        serve_load.REFERENCE_ROUNDS,
        args.seed,
    )
    failed = serve_load.check_outcomes(outcomes, refs)
    for out in outcomes:
        if out.error:
            print(f"error: {out.request.payload}: {out.error}", file=sys.stderr)
            break
    first = serve_load.WARMUP_BURSTS
    # Every burst, the warm-up too: all seeds then share one set of
    # request parameter points (see serve_load.build_schedule).
    sweep_s = sum(burst_s)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "sweep_s": metric(sweep_s, "s"),
            "latency_p50_ms": metric(
                p50(normalised_latencies_ms(results, first)), "ms"
            ),
            "latency_p95_ms": metric(burst_p95(results, first), "ms"),
            "repeat_latency_p50_ms": metric(
                p50(normalised_latencies_ms(results, first, repeat=True)), "ms"
            ),
        },
    }


def serve_traced(args, work: Path) -> dict:
    import asyncio

    import calib
    import layers
    import serve_load

    spans = layers.Spans()
    n_bursts = serve_bursts(args.seconds)
    results, traced_from, snapshot = asyncio.run(
        drive_server(args, work / "serve", n_bursts, spans)
    )
    outcomes = serve_outcomes(results, 0)
    refs, _ = serve_load.reference_runs(
        [r.outcomes for r in results], calib.Bracketed(serve_load.MIX)
    )
    failed = serve_load.check_outcomes(outcomes, refs)
    spans.write(work.parent / f"spans-{args.workload}-{args.seed}.json")
    first = serve_load.WARMUP_BURSTS
    untraced = normalised_latencies_ms(results, first, traced_from)
    traced = normalised_latencies_ms(results, traced_from)
    raw = [o.latency_s * 1e3 for o in serve_outcomes(results, first, traced_from)]
    lateness = [o.lateness_s * 1e3 for o in serve_outcomes(results, first)]
    calibs = [
        sum(w * t for w, t in zip(calib.MIXES[serve_load.MIX], c)) * 1e3
        for c in [r.calib_before for r in results] + [results[-1].calib_after]
    ]
    requests = snapshot.get("serve.requests_total", 0.0)
    host = {
        "host.calib_ms": statistics.median(calibs),
        "host.raw_sweep_s": 0.0,
        "host.raw_latency_p50_ms": statistics.median(raw),
        "host.trace_overhead_ratio": layers.ratio(
            statistics.mean(traced), statistics.mean(untraced)
        ),
        "load.lateness_p95_ms": p95(lateness),
    }
    extra = {
        "serve.coalesce_ratio": layers.ratio(
            snapshot.get("serve.coalesce_hits", 0.0), requests
        ),
        "serve.backlog_max": max(r.backlog_max for r in results),
        "serve.rejected": sum(o.status in (429, 503) for o in outcomes),
        "serve.fsyncs": snapshot["bench.fsyncs"],
    }
    tally = types.SimpleNamespace(attempted=len(outcomes), failed=failed)
    return layer_result(spans, [tally], host, extra)


# ----------------------------------------------------------------------
# Per-layer report


def layer_result(spans, passes, host: dict, extra: dict) -> dict:
    import layers

    c = spans.counts
    acct = spans.accounting()
    ops = c["ops"]
    processor_s = sum(r[6] - r[5] for r in spans.records if r[2] == "sim.processor")
    cache_calls = c["cache.batch_calls"]
    values = {
        "apps.workload_s": spans.self_s("apps"),
        "sim.processor.self_s": spans.self_s("sim.processor"),
        "sim.processor.ops": ops,
        "sim.host_ns_per_op": layers.ratio(processor_s * 1e9, ops),
        "sim.cache.self_s": spans.self_s("sim.cache") + spans.self_s("sim.cache.flush"),
        "sim.cache.lines": c["cache.lines"],
        "sim.cache.batch_calls": cache_calls,
        "sim.cache.scalar_calls": c["cache.scalar_calls"],
        "sim.cache.small_batch_share": layers.ratio(c["cache.small_batches"], cache_calls),
        "sim.cache.flush_s": spans.total_s("sim.cache.flush"),
        "sim.cache.l1_hit_ratio": layers.ratio(c["l1.hits"], c["l1.accesses"]),
        "sim.cache.l2_hit_ratio": layers.ratio(c["l2.hits"], c["l2.accesses"]),
        "sim.dram.self_s": spans.self_s("sim.dram"),
        "sim.dram.lines": c["dram.lines"],
        "sim.bus.self_s": spans.self_s("sim.bus"),
        "sim.bus.transfers": c["bus.transfers"],
        "radram.system.self_s": spans.self_s("radram.system"),
        "radram.activations": c["radram.activations"],
        "radram.poll_calls": c["radram.polls"],
        "radram.stall_share": layers.ratio(c["radram.wait_ns"], c["radram.total_ns"]),
        "trace.events": 0.0,
        "trace.dropped": 0.0,
        "check.violations": 0.0,
        "instrumented.overhead_ratio": 0.0,
        "experiments.harness.key_s": spans.self_s("experiments.harness.key"),
        "experiments.harness.execute_s": spans.total_s("experiments.harness.execute"),
        "experiments.harness.cache_load_s": spans.self_s("experiments.harness.cache_load"),
        "experiments.harness.cache_store_s": spans.self_s("experiments.harness.cache_store"),
        "experiments.harness.cache_hit_ratio": layers.ratio(
            c["cache.load_hits"], c["cache.loads"]
        ),
        "serve.parse_s": spans.self_s("serve.parse"),
        "serve.queue_wait_ms_p50": layers.median_or_zero(spans.samples["queue_wait_ms"]),
        "serve.scheduler_s": spans.self_s("serve.scheduler"),
        "serve.journal_append_s": spans.self_s("serve.journal"),
        "serve.journal_appends": c["journal.appends"],
        "serve.encode_s": spans.self_s("serve.encode"),
        "serve.coalesce_ratio": 0.0,
        "serve.backlog_max": 0.0,
        "serve.rejected": 0.0,
        "serve.fsyncs": 0.0,
        "spans.traced_wall_s": acct["wall"],
        "spans.self_sum_s": acct["self_sum"],
        "spans.unattributed_s": acct["unattributed"],
    }
    values.update(host)
    values.update({k: v for k, v in extra.items() if k in values})
    units = {
        "_s": "s", "_ms": "ms", "_ratio": "ratio", "_share": "ratio",
        "_ms_p50": "ms", "_ms_p95": "ms", "_per_op": "ns/op",
    }

    def unit(name: str) -> str:
        for suffix, u in units.items():
            if name.endswith(suffix):
                return u
        return "count"

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for line in getattr(p, "errors", [])[:10]:
            print(f"error: {line}", file=sys.stderr)
    if not acct["consistent"]:
        print("error: span self times exceed the traced window", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and acct["consistent"],
        "metrics": {k: metric(v, unit(k)) for k, v in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    # One CPU for the benchmark and its children: each calibration then
    # sees the state of the CPU the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = root / ".hostbench_out" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            result = (serve_traced if args.trace else serve_end_to_end)(args, work)
        else:
            result = (sweep_traced if args.trace else sweep_end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
