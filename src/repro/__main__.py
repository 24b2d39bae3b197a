"""Command-line interface: ``python -m repro <command>``.

Commands
--------
report       regenerate the paper's tables and figures
fig3 ...     shorthand for one experiment (fig1/3/4/5/6/8/9, table2/3/4)
app          run one application on both systems at a problem size
check        run app(s) under the runtime sanitizer (race/coherence/
             protocol/watchdog detectors); ``--strict`` aborts on the
             first violation, exit code 2 when violations are found
synth        print Table 3 (circuit synthesis)
yield        print the Section 3 yield/cost comparison
power        print the Section 3 port-width power study
trace        run an app (or fig6) under the event tracer: Gantt chart,
             ``--out`` Perfetto trace_event JSON, ``--csv`` flat CSV
fuzz         seeded, time-boxed fuzzing of generated workloads under
             four oracles (sanitizer, model divergence, conventional/
             RADram equivalence, regime bit-identity); failing cases
             are shrunk to JSON reproducers, ``--replay FILE`` re-runs
             one
cache        inspect, summarize (``stats``), age-prune (``prune --days``)
             or clear the sweep result cache
serve        long-running simulation service: HTTP/JSON-lines front-end
             with per-tenant fair queuing, single-flight coalescing of
             identical in-flight work, bounded backpressure and
             ``/metrics`` / ``/cache/stats`` endpoints
submit       thin streaming client for ``serve`` (experiments, single
             tasks, fuzz runs, server introspection)
bench        run the cache hot-path microbenchmarks (``--update`` to
             refresh the committed ``BENCH_sim.json`` baseline)
faults       defect-density-vs-speedup sweep under fault injection;
             writes a Perfetto trace with fault/scrub/remap instants

Sweep-driven commands accept ``--jobs N`` (parallel workers),
``--no-cache`` (bypass ``.repro_cache/``), ``--task-timeout S``
(per-task deadline, pooled runs) and ``--retries N`` (re-attempts for
crashed/hung/raising sweep tasks).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.apps.registry import ALL_APPS, get_app
from repro.experiments import harness
from repro.experiments import report as report_mod
from repro.experiments.runner import run_conventional, run_radram

#: Shorthand subcommands for single experiments.
EXPERIMENT_ALIASES = {
    "fig1": "figure-1",
    "fig3": "figure-3",
    "fig4": "figure-4",
    "fig5": "figure-5",
    "fig6": "figure-6",
    "fig8": "figure-8",
    "fig9": "figure-9",
    "table2": "table-2",
    "table3": "table-3",
    "table4": "table-4",
}


def _report_argv(args: argparse.Namespace, only: Optional[List[str]]) -> List[str]:
    argv: List[str] = []
    if args.quick:
        argv.append("--quick")
    if only:
        argv += ["--only"] + only
    if getattr(args, "extensions", False):
        argv.append("--extensions")
    if args.output:
        argv += ["--output", args.output]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    if args.no_cache:
        argv.append("--no-cache")
    if getattr(args, "trace_summary", False):
        argv.append("--trace-summary")
    if getattr(args, "task_timeout", None) is not None:
        argv += ["--task-timeout", str(args.task_timeout)]
    if getattr(args, "retries", None) is not None:
        argv += ["--retries", str(args.retries)]
    if getattr(args, "allow_failures", False):
        argv.append("--allow-failures")
    return argv


def _cmd_report(args: argparse.Namespace) -> int:
    return report_mod.main(_report_argv(args, args.only))


def _cmd_experiment(args: argparse.Namespace) -> int:
    return report_mod.main(_report_argv(args, [EXPERIMENT_ALIASES[args.command]]))


def _cmd_app(args: argparse.Namespace) -> int:
    app = get_app(args.name)
    conv = run_conventional(app, args.pages, cap_pages=None if args.exact else 8.0)
    rad = run_radram(app, args.pages)
    print(f"{app.name} at {args.pages} pages ({app.partitioning.value}):")
    print(f"  conventional: {conv.total_ns / 1e6:10.3f} ms")
    print(f"  RADram:       {rad.total_ns / 1e6:10.3f} ms")
    print(f"  speedup:      {conv.total_ns / rad.total_ns:10.1f}x")
    print(f"  CPU stalled:  {100 * rad.stall_fraction:10.1f}%")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.synth.report import format_table3

    print(format_table3())
    return 0


def _cmd_yield(args: argparse.Namespace) -> int:
    from repro.radram.yieldmodel import yield_table

    print(f"{'chip':<12} {'yield':>7} {'cost':>9} {'vs dram':>9}")
    for row in yield_table(defect_density=args.defects):
        print(
            f"{row['chip']:<12} {row['yield']:>7.3f} "
            f"${row['cost_dollars']:>8.2f} {row['cost_vs_dram']:>8.2f}x"
        )
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.radram.power import port_width_study

    print(f"{'port bits':>10} {'bandwidth':>10} {'power mW':>10} {'circuits fit':>13}")
    for row in port_width_study():
        print(
            f"{row['port_bits']:>10} {row['relative_bandwidth']:>9.0f}x "
            f"{row['page_power_mw']:>10.1f} "
            f"{row['circuits_fitting']:>6}/{row['circuits_total']}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import events as trace_events
    from repro.trace import export as trace_export
    from repro.viz.gantt import render_gantt_events

    if args.name in EXPERIMENT_ALIASES:
        if args.name != "fig6":
            print(f"only the fig6 experiment is traceable (got {args.name!r})")
            return 2
        from repro.experiments import fig6_gantt

        result, events = fig6_gantt.run_traced(n_pages=args.pages)
        print(result.render())
    else:
        app = get_app(args.name)
        # Build the machine by hand so the memory system stays accessible.
        from repro.radram.config import RADramConfig
        from repro.radram.system import RADramMemorySystem
        from repro.sim.machine import Machine
        from repro.sim.memory import PagedMemory

        rconfig = RADramConfig.reference()
        memsys = RADramMemorySystem(rconfig)
        machine = Machine(
            memory=PagedMemory(page_bytes=rconfig.page_bytes), memsys=memsys
        )
        w = app.workload(args.pages, rconfig.page_bytes, functional=False)
        w.data["radram_config"] = rconfig
        with trace_events.tracing() as tracer:
            stats = machine.run(app.radram_stream(w))
        events = tracer.events()
        print(render_gantt_events(events, stats, max_pages=args.max_pages))

    summary = trace_export.summarize(events)
    print(
        f"trace: {int(summary['events'])} events "
        f"({int(summary['spans'])} spans, {int(summary['instants'])} instants, "
        f"{int(summary['counters'])} counters)"
    )
    if args.out:
        trace_export.write_chrome_trace(args.out, events)
        print(f"trace: wrote Perfetto trace_event JSON to {args.out}")
    if args.csv:
        trace_export.write_csv(args.csv, events)
        print(f"trace: wrote CSV to {args.csv}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.apps.registry import FUZZ_APPS
    from repro.workloads import replay_case, run_fuzz

    if args.replay:
        results = replay_case(args.replay, tolerance_scale=args.tolerance_scale)
        for o in results:
            status = "ok" if o.ok else "FAIL"
            print(f"replay {o.oracle}: {status} ({o.detail})")
        # Exit 2 when the case still reproduces — scripts can tell
        # "fixed" (0) from "still failing" (2) apart.
        return 2 if any(not o.ok for o in results) else 0

    time_box = args.time_box
    max_cases = args.max_cases
    if args.smoke:
        # CI smoke: bounded candidates AND a hard time box, whichever
        # bites first, so the job stays well under its 90 s budget.
        time_box = min(time_box, 45.0) if time_box else 45.0
        if max_cases is None:
            max_cases = 120
    elif time_box is None:
        time_box = 60.0

    apps = args.apps or list(FUZZ_APPS)
    report = run_fuzz(
        seed=args.seed,
        time_box_s=time_box,
        max_cases=max_cases,
        apps=apps,
        tolerance_scale=args.tolerance_scale,
        out_dir=args.out,
        log=print,
    )
    print(report.render())
    return 1 if report.findings else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import datetime

    cache = harness.ResultCache(harness.current_settings().resolve_cache_dir())
    action = "clear" if args.clear else args.action
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached sweep results from {cache.root}")
        return 0
    if action == "prune":
        removed = cache.prune(args.days)
        print(
            f"pruned {removed} entries older than {args.days:g} days "
            f"from {cache.root}"
        )
        jp = cache.last_journal_prune
        if jp.get("journals") or jp.get("tmp"):
            print(
                f"pruned {jp['journals']} completed job journal(s) and "
                f"{jp['tmp']} orphaned journal tmp file(s)"
            )
        return 0
    if action == "stats":
        stats = cache.stats()
        print(f"cache dir: {stats['dir']}")
        print(f"entries:   {stats['entries']}")
        print(f"size:      {stats['total_bytes'] / 1024:.1f} KiB")
        for schema, count in sorted(stats["by_schema"].items()):
            print(f"schema {schema}:  {count}")
        jobs = stats["jobs"]
        print(
            f"journals:  {jobs['journals']} "
            f"({jobs['completed']} completed, "
            f"{jobs['recoverable']} recoverable, "
            f"{jobs['journal_bytes'] / 1024:.1f} KiB)"
        )
        if stats["entries"]:
            fmt = "%Y-%m-%d %H:%M:%S"
            oldest = datetime.datetime.fromtimestamp(stats["oldest_mtime"])
            newest = datetime.datetime.fromtimestamp(stats["newest_mtime"])
            print(f"oldest:    {oldest.strftime(fmt)}")
            print(f"newest:    {newest.strftime(fmt)}")
        return 0
    entries = cache.entries()
    total_bytes = sum(p.stat().st_size for p in entries)
    print(f"cache dir: {cache.root}")
    print(f"entries:   {len(entries)}")
    print(f"size:      {total_bytes / 1024:.1f} KiB")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import server as serve_mod

    return serve_mod.run_from_args(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import client as client_mod

    return client_mod.main(args.rest)


def _cmd_bench(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from repro.experiments import simbench

    profiler = None
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()

    if args.update:
        doc = simbench.refresh_baseline(note=args.note or "", trials=args.trials)
        current = doc["workloads"]
        batch = doc["batch_workloads"]
        dispatch = doc[simbench.FAULTS_GATE_KEY]
        print(f"baseline refreshed: {simbench.BASELINE_PATH}")
    else:
        current = simbench.run_benchmarks(trials=args.trials)
        batch = simbench.run_batch_benchmarks(trials=args.trials)
        dispatch = simbench.run_dispatch_workload(trials=max(5, args.trials))

    if profiler is not None:
        profiler.disable()
        digest = io.StringIO()
        stats = pstats.Stats(profiler, stream=digest)
        stats.sort_stats("cumulative").print_stats(25)
        with open(args.profile_out, "w") as fh:
            fh.write(digest.getvalue())
        print(f"profile: top-25 cumulative digest written to {args.profile_out}")

    print(
        f"{'workload':<26} {'lines':>8} {'vec ms':>9} "
        f"{'scalar ms':>10} {'ns/line':>8} {'ratio':>7}"
    )
    for name, row in sorted(current.items()):
        print(
            f"{name:<26} {row['lines']:>8} {row['vectorized_ms']:>9.1f} "
            f"{row['scalar_ref_ms']:>10.1f} {row['vectorized_ns_per_line']:>8.1f} "
            f"{row['speedup_ratio']:>6.2f}x"
        )
    print(
        f"\n{'batched executor':<26} {'ops':>8} {'batch ms':>9} "
        f"{'scalar ms':>10} {'ratio':>7}"
    )
    for name, row in sorted(batch.items()):
        print(
            f"{name:<26} {row['ops']:>8} {row['batched_ms']:>9.1f} "
            f"{row['scalar_ms']:>10.1f} {row['batch_speedup_ratio']:>6.2f}x"
        )
    print(
        f"\ndispatch: {dispatch['dispatch_ms']:.1f} ms "
        f"(faults-disabled {dispatch['faults_disabled_overhead']:.2f}x, "
        f"checker {dispatch['checker_overhead']:.2f}x)"
    )

    record = simbench.history_record(
        current, batch, dispatch, args.trials,
        note=args.note, profiled=args.profile,
    )
    simbench.append_history(record)
    print(f"history: appended run to {simbench.HISTORY_PATH}")

    if args.update:
        return 0
    try:
        baseline = simbench.load_baseline()
    except OSError:
        print("no BENCH_sim.json baseline; run `python -m repro bench --update`")
        return 1
    failures = simbench.check_regressions(current, baseline)
    failures.update(simbench.check_batching_regressions(batch, baseline))
    for name, why in sorted(failures.items()):
        print(f"REGRESSION {name}: {why}")
    return 1 if failures else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments import faults_density
    from repro.faults.models import FaultConfig
    from repro.radram.config import RADramConfig
    from repro.trace import events as trace_events
    from repro.trace import export as trace_export

    harness.configure(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        task_timeout_s=args.task_timeout,
        retries=args.retries,
    )
    densities = args.densities
    if densities is None and args.quick:
        densities = faults_density.DENSITY_SWEEP[::2]
    result = faults_density.run(densities=densities, seed=args.seed)
    print(result.render())

    # One traced run at a moderate fault mix that exercises every
    # tolerance path (scrub, spare-row remap, migration, degradation),
    # so the exported Perfetto trace carries fault/scrub/remap/migrate
    # instants on the "faults" track next to the page spans.
    traced_cfg = RADramConfig.reference().with_faults(
        FaultConfig(
            seed=args.seed,
            bit_flip_rate=0.4,
            hard_fault_rate=0.3,
            spare_rows=1,
            migration_limit=1,
            le_defect_density=100.0,
        )
    )
    app = get_app(args.trace_app)
    with trace_events.tracing() as tracer:
        run_radram(app, args.trace_pages, radram_config=traced_cfg)
    events = tracer.events()
    fault_instants = sum(1 for e in events if e.track == "faults" and e.ph == "I")
    trace_export.write_chrome_trace(args.out, events)
    print(
        f"trace: wrote {len(events)} events ({fault_instants} fault instants) "
        f"to {args.out}"
    )
    return 0


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    parser.add_argument("--output", metavar="DIR")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N", help="parallel sweep workers"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="bypass the sweep result cache"
    )
    parser.add_argument(
        "--trace-summary",
        action="store_true",
        help="trace sweep runs; cached results carry trace.* digests",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-task deadline in seconds (pooled sweeps preempt hangs)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts for crashed/hung/raising sweep tasks",
    )
    parser.add_argument(
        "--allow-failures",
        action="store_true",
        help="exit 0 even if sweep tasks failed (default: exit 1)",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.runner import PAPER_SIX, check_apps

    names = list(args.names)
    if names == ["all"]:
        names = sorted(ALL_APPS)
    elif names == ["paper-six"]:
        names = list(PAPER_SIX)
    report = check_apps(names, n_pages=args.pages, strict=args.strict)
    print(report.render())
    return 0 if report.clean else 2


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "submit":
        # Dispatch straight to the client's own parser: its remainder
        # may legitimately *start* with an option (``submit --resume
        # JOB``), which argparse.REMAINDER refuses to capture
        # (bpo-17050).
        from repro.serve import client as client_mod

        return client_mod.main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="regenerate tables and figures")
    p_report.add_argument("--only", nargs="*", choices=sorted(report_mod.EXPERIMENTS))
    p_report.add_argument("--extensions", action="store_true")
    _add_sweep_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    for alias, experiment_id in EXPERIMENT_ALIASES.items():
        p_exp = sub.add_parser(alias, help=f"regenerate {experiment_id} only")
        _add_sweep_flags(p_exp)
        p_exp.set_defaults(func=_cmd_experiment)

    p_bench = sub.add_parser("bench", help="cache hot-path microbenchmarks")
    p_bench.add_argument(
        "--update", action="store_true", help="rewrite the BENCH_sim.json baseline"
    )
    p_bench.add_argument("--note", metavar="TEXT", help="note stored with --update")
    p_bench.add_argument(
        "--trials",
        type=int,
        default=3,
        metavar="N",
        help="fresh-hierarchy runs per workload (min-of-N; raise on noisy hosts)",
    )
    p_bench.add_argument(
        "--profile",
        action="store_true",
        help="profile the benchmark run; writes a cProfile top-25 "
        "cumulative digest",
    )
    p_bench.add_argument(
        "--profile-out",
        metavar="FILE",
        default="bench_profile.txt",
        help="digest path for --profile (default: bench_profile.txt)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_faults = sub.add_parser(
        "faults", help="defect density vs speedup under fault injection"
    )
    p_faults.add_argument(
        "--densities",
        type=float,
        nargs="*",
        default=None,
        metavar="D",
        help="LE defect densities (defects/cm^2) to sweep",
    )
    p_faults.add_argument("--seed", type=int, default=0, help="fault seed")
    p_faults.add_argument(
        "--out",
        metavar="FILE",
        default="trace_faults.json",
        help="Perfetto trace_event JSON with fault/scrub/remap instants",
    )
    p_faults.add_argument(
        "--trace-app",
        default="array-insert",
        choices=sorted(ALL_APPS),
        help="application used for the traced faulty run",
    )
    p_faults.add_argument("--trace-pages", type=float, default=8.0)
    _add_sweep_flags(p_faults)
    p_faults.set_defaults(func=_cmd_faults)

    p_fuzz = sub.add_parser(
        "fuzz", help="fuzz generated workloads under four oracles"
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="fuzz seed")
    p_fuzz.add_argument(
        "--time-box",
        type=float,
        default=None,
        metavar="S",
        help="stop after S seconds (default 60; smoke caps at 45)",
    )
    p_fuzz.add_argument(
        "--max-cases",
        type=int,
        default=None,
        metavar="N",
        help="stop after N candidates (makes runs seed-deterministic)",
    )
    p_fuzz.add_argument(
        "--apps",
        nargs="*",
        default=None,
        metavar="NAME",
        help="generators to fuzz (default: the FUZZ_APPS set)",
    )
    p_fuzz.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        metavar="X",
        help="scale every generator's model tolerance (CI uses 1.0)",
    )
    p_fuzz.add_argument(
        "--out",
        metavar="DIR",
        default="fuzz-findings",
        help="directory for shrunk counterexample JSON case files",
    )
    p_fuzz.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke profile: <=45s, <=120 candidates",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="FILE",
        help="re-run one written case file (exit 2 if it reproduces)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_cache = sub.add_parser(
        "cache", help="inspect, summarize, prune or clear the sweep cache"
    )
    p_cache.add_argument(
        "action",
        nargs="?",
        default="info",
        choices=("info", "stats", "prune", "clear"),
        help="info (default): dir/entry/size summary; stats: adds schema "
        "breakdown and entry age range; prune: drop entries older than "
        "--days; clear: drop everything",
    )
    p_cache.add_argument(
        "--days",
        type=float,
        default=30.0,
        metavar="N",
        help="age threshold for prune (default 30)",
    )
    p_cache.add_argument("--clear", action="store_true", help=argparse.SUPPRESS)
    p_cache.set_defaults(func=_cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the long-running simulation service"
    )
    from repro.serve.server import add_serve_arguments

    add_serve_arguments(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit work to a running serve instance and stream events",
        add_help=False,
    )
    p_submit.add_argument("rest", nargs=argparse.REMAINDER)
    p_submit.set_defaults(func=_cmd_submit)

    p_app = sub.add_parser("app", help="run one application")
    p_app.add_argument("name", choices=sorted(ALL_APPS))
    p_app.add_argument("--pages", type=float, default=16.0)
    p_app.add_argument("--exact", action="store_true", help="no extrapolation")
    p_app.set_defaults(func=_cmd_app)

    p_check = sub.add_parser(
        "check", help="run app(s) under the runtime sanitizer"
    )
    p_check.add_argument(
        "names",
        nargs="+",
        choices=sorted(ALL_APPS) + ["all", "paper-six"],
        help="applications to check ('all', or 'paper-six' for the "
        "six-app acceptance set)",
    )
    p_check.add_argument("--pages", type=float, default=8.0)
    p_check.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first violation instead of counting",
    )
    p_check.set_defaults(func=_cmd_check)

    p_synth = sub.add_parser("synth", help="print Table 3")
    p_synth.set_defaults(func=_cmd_synth)

    p_yield = sub.add_parser("yield", help="yield/cost comparison")
    p_yield.add_argument("--defects", type=float, default=1.0, help="defects/cm^2")
    p_yield.set_defaults(func=_cmd_yield)

    p_power = sub.add_parser("power", help="port-width power study")
    p_power.set_defaults(func=_cmd_power)

    p_trace = sub.add_parser(
        "trace", help="traced run: Gantt chart + Perfetto/CSV export"
    )
    p_trace.add_argument("name", choices=sorted(ALL_APPS) + ["fig6"])
    p_trace.add_argument("--pages", type=float, default=8.0)
    p_trace.add_argument("--max-pages", type=int, default=16)
    p_trace.add_argument(
        "--out", metavar="FILE", help="write Chrome/Perfetto trace_event JSON"
    )
    p_trace.add_argument("--csv", metavar="FILE", help="write a flat event CSV")
    p_trace.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
