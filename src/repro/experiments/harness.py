"""Parallel sweep execution with content-addressed result caching.

Every figure/table of the evaluation is a *sweep*: the same
simulation, repeated over a grid of (application, problem size,
machine parameters).  Re-simulating each point serially and from
scratch on every invocation makes the report and the benchmark suite
the slowest path in the repository.  This module treats experiment
execution as a small batch system instead:

``SweepTask``
    One pure, hashable point of a sweep — application name, problem
    size, full :class:`~repro.sim.config.MachineConfig` /
    :class:`~repro.radram.config.RADramConfig` (``None`` = reference),
    seed, and a *mode* selecting what is measured.  A task captures
    everything the simulation depends on, so two equal tasks always
    produce bit-identical results.

``run_sweep``
    Executes a list of tasks, preserving input order.  Identical tasks
    are computed once; with ``jobs > 1`` the distinct tasks fan out
    across a process pool (each worker rebuilds the whole machine from
    the task, and per-task RNG seeding is derived from the task hash,
    so pooled and in-process execution are bit-identical).  Execution
    is *resilient*: a raising task records a per-task failure instead
    of aborting the sweep, crashed or hung workers are retried with
    exponential backoff (``retries`` / ``task_timeout_s`` settings),
    and a sweep with unrecoverable tasks still returns — partial, with
    the failures itemized in ``SweepOutcome.notes()``.  Completed
    tasks are memoized in an on-disk cache.

    The execution core (cache lookup, duplicate folding, pool fan-out,
    retry/timeout machinery) lives in
    :class:`repro.serve.scheduler.TaskScheduler`; ``run_sweep`` wraps
    it with the process-wide settings and counters.  The ``repro
    serve`` server drives the identical scheduler, so service and CLI
    share one execution policy.  Four context-local scopes let a
    caller (a server worker thread, a test) adjust one sweep without
    touching the process-global settings: :func:`settings_scope`,
    :func:`coalesce_scope` (install a
    :class:`~repro.serve.scheduler.SingleFlight` table),
    :func:`pool_scope` (run on a long-lived
    :class:`~repro.serve.scheduler.WorkerPool`) and
    :func:`progress_scope` (observe per-task completions).

``ResultCache``
    A content-addressed JSON store under ``.repro_cache/`` (or
    ``$REPRO_CACHE_DIR``).  Keys are SHA-256 hashes over the canonical
    task encoding, the cache schema version, and ``repro.__version__``;
    corrupt or truncated entries are dropped and recomputed.  The
    ``--no-cache`` CLI flag (→ :func:`configure`) bypasses it.

Experiment modules declare their sweeps as task lists and read results
back positionally; cache-hit counters and simulation wall-time are
surfaced in ``ExperimentResult.notes`` (prefixed ``harness:`` so
regression tooling can strip the volatile lines).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import hashlib
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._version import __version__
from repro.apps.base import PHASE_ACTIVATION, PHASE_POST
from repro.radram.config import RADramConfig
from repro.sim.config import MachineConfig
from repro.sim.memory import DEFAULT_PAGE_BYTES

#: Bump when the meaning of cached values changes (invalidates entries).
CACHE_SCHEMA = 5  # bumped: trace digests sample DRAM and bus once per narrow cache call

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment override for the cache location (used by the test suite
#: to keep sweep caches isolated per session).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Task modes.
MODE_SPEEDUP = "speedup"  # conventional vs RADram at one size
MODE_CONSTANTS = "constants"  # Table 4 calibration (T_A/T_P/T_C)
MODE_FAULTS = "faults"  # speedup under fault injection + fault counters

_MODES = (MODE_SPEEDUP, MODE_CONSTANTS, MODE_FAULTS)


# ----------------------------------------------------------------------
# Tasks


#: Accepted forms of ``SweepTask.workload_params`` before normalization.
ParamsLike = Union[Mapping[str, float], Sequence[Tuple[str, float]], None]


@dataclass(frozen=True)
class SweepTask:
    """One pure, hashable sweep point.

    ``machine_config``/``radram_config`` of ``None`` mean the Table 1
    reference configuration (kept as ``None`` — not expanded — so the
    common case hashes compactly and reference-default drift is caught
    by the ``repro.__version__`` component of the key).

    ``workload_params`` carries the generator axis values of a
    parametric workload (:mod:`repro.workloads`) as a sorted tuple of
    ``(axis, value)`` pairs (mappings are normalized); ``generator``
    is the producing generator's version tag (``"database/v1"``).
    Both are part of :meth:`key`, so a cached result from the fixed
    datasets (``None``) can never be served for a generated workload,
    nor across generator versions.
    """

    app_name: str
    n_pages: float
    mode: str = MODE_SPEEDUP
    page_bytes: int = DEFAULT_PAGE_BYTES
    seed: int = 0
    cap_pages: Optional[float] = None
    machine_config: Optional[MachineConfig] = None
    radram_config: Optional[RADramConfig] = None
    workload_params: ParamsLike = None
    generator: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.n_pages <= 0:
            raise ValueError("n_pages must be positive")
        if self.workload_params is not None:
            items = (
                self.workload_params.items()
                if isinstance(self.workload_params, Mapping)
                else self.workload_params
            )
            normalized = tuple(
                sorted((str(k), float(v)) for k, v in items)
            )
            object.__setattr__(self, "workload_params", normalized)

    def params_dict(self) -> Optional[Dict[str, float]]:
        """The workload axis values as a mapping (None = fixed data)."""
        if self.workload_params is None:
            return None
        return dict(self.workload_params)

    def canonical(self) -> Dict[str, object]:
        """JSON-ready encoding; equal tasks encode identically."""
        encoded = dataclasses.asdict(self)
        return encoded

    def key(self) -> str:
        """Stable content hash identifying this task's result."""
        payload = {
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "task": self.canonical(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Sentinel: "use the runner's default extrapolation cap".
_DEFAULT_CAP = object()


def speedup_task(
    app_name: str,
    n_pages: float,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    seed: int = 0,
    cap_pages: object = _DEFAULT_CAP,
    machine_config: Optional[MachineConfig] = None,
    radram_config: Optional[RADramConfig] = None,
    params: ParamsLike = None,
    generator: Optional[str] = None,
) -> SweepTask:
    """A conventional-vs-RADram measurement at one problem size."""
    from repro.experiments.runner import DEFAULT_CAP_PAGES

    if cap_pages is _DEFAULT_CAP:
        cap_pages = DEFAULT_CAP_PAGES
    return SweepTask(
        app_name=app_name,
        n_pages=n_pages,
        mode=MODE_SPEEDUP,
        page_bytes=page_bytes,
        seed=seed,
        cap_pages=cap_pages,
        machine_config=machine_config,
        radram_config=radram_config,
        workload_params=params,
        generator=generator,
    )


def faults_task(
    app_name: str,
    n_pages: float,
    radram_config: RADramConfig,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    seed: int = 0,
    cap_pages: object = _DEFAULT_CAP,
) -> SweepTask:
    """A speedup measurement under fault injection.

    ``radram_config`` must carry a :class:`repro.faults.models.FaultConfig`
    (``RADramConfig.with_faults``); the task's values gain the
    ``faults.*`` counters next to the usual speedup keys.
    """
    from repro.experiments.runner import DEFAULT_CAP_PAGES

    if radram_config.faults is None:
        raise ValueError("faults_task needs a radram_config with faults set")
    if cap_pages is _DEFAULT_CAP:
        cap_pages = DEFAULT_CAP_PAGES
    return SweepTask(
        app_name=app_name,
        n_pages=n_pages,
        mode=MODE_FAULTS,
        page_bytes=page_bytes,
        seed=seed,
        cap_pages=cap_pages,
        radram_config=radram_config,
    )


def constants_task(
    app_name: str,
    n_pages: float,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    seed: int = 0,
    params: ParamsLike = None,
    generator: Optional[str] = None,
) -> SweepTask:
    """A Table 4 calibration run (T_A/T_P/T_C; conventional un-capped)."""
    return SweepTask(
        app_name=app_name,
        n_pages=n_pages,
        mode=MODE_CONSTANTS,
        page_bytes=page_bytes,
        seed=seed,
        cap_pages=None,
        workload_params=params,
        generator=generator,
    )


# ----------------------------------------------------------------------
# Execution


def _seed_rngs(task: SweepTask) -> None:
    """Seed global RNGs deterministically from the task identity.

    Workloads take explicit seeds, but seeding the global generators
    too guarantees pooled workers and in-process execution see the same
    RNG state even if some code path consults ``random``/``numpy``.
    """
    derived = int(task.key()[:16], 16) ^ task.seed
    random.seed(derived)
    try:
        import numpy as np

        np.random.seed(derived % (2**32))
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass


#: Key prefix under which trace summaries land in task values.
TRACE_KEY_PREFIX = "trace."


def execute_task(task: SweepTask, trace_summary: bool = False) -> Dict[str, float]:
    """Run one task's simulations; returns a flat, JSON-able mapping.

    With ``trace_summary`` the simulations execute under
    :func:`repro.trace.events.tracing` and the flattened
    :func:`repro.trace.export.summarize` of the captured events is
    merged into the values under ``trace.``-prefixed keys — so cached
    sweep results carry a trace digest alongside the measurements.
    """
    if trace_summary:
        from repro.trace import events as trace_events
        from repro.trace import export as trace_export

        with trace_events.tracing() as tracer:
            values = execute_task(task, trace_summary=False)
        summary = trace_export.summarize(tracer.events())
        values.update(
            {f"{TRACE_KEY_PREFIX}{k}": float(v) for k, v in summary.items()}
        )
        return values

    from repro.apps.registry import get_app
    from repro.experiments.runner import (
        measure_speedup,
        run_conventional,
        run_radram,
    )
    from repro.faults import chaos

    chaos.maybe_injure(task.key(), task.app_name)
    _seed_rngs(task)
    app = get_app(task.app_name)
    params = task.params_dict()
    if task.mode == MODE_FAULTS:
        conv = run_conventional(
            app,
            task.n_pages,
            page_bytes=task.page_bytes,
            machine_config=task.machine_config,
            seed=task.seed,
            cap_pages=task.cap_pages,
            params=params,
        )
        rad = run_radram(
            app,
            task.n_pages,
            page_bytes=task.page_bytes,
            machine_config=task.machine_config,
            radram_config=task.radram_config,
            seed=task.seed,
            params=params,
        )
        values = {
            "conventional_ns": conv.total_ns,
            "radram_ns": rad.total_ns,
            "speedup": conv.total_ns / rad.total_ns,
            "stall_fraction": rad.stall_fraction,
        }
        values.update(
            {f"faults.{name}": v for name, v in rad.fault_counters.items()}
        )
        return values
    if task.mode == MODE_SPEEDUP:
        point = measure_speedup(
            app,
            task.n_pages,
            page_bytes=task.page_bytes,
            machine_config=task.machine_config,
            radram_config=task.radram_config,
            seed=task.seed,
            cap_pages=task.cap_pages,
            params=params,
        )
        return {
            "conventional_ns": point.conventional_ns,
            "radram_ns": point.radram_ns,
            "speedup": point.speedup,
            "stall_fraction": point.stall_fraction,
        }
    # MODE_CONSTANTS — Section 7.4.2 calibration at a medium size.
    rad = run_radram(
        app,
        task.n_pages,
        page_bytes=task.page_bytes,
        machine_config=task.machine_config,
        radram_config=task.radram_config,
        seed=task.seed,
        params=params,
    )
    conv = run_conventional(
        app,
        task.n_pages,
        page_bytes=task.page_bytes,
        machine_config=task.machine_config,
        seed=task.seed,
        cap_pages=task.cap_pages,
        params=params,
    )
    activations = max(1, rad.stats.activations)
    return {
        "t_a_us": rad.stats.phase_mean_ns(PHASE_ACTIVATION) / 1e3,
        "t_p_us": rad.stats.phase_mean_ns(PHASE_POST, exclude_wait=True) / 1e3,
        "t_c_us": rad.mean_page_busy_ns / 1e3,
        "t_conv_per_activation_us": conv.total_ns / activations / 1e3,
        "activations": float(rad.stats.activations),
    }


@dataclass
class TaskResult:
    """One completed (or failed) task: values plus execution metadata."""

    task: SweepTask
    values: Dict[str, float]
    wall_s: float
    cached: bool = False
    #: how many execution attempts this result took (1 = first try).
    attempts: int = 1
    #: set when the task failed every attempt; ``values`` is then empty.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def __getitem__(self, name: str) -> float:
        if self.error is not None:
            raise KeyError(
                f"task {self.task.app_name}@{self.task.n_pages:g} failed: "
                f"{self.error}"
            )
        return self.values[name]


def _timed_execute(task: SweepTask, trace_summary: bool = False) -> TaskResult:
    t0 = time.perf_counter()
    values = execute_task(task, trace_summary=trace_summary)
    return TaskResult(task=task, values=values, wall_s=time.perf_counter() - t0)


def _pool_entry(
    task: SweepTask, trace_summary: bool = False
) -> Tuple[Dict[str, float], float]:
    """Top-level worker entry point (must be picklable).

    ``trace_summary`` is threaded explicitly (via ``functools.partial``)
    because pool workers do not inherit the parent's process-global
    harness settings.
    """
    t0 = time.perf_counter()
    values = execute_task(task, trace_summary=trace_summary)
    return values, time.perf_counter() - t0


# ----------------------------------------------------------------------
# On-disk cache


class ResultCache:
    """Content-addressed JSON store of completed task results."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.last_journal_prune = {"journals": 0, "tmp": 0}

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, task: SweepTask) -> Optional[TaskResult]:
        """The memoized result, or None (corrupt entries are dropped)."""
        path = self.path_for(task.key())
        try:
            payload = json.loads(path.read_text())
            values = payload["values"]
            wall_s = float(payload["wall_s"])
            if not isinstance(values, dict) or not values:
                raise ValueError("empty or malformed values")
            values = {str(k): float(v) for k, v in values.items()}
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt-entry recovery: discard and let the caller re-run.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return TaskResult(task=task, values=values, wall_s=wall_s, cached=True)

    def _claim_tmp(self, path: Path) -> Tuple[int, Path]:
        """Open a tmp file next to ``path`` that no other writer holds.

        Names combine pid and a process-local counter and are opened
        ``O_EXCL``, so two stores of the *same key* — concurrent
        threads of one server, or independent CLI processes (even
        across pid reuse) — can never share a tmp file and truncate
        each other mid-write.  Tmp names keep the ``.tmp.*`` suffix
        form, invisible to :meth:`entries`' ``*.json`` glob.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        while True:
            tmp = path.with_suffix(
                f".tmp.{os.getpid()}.{next(self._tmp_counter)}"
            )
            try:
                return os.open(tmp, flags, 0o644), tmp
            except FileExistsError:
                continue  # stale leftover from a killed writer: pick another

    #: Process-local uniquifier for tmp names (shared by all instances;
    #: combined with the pid it makes every claimed tmp name unique).
    _tmp_counter = itertools.count()

    def store(self, result: TaskResult) -> None:
        """Persist one result atomically and durably.

        Crash safety: the payload is written to a sibling tmp file
        (never matched by :meth:`entries`' ``*.json`` glob), fsynced,
        then :func:`os.replace`\\ d over the final name — a reader
        either sees no entry or a complete one, never a torn write,
        even when the writer is killed mid-store.  Concurrency safety:
        every writer claims its *own* ``O_EXCL`` tmp name
        (:meth:`_claim_tmp`), so racing stores of one key each rename a
        complete payload — last writer wins, bit-identical content
        either way.  Failed tasks are never stored.
        """
        if result.error is not None:
            return
        key = result.task.key()
        path = self.path_for(key)
        payload = {
            "key": key,
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "task": result.task.canonical(),
            "values": result.values,
            "wall_s": result.wall_s,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = self._claim_tmp(path)
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(payload, sort_keys=True, indent=1))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            # Make the rename itself durable (directory metadata).
            try:
                dir_fd = os.open(path.parent, os.O_RDONLY)
            except OSError:
                pass  # platform without directory fds
            else:
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
        except OSError:
            # A read-only cache directory must not fail the sweep.
            pass

    def entries(self) -> List[Path]:
        """All cache entry files currently on disk."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def journal_store(self):
        """The serve job-journal store sharing this cache root.

        Job journals (:mod:`repro.serve.journal`) live under
        ``<cache>/jobs/`` so the cache CLI and ``/cache/stats`` cover
        the serve layer's durable state too.
        """
        from repro.serve.journal import JournalStore

        return JournalStore(self.root / "jobs")

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, object]:
        """Cache introspection: entry count, bytes, schema mix, age.

        Shared by ``python -m repro cache stats`` and the server's
        ``GET /cache/stats`` endpoint.  Schemas are read from each
        entry's payload (``"corrupt"`` buckets unreadable files);
        timestamps are entry mtimes in epoch seconds.
        """
        entries = self.entries()
        total_bytes = 0
        by_schema: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for path in entries:
            try:
                st = path.stat()
                payload = json.loads(path.read_text())
                schema = str(payload.get("schema", "unknown"))
            except (OSError, ValueError):
                schema = "corrupt"
                try:
                    st = path.stat()
                except OSError:
                    continue
            total_bytes += st.st_size
            by_schema[schema] = by_schema.get(schema, 0) + 1
            oldest = st.st_mtime if oldest is None else min(oldest, st.st_mtime)
            newest = st.st_mtime if newest is None else max(newest, st.st_mtime)
        return {
            "dir": str(self.root),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "by_schema": dict(sorted(by_schema.items())),
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "jobs": self.journal_store().stats(),
        }

    #: Journal counts removed by the most recent :meth:`prune` call
    #: (``{"journals": n, "tmp": n}``) — surfaced by
    #: the cache CLI.
    last_journal_prune: Dict[str, int]

    def prune(self, days: float) -> int:
        """Remove entries older than ``days`` (by mtime); returns count.

        Leftover ``*.tmp.*`` files from killed writers past the cutoff
        are swept as well (they never count toward the return value —
        they were never entries), and so are *completed* job journals
        and orphaned journal tmp litter under ``<cache>/jobs/``
        (counts in :attr:`last_journal_prune`; incomplete journals are
        recoverable work and are never pruned).
        """
        if days < 0:
            raise ValueError("days cannot be negative")
        cutoff = time.time() - days * 86400.0
        removed = 0
        for path in self.entries():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        if self.root.is_dir():
            for tmp in self.root.glob("*/*.tmp.*"):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                except OSError:
                    pass
        self.last_journal_prune = self.journal_store().prune(days)
        return removed


# ----------------------------------------------------------------------
# Settings (process-wide defaults, set from the CLI)


@dataclass
class HarnessSettings:
    """Execution policy for :func:`run_sweep`."""

    jobs: int = 1
    use_cache: bool = True
    cache_dir: Optional[str] = None  # None -> $REPRO_CACHE_DIR or default
    trace_summary: bool = False  # attach trace.* digests to task values
    #: per-task wall-clock deadline; None = wait forever.  Only pooled
    #: execution (jobs > 1) can preempt a hung simulation.
    task_timeout_s: Optional[float] = None
    #: extra attempts after a crashed/hung/raising task (0 = one try).
    retries: int = 2
    #: base delay between retry rounds; doubles each round.
    retry_backoff_s: float = 0.25

    def resolve_cache_dir(self) -> Path:
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


_settings = HarnessSettings()


def configure(
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    trace_summary: Optional[bool] = None,
    task_timeout_s: Optional[float] = None,
    retries: Optional[int] = None,
    retry_backoff_s: Optional[float] = None,
) -> HarnessSettings:
    """Update the process-wide sweep settings (CLI entry point)."""
    if jobs is not None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        _settings.jobs = jobs
    if use_cache is not None:
        _settings.use_cache = use_cache
    if cache_dir is not None:
        _settings.cache_dir = cache_dir
    if trace_summary is not None:
        _settings.trace_summary = trace_summary
    if task_timeout_s is not None:
        if task_timeout_s <= 0:
            raise ValueError("task timeout must be positive")
        _settings.task_timeout_s = task_timeout_s
    if retries is not None:
        if retries < 0:
            raise ValueError("retries cannot be negative")
        _settings.retries = retries
    if retry_backoff_s is not None:
        if retry_backoff_s < 0:
            raise ValueError("retry backoff cannot be negative")
        _settings.retry_backoff_s = retry_backoff_s
    return _settings


#: Context-local override of the process-wide settings.  Each thread
#: (and asyncio task) starts from an empty context, so a server worker
#: scoping its own settings never races another worker or the CLI.
_settings_override: "contextvars.ContextVar[Optional[HarnessSettings]]" = (
    contextvars.ContextVar("repro_harness_settings", default=None)
)

#: Context-local coalescing executor for distinct uncached tasks
#: (``(tasks, scheduler) -> List[TaskResult]``; see
#: :class:`repro.serve.scheduler.SingleFlight`).
_unique_executor: "contextvars.ContextVar[Optional[Callable]]" = (
    contextvars.ContextVar("repro_harness_unique_executor", default=None)
)

#: Context-local shared worker pool (a
#: :class:`repro.serve.scheduler.WorkerPool`); ``None`` gives each
#: pooled sweep a private pool for the length of the call.
_worker_pool: "contextvars.ContextVar[Optional[object]]" = (
    contextvars.ContextVar("repro_harness_worker_pool", default=None)
)

#: Context-local per-task progress observer (``(TaskResult) -> None``).
_progress_callback: "contextvars.ContextVar[Optional[Callable]]" = (
    contextvars.ContextVar("repro_harness_progress", default=None)
)


def current_settings() -> HarnessSettings:
    """A copy of the effective settings (context override or globals)."""
    override = _settings_override.get()
    return dataclasses.replace(override if override is not None else _settings)


@contextlib.contextmanager
def settings_scope(settings: HarnessSettings):
    """Pin :func:`current_settings` to ``settings`` within this context.

    Context-local (per thread / asyncio task): the server uses it to
    give each job its own execution policy without mutating the
    process-wide CLI settings.
    """
    token = _settings_override.set(settings)
    try:
        yield settings
    finally:
        _settings_override.reset(token)


@contextlib.contextmanager
def coalesce_scope(executor: Callable):
    """Route this context's sweeps through a coalescing executor.

    ``executor`` receives ``(distinct_uncached_tasks, scheduler)`` and
    returns their results in order — typically a shared
    :class:`repro.serve.scheduler.SingleFlight` so identical in-flight
    work across concurrent sweeps executes exactly once.
    """
    token = _unique_executor.set(executor)
    try:
        yield executor
    finally:
        _unique_executor.reset(token)


@contextlib.contextmanager
def pool_scope(pool):
    """Run this context's pooled sweeps on ``pool``.

    ``pool`` is a :class:`repro.serve.scheduler.WorkerPool` its owner
    keeps warm across sweeps and shuts down itself — the server hands
    its one pool to every job thread this way.
    """
    token = _worker_pool.set(pool)
    try:
        yield pool
    finally:
        _worker_pool.reset(token)


@contextlib.contextmanager
def progress_scope(callback: Callable):
    """Observe every finished task of this context's sweeps.

    ``callback(result: TaskResult)`` fires once per task position
    resolved (cache hits included).  Exceptions it raises are swallowed
    — observers must never fail a sweep.
    """
    token = _progress_callback.set(callback)
    try:
        yield callback
    finally:
        _progress_callback.reset(token)


def reset_settings() -> None:
    """Restore the default settings (test isolation)."""
    global _settings
    _settings = HarnessSettings()


# ----------------------------------------------------------------------
# Sweep execution


@dataclass
class SweepStats:
    """Cache-hit counters and wall-time for one sweep."""

    tasks: int = 0
    unique: int = 0
    hits: int = 0
    misses: int = 0
    sim_wall_s: float = 0.0
    #: tasks that failed every attempt (their results carry ``error``).
    failed: int = 0
    #: extra attempts spent on crashed/hung/raising tasks.
    retried: int = 0


@dataclass
class SweepOutcome:
    """Ordered results of one :func:`run_sweep` call."""

    results: List[TaskResult]
    stats: SweepStats
    settings: HarnessSettings = field(default_factory=HarnessSettings)

    def __iter__(self) -> Iterator[TaskResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> TaskResult:
        return self.results[index]

    def notes(self) -> List[str]:
        """Human-readable sweep accounting for ``ExperimentResult.notes``.

        Prefixed ``harness:`` — the wall-time line is volatile, so
        golden-output comparisons strip lines with this prefix.
        """
        s = self.stats
        lines = [
            f"harness: {s.tasks} tasks ({s.misses} simulated, {s.hits} cached), "
            f"jobs={self.settings.jobs}",
            f"harness: simulation wall time {s.sim_wall_s:.2f}s",
        ]
        if s.retried:
            lines.append(f"harness: {s.retried} attempt(s) retried")
        if s.failed:
            lines.append(f"harness: {s.failed} task(s) FAILED (partial sweep)")
            # Duplicate tasks share one TaskResult: report each failure once.
            unique_failures = {id(r): r for r in self.results if r.error is not None}
            for r in unique_failures.values():
                lines.append(
                    f"harness: failed {r.task.app_name}@{r.task.n_pages:g} "
                    f"[{r.task.mode}] after {r.attempts} attempt(s): {r.error}"
                )
        return lines

    @property
    def complete(self) -> bool:
        """Whether every task produced values (no failures)."""
        return self.stats.failed == 0

    def failed_results(self) -> List[TaskResult]:
        return [r for r in self.results if r.error is not None]


#: Stats of the most recent sweep (introspection for tests/CLI).
last_sweep_stats: Optional[SweepStats] = None

#: Failed tasks accumulated across *all* sweeps since the last
#: :func:`reset_failed_tasks` — a report runs many sweeps and
#: ``last_sweep_stats`` only remembers the final one, so the CLI exit
#: code reads this cumulative counter instead.
total_failed_tasks: int = 0


def reset_failed_tasks() -> None:
    """Zero the cumulative failed-task counter (start of a report)."""
    global total_failed_tasks
    total_failed_tasks = 0


def run_sweep(
    tasks: Sequence[SweepTask],
    settings: Optional[HarnessSettings] = None,
) -> SweepOutcome:
    """Execute ``tasks`` (cache → pool → in-process), preserving order.

    Results are returned positionally: ``outcome[i]`` corresponds to
    ``tasks[i]``.  Duplicate tasks are simulated once and fanned back
    out to every position that requested them.

    This is a thin wrapper over
    :class:`repro.serve.scheduler.TaskScheduler` — it resolves the
    effective settings/cache and the context-local coalescing, pool and
    progress hooks, delegates, and maintains the process-wide
    ``last_sweep_stats`` / ``total_failed_tasks`` counters.
    """
    from repro.serve.scheduler import TaskScheduler

    global last_sweep_stats, total_failed_tasks
    settings = settings if settings is not None else current_settings()
    cache = ResultCache(settings.resolve_cache_dir()) if settings.use_cache else None
    scheduler = TaskScheduler(
        settings,
        cache=cache,
        unique_executor=_unique_executor.get(),
        on_task_done=_progress_callback.get(),
        pool=_worker_pool.get(),
    )
    outcome = scheduler.run_sweep(tasks)
    last_sweep_stats = outcome.stats
    total_failed_tasks += outcome.stats.failed
    return outcome
