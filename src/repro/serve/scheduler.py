"""Reusable sweep scheduler: cache -> dedupe -> pool, plus single-flight.

This module is the execution core extracted from
:mod:`repro.experiments.harness`.  The harness's :func:`run_sweep`
delegates to :class:`TaskScheduler` (bit-identical results — the CLI
path is the same moved code), and the ``repro serve`` server drives the
very same component for its multi-tenant jobs, so there is exactly one
implementation of the retry/timeout/pool-isolation policy.

Pieces
------

``TaskScheduler``
    Executes :class:`~repro.experiments.harness.SweepTask` lists:
    cache lookup, duplicate folding, pooled fan-out with bounded
    retries, exponential backoff, per-task timeout preemption and
    post-break pool isolation.  Two seams make it reusable and
    deterministic to test:

    * ``clock`` — all sleeping, timing and future-waiting goes through
      a :class:`SystemClock`; tests substitute a fake clock and assert
      the retry/backoff schedule *exactly* instead of timing it.
    * ``pool_factory`` — worker pools are built through an injectable
      factory (default :class:`~concurrent.futures.ProcessPoolExecutor`),
      so scheduling decisions can be exercised without real processes.

``SingleFlight``
    A thread-safe in-flight task table keyed by the content-addressed
    cache key: the first caller of a key computes, every concurrent
    caller for the same key waits for that one computation and shares
    the result.  Installed into a sweep via
    :func:`repro.experiments.harness.coalesce_scope`, it is what lets
    the server coalesce identical work across tenants.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.experiments.harness import (
        HarnessSettings,
        ResultCache,
        SweepOutcome,
        SweepTask,
        TaskResult,
    )

#: Hard ceiling on one backoff delay (seconds), regardless of round.
MAX_BACKOFF_S = 30.0


class SystemClock:
    """Real time: the default clock behind sleeping and future waits."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_future(self, future: Future, timeout: Optional[float]):
        """Block on ``future`` for at most ``timeout`` seconds.

        Raises :class:`concurrent.futures.TimeoutError` on expiry —
        exactly :meth:`Future.result`'s contract.  Fake clocks override
        this to script timeout schedules deterministically.
        """
        return future.result(timeout=timeout)


class TaskScheduler:
    """Cache-aware, retrying executor of sweep task lists.

    One scheduler executes one policy (:class:`HarnessSettings`); it is
    cheap to construct, so the harness builds a fresh one per
    :func:`~repro.experiments.harness.run_sweep` call while the server
    keeps longer-lived ones per job.

    ``unique_executor`` is the coalescing seam: when set, the distinct
    uncached tasks of a sweep are handed to it (signature
    ``(tasks, scheduler) -> List[TaskResult]``) instead of being
    executed directly; :class:`SingleFlight` is the canonical
    implementation and calls back into :meth:`execute_distinct` for
    the tasks it actually owns.
    """

    def __init__(
        self,
        settings: "HarnessSettings",
        cache: Optional["ResultCache"] = None,
        clock: Optional[SystemClock] = None,
        pool_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
        unique_executor: Optional[Callable] = None,
        on_task_done: Optional[Callable[["TaskResult"], None]] = None,
    ) -> None:
        self.settings = settings
        self.cache = cache
        self.clock = clock if clock is not None else SystemClock()
        self.pool_factory = (
            pool_factory if pool_factory is not None else ProcessPoolExecutor
        )
        self.unique_executor = unique_executor
        self.on_task_done = on_task_done

    # ------------------------------------------------------------------
    # Sweep orchestration (cache -> dedupe -> execute -> fan back out)

    def run_sweep(self, tasks: Sequence["SweepTask"]) -> "SweepOutcome":
        """Execute ``tasks`` (cache -> pool -> in-process), in order.

        Results are positional: ``outcome[i]`` corresponds to
        ``tasks[i]``; duplicate tasks are simulated once and fanned
        back out to every position that requested them.
        """
        from repro.experiments.harness import (
            TRACE_KEY_PREFIX,
            SweepOutcome,
            SweepStats,
        )

        settings = self.settings
        cache = self.cache
        stats = SweepStats(tasks=len(tasks))

        results: List[Optional["TaskResult"]] = [None] * len(tasks)
        pending: Dict["SweepTask", List[int]] = {}
        for i, task in enumerate(tasks):
            if task in pending:  # duplicate of an already-pending task
                pending[task].append(i)
                continue
            hit = cache.load(task) if cache is not None else None
            if hit is not None and settings.trace_summary and not any(
                k.startswith(TRACE_KEY_PREFIX) for k in hit.values
            ):
                # Cached before trace summaries were requested: recompute
                # so the entry gains its trace.* digest.
                hit = None
            if hit is not None:
                stats.hits += 1
                results[i] = hit
                self._notify(hit)
            else:
                pending[task] = [i]

        unique = list(pending)
        stats.unique = len(unique) + stats.hits
        stats.misses = len(unique)
        if unique:
            computed = self.execute_unique(unique)
            for task, result in zip(unique, computed):
                stats.sim_wall_s += result.wall_s
                stats.retried += result.attempts - 1
                if result.error is not None:
                    stats.failed += 1
                if cache is not None:
                    cache.store(result)  # no-op for failed results
                self._notify(result)
                for i in pending[task]:
                    results[i] = result

        assert all(r is not None for r in results)
        return SweepOutcome(results=results, stats=stats, settings=settings)  # type: ignore[arg-type]

    def execute_unique(self, tasks: List["SweepTask"]) -> List["TaskResult"]:
        """Execute distinct, uncached tasks (through the coalescer if set)."""
        if not tasks:
            return []
        if self.unique_executor is not None:
            return self.unique_executor(tasks, self)
        return self.execute_distinct(tasks)

    def execute_distinct(self, tasks: List["SweepTask"]) -> List["TaskResult"]:
        """Pooled or serial execution of distinct tasks, input order.

        A lone task runs in-thread (no pool start-up) unless a task
        timeout is set: only a pooled worker can be preempted.
        """
        settings = self.settings
        if settings.jobs > 1 and (len(tasks) > 1 or settings.task_timeout_s is not None):
            return self._run_pooled(tasks)
        return [self._execute_with_retry(task) for task in tasks]

    def _notify(self, result: "TaskResult") -> None:
        """Report one finished task to the progress callback (if any).

        A broken observer must never fail the sweep, so callback
        exceptions are swallowed.
        """
        if self.on_task_done is None:
            return
        try:
            self.on_task_done(result)
        except Exception:  # noqa: BLE001 - observer must not break sweeps
            pass

    # ------------------------------------------------------------------
    # Retry / backoff / pool machinery (moved from harness)

    def _backoff_sleep(self, round_index: int) -> None:
        """Exponential backoff between retry rounds (base * 2^round)."""
        delay = self.settings.retry_backoff_s * (2**round_index)
        if delay > 0:
            self.clock.sleep(min(delay, MAX_BACKOFF_S))

    def _execute_with_retry(self, task: "SweepTask") -> "TaskResult":
        """In-process execution with bounded retry on raising tasks.

        Serial execution cannot preempt a hung or crashed *process*
        (the task runs in this one); those failure modes are covered by
        the pooled path.  What it can survive is a task that raises.
        """
        from repro.experiments.harness import TaskResult, _timed_execute

        settings = self.settings
        last_error = "unknown"
        for attempt in range(settings.retries + 1):
            if attempt:
                self._backoff_sleep(attempt - 1)
            try:
                result = _timed_execute(
                    task, trace_summary=settings.trace_summary
                )
                result.attempts = attempt + 1
                return result
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - captured per task
                last_error = f"{type(exc).__name__}: {exc}"
        return TaskResult(
            task=task,
            values={},
            wall_s=0.0,
            attempts=settings.retries + 1,
            error=last_error,
        )

    @staticmethod
    def _terminate_workers(executor) -> None:
        """Forcefully end a pool's worker processes (hung-worker cleanup).

        ``ProcessPoolExecutor`` has no public kill switch; terminating
        the worker ``Process`` objects directly is the only way to
        reclaim a worker stuck in an unbounded simulation without
        blocking interpreter shutdown on its (non-daemon) process join.
        """
        processes = getattr(executor, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass

    def _run_pooled(self, tasks: List["SweepTask"]) -> List["TaskResult"]:
        """Fan distinct tasks out across worker processes, in input order.

        Resilience contract (exercised by the chaos tests):

        * a task that **raises** is captured as that task's failure,
          not a sweep abort;
        * a **killed** worker (OOM, segfault, chaos ``crash``) breaks
          the pool — every task still in flight is retried; because
          which task killed the pool is unknowable from the outside,
          later rounds run each task in its *own* single-worker pool,
          so a persistent crasher exhausts only its own attempt budget
          and innocent bystanders complete;
        * a **hung** worker trips ``task_timeout_s``; the stuck process
          is terminated and the task retried;
        * retry rounds back off exponentially and give up after
          ``settings.retries`` extra attempts, recording the last error.
        """
        from repro.experiments.harness import TaskResult, _pool_entry

        settings = self.settings
        entry = functools.partial(
            _pool_entry, trace_summary=settings.trace_summary
        )
        results: Dict[int, "TaskResult"] = {}
        attempts: Dict[int, int] = {i: 0 for i in range(len(tasks))}
        last_error: Dict[int, str] = {}
        remaining = list(range(len(tasks)))
        isolate = False  # after a pool break: one single-worker pool per task

        round_index = 0
        while remaining:
            if round_index:
                self._backoff_sleep(round_index - 1)
            retry: List[int] = []
            broke = False
            if isolate:
                # Crash attribution: each task gets a private pool (still
                # at most ``jobs`` worker processes alive at once).
                batches = [
                    remaining[k : k + settings.jobs]
                    for k in range(0, len(remaining), settings.jobs)
                ]
            else:
                batches = [remaining]
            for batch in batches:
                if isolate:
                    executors = {
                        i: self.pool_factory(max_workers=1) for i in batch
                    }
                else:
                    shared = self.pool_factory(
                        max_workers=min(settings.jobs, len(batch))
                    )
                    executors = {i: shared for i in batch}
                futures = {
                    i: executors[i].submit(entry, tasks[i]) for i in batch
                }
                hung = set()
                for i in batch:
                    attempts[i] += 1
                    try:
                        values, wall_s = self.clock.wait_future(
                            futures[i], settings.task_timeout_s
                        )
                    except FutureTimeoutError:
                        futures[i].cancel()
                        hung.add(executors[i])
                        last_error[i] = (
                            f"timed out after {settings.task_timeout_s:g}s"
                        )
                        retry.append(i)
                    except BrokenProcessPool:
                        # A worker died (crash/kill/OOM); every future on
                        # its pool is lost and must be retried.
                        broke = True
                        last_error[i] = "worker process died (broken pool)"
                        retry.append(i)
                    except KeyboardInterrupt:
                        for ex in set(executors.values()):
                            self._terminate_workers(ex)
                            ex.shutdown(wait=False, cancel_futures=True)
                        raise
                    except Exception as exc:  # noqa: BLE001 - captured per task
                        last_error[i] = f"{type(exc).__name__}: {exc}"
                        retry.append(i)
                    else:
                        results[i] = TaskResult(
                            task=tasks[i],
                            values=values,
                            wall_s=wall_s,
                            attempts=attempts[i],
                        )
                for ex in set(executors.values()):
                    if ex in hung:
                        # A hung worker never returns; joining it would
                        # hang the sweep (and interpreter exit) right
                        # behind it.
                        self._terminate_workers(ex)
                        ex.shutdown(wait=False, cancel_futures=True)
                    else:
                        ex.shutdown(wait=True, cancel_futures=True)
            if broke:
                isolate = True

            remaining = []
            for i in retry:
                if attempts[i] > settings.retries:
                    results[i] = TaskResult(
                        task=tasks[i],
                        values={},
                        wall_s=0.0,
                        attempts=attempts[i],
                        error=last_error.get(i, "unknown"),
                    )
                else:
                    remaining.append(i)
            round_index += 1

        return [results[i] for i in range(len(tasks))]


# ----------------------------------------------------------------------
# Single-flight coalescing


class _Flight:
    """One in-flight computation: an event plus its eventual result."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional["TaskResult"] = None


class SingleFlight:
    """Per-key single-flight table: one computation, many waiters.

    Keys are the content-addressed :meth:`SweepTask.key` — the same
    identity the on-disk cache uses, so coalescing composes with the
    cache: ``run_sweep`` consults the cache first, and only genuinely
    uncached work reaches this table.  The first sweep to register a
    key computes it (through its scheduler's normal pooled/serial
    path); every concurrent sweep asking for the same key blocks on the
    flight's event and shares the one result.

    Thread-safe; intended to be shared across the server's worker
    threads via :func:`repro.experiments.harness.coalesce_scope`.

    ``metrics`` is an optional namespace-like object (``.counter(name)``
    with ``.add()``) receiving ``computed`` / ``coalesce_hits``
    counters; increments happen under the table lock, so the counts
    are exact even under contention.
    """

    def __init__(self, metrics=None, wait_timeout_s: Optional[float] = None) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self.metrics = metrics
        #: safety valve for waiters (None = wait as long as it takes;
        #: publishers always publish, even on abort, via ``finally``).
        self.wait_timeout_s = wait_timeout_s

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).add(amount)

    def inflight_keys(self) -> List[str]:
        with self._lock:
            return sorted(self._inflight)

    def __call__(
        self, tasks: List["SweepTask"], scheduler: TaskScheduler
    ) -> List["TaskResult"]:
        """``unique_executor`` entry point: coalesce, compute, wait.

        ``tasks`` are the distinct uncached tasks of one sweep.  Keys
        not in flight are claimed and computed by *this* call via
        ``scheduler.execute_distinct``; keys already in flight are
        waited on.  Ordering of the returned results matches ``tasks``.
        """
        from repro.experiments.harness import TaskResult

        fresh: List["SweepTask"] = []
        flights: List[_Flight] = []
        waiting: Dict[str, _Flight] = {}
        with self._lock:
            for task in tasks:
                key = task.key()
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    fresh.append(task)
                    flights.append(flight)
                    self._count("computed")
                else:
                    waiting[key] = flight
                    self._count("coalesce_hits")

        computed: Optional[List["TaskResult"]] = None
        try:
            if fresh:
                computed = scheduler.execute_distinct(fresh)
        finally:
            # Publish under all circumstances — a waiter blocked on a
            # flight whose computation aborted must still wake up.
            with self._lock:
                for idx, (task, flight) in enumerate(zip(fresh, flights)):
                    if computed is not None:
                        flight.result = computed[idx]
                    else:
                        flight.result = TaskResult(
                            task=task,
                            values={},
                            wall_s=0.0,
                            error="computation aborted before completing",
                        )
                    del self._inflight[task.key()]
                    flight.event.set()

        results: List["TaskResult"] = []
        fresh_by_key = {t.key(): r for t, r in zip(fresh, computed or [])}
        for task in tasks:
            key = task.key()
            if key in fresh_by_key:
                results.append(fresh_by_key[key])
                continue
            flight = waiting[key]
            if not flight.event.wait(timeout=self.wait_timeout_s):
                results.append(
                    TaskResult(
                        task=task,
                        values={},
                        wall_s=0.0,
                        error=(
                            "timed out waiting for a coalesced computation "
                            f"({self.wait_timeout_s:g}s)"
                        ),
                    )
                )
                continue
            assert flight.result is not None
            results.append(flight.result)
        return results
