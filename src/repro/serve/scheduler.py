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
    * ``pool`` — the :class:`WorkerPool` to run on; its ``factory``
      builds the executors (default
      :class:`~concurrent.futures.ProcessPoolExecutor`), so scheduling
      decisions can be exercised without real processes.

``WorkerPool``
    One lazily built process pool of ``jobs`` workers that runs at most
    ``jobs`` tasks at once and queues the rest, reused by every sweep
    and retry round that holds it and rebuilt only after a timeout
    terminates its workers or a dead worker breaks it.  The server owns
    one for its lifetime and hands it to job threads via
    :func:`repro.experiments.harness.pool_scope`; a sweep run without
    one (the CLI) holds a private one for the length of the call.

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
import os
import signal
import stat
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

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
    :func:`~repro.experiments.harness.run_sweep` call.  Worker
    processes outlive it when it is handed a shared :class:`WorkerPool`.

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
        unique_executor: Optional[Callable] = None,
        on_task_done: Optional[Callable[["TaskResult"], None]] = None,
        pool: Optional["WorkerPool"] = None,
    ) -> None:
        self.settings = settings
        self.cache = cache
        self.clock = clock if clock is not None else SystemClock()
        self.unique_executor = unique_executor
        self.on_task_done = on_task_done
        #: the shared pool to run on; ``None`` holds a private one for
        #: each pooled call.
        self.pool = pool

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

        With ``jobs > 1`` tasks run on workers.  A lone task runs on one
        too when there is a shared pool (the server's, warm) or a
        timeout (only a pooled worker can be preempted); otherwise it
        skips the pool start-up and runs in this thread.
        """
        settings = self.settings
        if settings.jobs > 1 and (
            len(tasks) > 1
            or self.pool is not None
            or settings.task_timeout_s is not None
        ):
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
        * a **hung** worker trips ``task_timeout_s``, counted from when
          the task got a worker; the pool's workers are terminated, the
          pool discarded and the task retried on a fresh one;
        * retry rounds back off exponentially and give up after
          ``settings.retries`` extra attempts, recording the last error.

        A hang or break on a shared pool also costs every other sweep's
        in-flight tasks one attempt (their futures break or are
        cancelled), and those sweeps switch to isolation too.
        """
        pool = self.pool
        if pool is None:
            pool = WorkerPool(min(self.settings.jobs, len(tasks)))
        try:
            return self._pooled_rounds(tasks, pool)
        finally:
            if pool is not self.pool:
                pool.shutdown()

    def _pooled_rounds(
        self, tasks: List["SweepTask"], pool: "WorkerPool"
    ) -> List["TaskResult"]:
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
            retry, broke = self._pooled_round(
                tasks, remaining, pool, isolate, entry,
                attempts, last_error, results,
            )
            isolate = isolate or broke
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

    def _pooled_round(
        self,
        tasks: List["SweepTask"],
        order: List[int],
        pool: "WorkerPool",
        private: bool,
        entry: Callable,
        attempts: Dict[int, int],
        last_error: Dict[int, str],
        results: Dict[int, "TaskResult"],
    ) -> Tuple[List[int], bool]:
        """One attempt at each task of ``order``: ``(retry, broke)``.

        Every task is queued on the pool at once and collected in order.
        A task's wait starts only once it has started on a worker, so
        time spent queued behind other sweeps' tasks never counts
        against its timeout.  An executor whose worker hung or died is
        discarded once no started task of this round is left on it.
        """
        from repro.experiments.harness import TaskResult

        timeout_s = self.settings.task_timeout_s
        runs = deque(
            (i, pool.submit(entry, tasks[i], private=private)) for i in order
        )
        dead = set()  # executors whose workers hung or died
        retry: List[int] = []
        broke = False
        try:
            while runs:
                i, run = runs[0]
                run.started.wait()
                runs.popleft()
                attempts[i] += 1
                try:
                    values, wall_s = self.clock.wait_future(
                        run.future, timeout_s
                    )
                except FutureTimeoutError:
                    run.future.cancel()
                    pool.retire(run.executor)  # later tasks start elsewhere
                    dead.add(run.executor)
                    last_error[i] = f"timed out after {timeout_s:g}s"
                    retry.append(i)
                except (BrokenProcessPool, CancelledError):
                    # A worker died (crash/kill/OOM), or another sweep
                    # discarded the shared pool: every future on it is
                    # lost and must be retried.
                    broke = True
                    dead.add(run.executor)
                    last_error[i] = "worker process died (broken pool)"
                    retry.append(i)
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
                if private and run.executor not in dead | {None}:
                    run.executor.shutdown(wait=True, cancel_futures=True)
                # A hung worker never returns; joining it would hang the
                # sweep (and interpreter exit) right behind it.  Its
                # executor goes once this round has nothing else on it.
                busy = {r.executor for _, r in runs if r.started.is_set()}
                for executor in dead - busy - {None}:
                    pool.discard(executor)
                dead &= busy
        finally:
            # Only on an abort (KeyboardInterrupt): drop what is queued,
            # end what started.
            for _, run in runs:
                if not pool.withdraw(run):
                    run.started.wait()
                    dead.add(run.executor)
            for executor in dead - {None}:
                pool.discard(executor)
        return retry, broke


def _terminate_workers(executor) -> None:
    """Forcefully end a pool's worker processes (hung-worker cleanup).

    ``ProcessPoolExecutor`` has no public kill switch; terminating the
    worker ``Process`` objects directly is the only way to reclaim a
    worker stuck in an unbounded simulation without blocking
    interpreter shutdown on its (non-daemon) process join.
    """
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass


def detach_worker() -> None:
    """Pool-worker initializer: drop what a forked worker inherited from
    the server that forked it, and tie its life to the server's.

    * Signal handlers: the server's SIGTERM/SIGINT handlers only wake
      its event loop, so a worker keeping them would survive the
      ``terminate`` that reclaims a hung pool.
    * Sockets: a worker of a long-lived pool outlives the request that
      started it.  Its copy of a client connection would keep that
      connection open after the server closed it, so the client would
      never see its stream end.  The pool's own queues are pipes, and
      descriptors 0-2 are left alone.
    * The server's death: an idle worker of a killed server would wait
      on its task queue forever, so a daemon thread exits the worker
      within a second of being orphaned.
    """
    server = os.getppid()

    def exit_with_server() -> None:
        while os.getppid() == server:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=exit_with_server, daemon=True).start()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            fds = [int(name) for name in os.listdir(fd_dir)]
        except OSError:
            continue
        for fd in fds:
            try:
                if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.close(fd)
            except OSError:
                pass  # the listing's own descriptor, closed by now
        return


class Run:
    """One task handed to a :class:`WorkerPool`: queued until a worker
    is free, then ``started`` is set and ``executor``/``future`` say
    where it runs."""

    __slots__ = ("fn", "args", "private", "started", "executor", "future")

    def __init__(self, fn: Callable, args: tuple, private: bool) -> None:
        self.fn = fn
        self.args = args
        self.private = private
        self.started = threading.Event()
        self.executor: Optional[ProcessPoolExecutor] = None
        self.future: Optional[Future] = None


class WorkerPool:
    """One process pool of ``workers`` workers, built on first use.

    Thread-safe: every sweep holding it submits to the same executor.
    At most ``workers`` tasks run at once across every sweep, an
    isolated retry's private single-worker executor included; the rest
    wait in one FIFO queue.  A task starts from the done callback of
    the one it replaces, so no worker idles while a sweep thread wakes
    up.  A sweep that saw a worker hang or die calls :meth:`discard`;
    the next start builds a fresh executor.  ``factory`` builds
    executors (``factory(max_workers=n)``).
    """

    def __init__(
        self,
        workers: int,
        factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
    ) -> None:
        self.workers = workers
        self.factory = factory if factory is not None else ProcessPoolExecutor
        self._lock = threading.Lock()
        self._free = workers
        self._waiting: "deque[Run]" = deque()
        self._closed = False
        self.current: Optional[ProcessPoolExecutor] = None

    def submit(self, fn: Callable, *args, private: bool = False) -> Run:
        """Queue ``fn(*args)`` to run on the current executor, or on a
        new single-worker one if ``private``; it starts now if a worker
        is free."""
        run = Run(fn, args, private)
        with self._lock:
            if not self._free:
                self._waiting.append(run)
                return run
            self._free -= 1
        if not self._start(run):
            self._finished()
        return run

    def withdraw(self, run: Run) -> bool:
        """Drop ``run`` if it is still queued; False once it started."""
        with self._lock:
            try:
                self._waiting.remove(run)
            except ValueError:
                return False
        return True

    def _start(self, run: Run) -> bool:
        """Start ``run`` on the slot its caller holds; False (and the
        run fails at once) if no executor would take it."""
        try:
            run.executor, run.future = self._dispatch(run)
        except Exception as exc:  # noqa: BLE001 - the pool is shut down
            run.future = Future()
            run.future.set_exception(exc)
            run.started.set()
            return False
        run.started.set()
        run.future.add_done_callback(self._finished)
        return True

    def _finished(self, _future: Optional[Future] = None) -> None:
        """A slot came free: start the next queued run on it."""
        while True:
            with self._lock:
                if not self._waiting:
                    self._free += 1
                    return
                run = self._waiting.popleft()
            if self._start(run):
                return

    def _dispatch(self, run: Run) -> Tuple[ProcessPoolExecutor, Future]:
        if run.private:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            executor = self.factory(max_workers=1)
            return executor, executor.submit(run.fn, *run.args)
        executor = self._executor()
        try:
            return executor, executor.submit(run.fn, *run.args)
        except (BrokenProcessPool, RuntimeError):
            # Another sweep's worker broke it (and that sweep has not
            # discarded it yet), or that sweep discarded it just now.
            self.discard(executor)
        executor = self._executor()
        return executor, executor.submit(run.fn, *run.args)

    def _executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is shut down")
            if self.current is None:
                self.current = self.factory(max_workers=self.workers)
            return self.current

    def retire(self, executor: ProcessPoolExecutor) -> None:
        """Start no more tasks on ``executor`` (a no-op if another sweep
        replaced it already)."""
        with self._lock:
            if self.current is executor:
                self.current = None

    def discard(self, executor: ProcessPoolExecutor) -> None:
        """Retire ``executor``, terminate its workers and drop it
        without joining."""
        self.retire(executor)
        _terminate_workers(executor)
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Join the current executor's workers (the server's drain)."""
        with self._lock:
            self._closed = True
            executor, self.current = self.current, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


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
