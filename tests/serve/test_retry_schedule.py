"""Retry/backoff/timeout schedules, asserted exactly under a fake clock.

The chaos tests in ``test_harness_resilience.py`` prove the machinery
survives real crashes and hangs; these tests pin down the *schedule*:
which delays are slept, which timeouts are applied to which waits, and
when pools are built, kept, discarded and rebuilt — deterministically,
with no real sleeping, real pools, or real time.
"""

from __future__ import annotations

import threading

import pytest

from repro.experiments import harness
from repro.serve import scheduler as scheduler_module
from repro.serve.scheduler import (
    MAX_BACKOFF_S,
    SystemClock,
    TaskScheduler,
    WorkerPool,
)
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool


def _task(pages: float = 2.0) -> harness.SweepTask:
    return harness.speedup_task("array-insert", pages)


class FakeClock(SystemClock):
    """Scripted time: records sleeps and future waits, never blocks.

    ``script`` maps a task key to the ordered outcomes of its pooled
    waits — a ``(values, wall_s)`` tuple to return or an exception
    instance to raise.  A wait settles its future with the outcome,
    except a ``FutureTimeoutError``, which leaves it running.
    """

    def __init__(self, script=None):
        self.sleeps = []
        self.waits = []
        self.script = dict(script or {})

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)

    def wait_future(self, future, timeout):
        self.waits.append(timeout)
        outcome = self.script[future.task.key()].pop(0)
        if isinstance(outcome, FutureTimeoutError):
            raise outcome
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        return future.result()


class FakeProc:
    def __init__(self, log):
        self.log = log

    def terminate(self):
        self.log.append("terminate")


class FakePool:
    """Stands in for ProcessPoolExecutor: its futures carry the task and
    run until a wait settles them or the pool is shut down (which
    breaks them, as terminating real workers does)."""

    def __init__(self, max_workers, log, load):
        self.max_workers = max_workers
        self.log = log
        self.load = load
        self.futures = []
        self._processes = {0: FakeProc(log)}
        log.append(("pool", max_workers))

    def submit(self, fn, task):
        future = Future()
        future.task = task
        future.set_running_or_notify_cancel()
        self.load.started(future)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.log.append(("shutdown", wait))
        for future in self.futures:
            if not future.done():
                future.set_exception(BrokenProcessPool("terminated"))


class Load:
    """Counts the fake futures running at once, across every FakePool."""

    def __init__(self):
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()

    def started(self, future):
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        future.add_done_callback(self._ended)

    def _ended(self, _future):
        with self._lock:
            self.running -= 1


@pytest.fixture
def pool_log():
    return []


@pytest.fixture
def load():
    return Load()


@pytest.fixture
def pool_factory(pool_log, load, monkeypatch):
    """Builds FakePools, also as the default executor of a sweep's
    private :class:`WorkerPool` (a sweep run without a shared one)."""
    factory = lambda max_workers: FakePool(max_workers, pool_log, load)  # noqa: E731
    monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", factory)
    return factory


class TestSerialBackoffSchedule:
    def test_exact_exponential_delays(self, monkeypatch):
        """retries=3, base 0.25s: the slept schedule is exactly
        [0.25, 0.5, 1.0] — no sleep before the first attempt."""
        attempts = []

        def always_raises(task, trace_summary=False):
            attempts.append(task)
            raise RuntimeError("persistent failure")

        monkeypatch.setattr(harness, "_timed_execute", always_raises)
        clock = FakeClock()
        settings = harness.HarnessSettings(
            jobs=1, use_cache=False, retries=3, retry_backoff_s=0.25
        )
        result = TaskScheduler(settings, clock=clock)._execute_with_retry(
            _task()
        )
        assert clock.sleeps == [0.25, 0.5, 1.0]
        assert len(attempts) == 4
        assert result.attempts == 4
        assert result.error == "RuntimeError: persistent failure"

    def test_success_after_one_retry_sleeps_once(self, monkeypatch):
        calls = {"n": 0}

        def fails_once(task, trace_summary=False):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return harness.TaskResult(task=task, values={"v": 1.0}, wall_s=0.0)

        monkeypatch.setattr(harness, "_timed_execute", fails_once)
        clock = FakeClock()
        settings = harness.HarnessSettings(
            jobs=1, use_cache=False, retries=2, retry_backoff_s=0.25
        )
        result = TaskScheduler(settings, clock=clock)._execute_with_retry(
            _task()
        )
        assert clock.sleeps == [0.25]
        assert result.ok and result.attempts == 2

    def test_backoff_capped_at_thirty_seconds(self, monkeypatch):
        def always_raises(task, trace_summary=False):
            raise RuntimeError("nope")

        monkeypatch.setattr(harness, "_timed_execute", always_raises)
        clock = FakeClock()
        settings = harness.HarnessSettings(
            jobs=1, use_cache=False, retries=3, retry_backoff_s=20.0
        )
        TaskScheduler(settings, clock=clock)._execute_with_retry(_task())
        # 20 * 2^round = 20, 40, 80 -> capped to 20, 30, 30.
        assert clock.sleeps == [20.0, MAX_BACKOFF_S, MAX_BACKOFF_S]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        def always_raises(task, trace_summary=False):
            raise RuntimeError("nope")

        monkeypatch.setattr(harness, "_timed_execute", always_raises)
        clock = FakeClock()
        settings = harness.HarnessSettings(
            jobs=1, use_cache=False, retries=3, retry_backoff_s=0.0
        )
        TaskScheduler(settings, clock=clock)._execute_with_retry(_task())
        assert clock.sleeps == []


class TestPooledTimeoutSchedule:
    def test_timeout_preempts_then_retry_succeeds(
        self, pool_factory, pool_log
    ):
        """A hung task: its wait times out at task_timeout_s, the hung
        pool's workers are terminated (shutdown without join), one
        backoff is slept, and the retry succeeds on a fresh pool of the
        same size, joined when the sweep ends."""
        t1, t2 = _task(2.0), _task(4.0)
        clock = FakeClock(
            script={
                t1.key(): [FutureTimeoutError(), ({"v": 1.0}, 0.1)],
                t2.key(): [({"v": 2.0}, 0.2)],
            }
        )
        settings = harness.HarnessSettings(
            jobs=2,
            use_cache=False,
            retries=2,
            retry_backoff_s=0.25,
            task_timeout_s=5.0,
        )
        scheduler = TaskScheduler(settings, clock=clock)
        results = scheduler.execute_distinct([t1, t2])

        # Every pooled wait carried the configured deadline.
        assert clock.waits == [5.0, 5.0, 5.0]
        assert clock.sleeps == [0.25]
        assert [r.values for r in results] == [{"v": 1.0}, {"v": 2.0}]
        assert results[0].attempts == 2 and results[0].ok
        assert results[1].attempts == 1
        # Round 1: one 2-worker pool, terminated (hung) and shut down
        # without joining.  Round 2: a fresh 2-worker pool, joined when
        # the sweep returns.
        assert pool_log == [
            ("pool", 2),
            "terminate",
            ("shutdown", False),
            ("pool", 2),
            ("shutdown", True),
        ]

    def test_single_task_is_pooled_so_it_can_be_preempted(
        self, pool_factory, pool_log
    ):
        """With jobs > 1 and a timeout, even a one-task sweep (a serve
        ``app`` request, a report with one uncached point) runs pooled,
        so a hang is cut off at task_timeout_s and retried."""
        t1 = _task(2.0)
        clock = FakeClock(
            script={t1.key(): [FutureTimeoutError(), ({"v": 1.0}, 0.1)]}
        )
        settings = harness.HarnessSettings(
            jobs=2,
            use_cache=False,
            retries=1,
            retry_backoff_s=0.25,
            task_timeout_s=5.0,
        )
        results = TaskScheduler(settings, clock=clock).execute_distinct([t1])
        assert clock.waits == [5.0, 5.0]
        assert clock.sleeps == [0.25]
        assert results[0].ok and results[0].attempts == 2
        assert pool_log == [
            ("pool", 1),
            "terminate",
            ("shutdown", False),
            ("pool", 1),
            ("shutdown", True),
        ]

    def test_single_task_without_timeout_runs_in_thread(
        self, monkeypatch, pool_factory, pool_log
    ):
        """No timeout to enforce and no shared pool: a lone task skips
        the pool start-up."""
        def executes(task, trace_summary=False):
            return harness.TaskResult(task=task, values={"v": 1.0}, wall_s=0.0)

        monkeypatch.setattr(harness, "_timed_execute", executes)
        settings = harness.HarnessSettings(jobs=2, use_cache=False)
        results = TaskScheduler(settings, clock=FakeClock()).execute_distinct(
            [_task(2.0)]
        )
        assert results[0].ok
        assert pool_log == []

    def test_timeouts_exhaust_retries(self, pool_factory):
        t1, t2 = _task(2.0), _task(4.0)
        clock = FakeClock(
            script={
                t1.key(): [FutureTimeoutError()] * 3,
                t2.key(): [({"v": 2.0}, 0.2)],
            }
        )
        settings = harness.HarnessSettings(
            jobs=2,
            use_cache=False,
            retries=2,
            retry_backoff_s=0.25,
            task_timeout_s=2.5,
        )
        results = TaskScheduler(settings, clock=clock).execute_distinct([t1, t2])
        assert clock.sleeps == [0.25, 0.5]
        assert results[0].error == "timed out after 2.5s"
        assert results[0].attempts == 3
        assert results[1].ok

    def test_broken_pool_isolates_tasks(self, pool_factory, pool_log):
        """After a pool break every retried task gets a private
        single-worker pool so a persistent crasher cannot take
        bystanders down with it."""
        t1, t2 = _task(2.0), _task(4.0)
        clock = FakeClock(
            script={
                t1.key(): [BrokenProcessPool("died"), ({"v": 1.0}, 0.1)],
                t2.key(): [BrokenProcessPool("died"), ({"v": 2.0}, 0.2)],
            }
        )
        settings = harness.HarnessSettings(
            jobs=2, use_cache=False, retries=2, retry_backoff_s=0.25
        )
        results = TaskScheduler(settings, clock=clock).execute_distinct([t1, t2])
        assert [r.values for r in results] == [{"v": 1.0}, {"v": 2.0}]
        assert [r.attempts for r in results] == [2, 2]
        assert clock.sleeps == [0.25]
        # No timeout configured: waits are unbounded.
        assert clock.waits == [None] * 4
        # Round 1's shared pool is terminated and dropped; round 2 runs
        # each task in a private 1-worker pool, joined after its batch.
        assert pool_log == [
            ("pool", 2),
            "terminate",
            ("shutdown", False),
            ("pool", 1),
            ("pool", 1),
            ("shutdown", True),
            ("shutdown", True),
        ]

    def test_no_timeout_means_unbounded_waits(self, pool_factory):
        t1, t2 = _task(2.0), _task(4.0)
        clock = FakeClock(
            script={
                t1.key(): [({"v": 1.0}, 0.1)],
                t2.key(): [({"v": 2.0}, 0.2)],
            }
        )
        settings = harness.HarnessSettings(jobs=2, use_cache=False)
        results = TaskScheduler(settings, clock=clock).execute_distinct([t1, t2])
        assert clock.waits == [None, None]
        assert clock.sleeps == []
        assert all(r.ok for r in results)


class TestSharedPool:
    """A :class:`WorkerPool` handed in (the server's) outlives sweeps."""

    @staticmethod
    def _settings(**overrides):
        fields = dict(jobs=2, use_cache=False, retries=2, retry_backoff_s=0.25)
        return harness.HarnessSettings(**{**fields, **overrides})

    def test_one_pool_across_sweeps_and_retry_rounds(self, pool_factory, pool_log):
        t1, t2, t3 = _task(2.0), _task(4.0), _task(8.0)
        clock = FakeClock(
            script={
                t1.key(): [RuntimeError("transient"), ({"v": 1.0}, 0.1)],
                t2.key(): [({"v": 2.0}, 0.2)],
                t3.key(): [({"v": 3.0}, 0.3)],
            }
        )
        pool = WorkerPool(2, pool_factory)
        first = TaskScheduler(self._settings(), clock=clock, pool=pool)
        assert [r.attempts for r in first.execute_distinct([t1, t2])] == [2, 1]
        second = TaskScheduler(self._settings(), clock=clock, pool=pool)
        assert second.execute_distinct([t3])[0].ok
        assert clock.sleeps == [0.25]
        assert pool_log == [("pool", 2)], "built once, kept between sweeps"
        pool.shutdown()
        assert pool_log == [("pool", 2), ("shutdown", True)]

    def test_lone_task_without_timeout_is_pooled(self, pool_factory, pool_log):
        t1 = _task(2.0)
        clock = FakeClock(script={t1.key(): [({"v": 1.0}, 0.1)]})
        pool = WorkerPool(2, pool_factory)
        results = TaskScheduler(
            self._settings(), clock=clock, pool=pool
        ).execute_distinct([t1])
        assert results[0].ok and clock.waits == [None]
        assert pool_log == [("pool", 2)]

    def test_jobs_one_builds_no_pool(self, monkeypatch, pool_factory, pool_log):
        def executes(task, trace_summary=False):
            return harness.TaskResult(task=task, values={"v": 1.0}, wall_s=0.0)

        monkeypatch.setattr(harness, "_timed_execute", executes)
        pool = WorkerPool(1, pool_factory)
        settings = harness.HarnessSettings(jobs=1, use_cache=False)
        results = TaskScheduler(
            settings, clock=FakeClock(), pool=pool
        ).execute_distinct([_task(2.0), _task(4.0)])
        assert all(r.ok for r in results)
        assert pool_log == [] and pool.current is None

    def test_timeout_discards_the_pool_and_the_next_round_builds_one(
        self, pool_factory, pool_log
    ):
        t1 = _task(2.0)
        clock = FakeClock(
            script={t1.key(): [FutureTimeoutError(), ({"v": 1.0}, 0.1)]}
        )
        pool = WorkerPool(2, pool_factory)
        results = TaskScheduler(
            self._settings(task_timeout_s=5.0), clock=clock, pool=pool
        ).execute_distinct([t1])
        assert results[0].ok and results[0].attempts == 2
        assert pool_log == [
            ("pool", 2),
            "terminate",
            ("shutdown", False),
            ("pool", 2),
        ]
        assert pool.current is not None, "the rebuilt pool stays warm"

    @pytest.mark.parametrize(
        "lost", [BrokenProcessPool("died"), CancelledError()],
        ids=["broken", "discarded-by-another-sweep"],
    )
    def test_a_break_isolates_tasks_and_the_shared_pool_is_rebuilt(
        self, pool_factory, pool_log, lost
    ):
        t1, t2, t3 = _task(2.0), _task(4.0), _task(8.0)
        clock = FakeClock(
            script={
                t1.key(): [lost, ({"v": 1.0}, 0.1)],
                t2.key(): [({"v": 2.0}, 0.2)],
                t3.key(): [({"v": 3.0}, 0.3)],
            }
        )
        pool = WorkerPool(2, pool_factory)
        results = TaskScheduler(
            self._settings(), clock=clock, pool=pool
        ).execute_distinct([t1, t2])
        assert [r.attempts for r in results] == [2, 1]
        assert results[0].ok and results[1].ok
        assert pool_log == [
            ("pool", 2),
            "terminate",
            ("shutdown", False),
            ("pool", 1),  # t1's private retry pool
            ("shutdown", True),
        ]
        assert pool.current is None
        TaskScheduler(self._settings(), clock=clock, pool=pool).execute_distinct([t3])
        assert pool_log[-1] == ("pool", 2), "the next sweep builds a shared pool"

    def test_a_queued_task_is_timed_only_once_it_runs(
        self, pool_factory, pool_log
    ):
        """Sweep B's backlog fills both workers for longer than A's
        timeout.  A's lone task waits in the queue with no deadline
        running, then gets the whole deadline and does not time out."""
        backlog = [_task(p) for p in (2.0, 4.0, 8.0, 16.0)]
        lone = _task(32.0)
        backlog_running, release_backlog = threading.Event(), threading.Event()

        class Clock(FakeClock):
            def wait_future(self, future, timeout):
                if future.task is backlog[0]:
                    backlog_running.set()
                    release_backlog.wait(10.0)
                return super().wait_future(future, timeout)

        clock = Clock(
            script={t.key(): [({"v": 1.0}, 0.1)] for t in backlog + [lone]}
        )
        pool = WorkerPool(2, pool_factory)
        outcome = {}
        sweep_b = threading.Thread(
            target=lambda: outcome.setdefault(
                "b",
                TaskScheduler(self._settings(), clock=clock, pool=pool)
                .execute_distinct(backlog),
            )
        )
        sweep_a = threading.Thread(
            target=lambda: outcome.setdefault(
                "a",
                TaskScheduler(
                    self._settings(task_timeout_s=5.0, retries=0),
                    clock=clock,
                    pool=pool,
                ).execute_distinct([lone]),
            )
        )
        sweep_b.start()
        assert backlog_running.wait(10.0)
        sweep_a.start()
        sweep_a.join(0.2)
        assert sweep_a.is_alive(), "A waits for a free worker"
        assert clock.waits == [], "A's wait has not begun"
        release_backlog.set()
        sweep_b.join(10.0)
        sweep_a.join(10.0)
        assert all(r.ok for r in outcome["b"])
        assert outcome["a"][0].ok and outcome["a"][0].attempts == 1
        assert sorted(clock.waits, key=str) == [5.0] + [None] * 4
        assert pool_log == [("pool", 2)]

    def test_isolated_retries_take_slots_from_the_shared_budget(
        self, pool_factory, pool_log, load
    ):
        """After a break each retried task gets a private one-worker
        executor, but no more tasks run at once than the pool has
        workers: here two, one held throughout by another sweep's."""
        other = _task(1.0)
        tasks = [_task(p) for p in (2.0, 4.0, 8.0)]
        clock = FakeClock(
            script={
                t.key(): [BrokenProcessPool("died"), ({"v": 1.0}, 0.1)]
                for t in tasks
            }
        )
        pool = WorkerPool(2, pool_factory)
        held = pool.submit(None, other, private=True)
        results = TaskScheduler(
            self._settings(), clock=clock, pool=pool
        ).execute_distinct(tasks)
        assert [r.attempts for r in results] == [2, 2, 2]
        assert all(r.ok for r in results)
        assert load.peak == 2
        held.future.set_result(({"v": 0.0}, 0.0))
        assert load.running == 0


def test_a_queued_run_starts_when_a_worker_frees(pool_factory, pool_log):
    pool = WorkerPool(1, pool_factory)
    first, second = pool.submit(None, _task(2.0)), pool.submit(None, _task(4.0))
    assert first.started.is_set() and not second.started.is_set()
    first.future.set_result(None)
    assert second.started.is_set() and second.executor is first.executor
    assert pool.withdraw(pool.submit(None, _task(8.0)))
    second.future.set_result(None)
    pool.shutdown()
    late = pool.submit(None, _task(16.0))
    with pytest.raises(RuntimeError):
        late.future.result()
    assert pool_log == [("pool", 1), ("shutdown", True)]
