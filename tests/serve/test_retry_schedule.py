"""Retry/backoff/timeout schedules, asserted exactly under a fake clock.

The chaos tests in ``test_harness_resilience.py`` prove the machinery
survives real crashes and hangs; these tests pin down the *schedule*:
which delays are slept, which timeouts are applied to which waits, and
how pools are rebuilt after breaks — deterministically, with no real
sleeping, real pools, or real time.
"""

from __future__ import annotations

import pytest

from repro.experiments import harness
from repro.serve.scheduler import (
    MAX_BACKOFF_S,
    SystemClock,
    TaskScheduler,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool


def _task(pages: float = 2.0) -> harness.SweepTask:
    return harness.speedup_task("array-insert", pages)


class FakeClock(SystemClock):
    """Scripted time: records sleeps and future waits, never blocks.

    ``script`` maps a task key to the ordered outcomes of its pooled
    waits — a ``(values, wall_s)`` tuple to return or an exception
    instance to raise.
    """

    def __init__(self, script=None):
        self.sleeps = []
        self.waits = []
        self.script = dict(script or {})
        self._now = 0.0

    def monotonic(self) -> float:
        self._now += 1.0
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)

    def wait_future(self, future, timeout):
        self.waits.append(timeout)
        outcome = self.script[future.task.key()].pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


class FakeProc:
    def __init__(self, log):
        self.log = log

    def terminate(self):
        self.log.append("terminate")


class FakePool:
    """Stands in for ProcessPoolExecutor; futures only carry the task."""

    class Future:
        def __init__(self, task):
            self.task = task
            self.cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self, max_workers, log):
        self.max_workers = max_workers
        self.log = log
        self._processes = {0: FakeProc(log)}
        log.append(("pool", max_workers))

    def submit(self, fn, task):
        return self.Future(task)

    def shutdown(self, wait=True, cancel_futures=False):
        self.log.append(("shutdown", wait))


@pytest.fixture
def pool_log():
    return []


@pytest.fixture
def pool_factory(pool_log):
    return lambda max_workers: FakePool(max_workers, pool_log)


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
        backoff is slept, and the retry succeeds on a fresh pool."""
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
        scheduler = TaskScheduler(
            settings, clock=clock, pool_factory=pool_factory
        )
        results = scheduler.execute_distinct([t1, t2])

        # Every pooled wait carried the configured deadline.
        assert clock.waits == [5.0, 5.0, 5.0]
        assert clock.sleeps == [0.25]
        assert [r.values for r in results] == [{"v": 1.0}, {"v": 2.0}]
        assert results[0].attempts == 2 and results[0].ok
        assert results[1].attempts == 1
        # Round 1: one shared 2-worker pool, terminated (hung) and shut
        # down without joining.  Round 2: a fresh 1-worker pool for the
        # single remaining task, joined normally.
        assert pool_log == [
            ("pool", 2),
            "terminate",
            ("shutdown", False),
            ("pool", 1),
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
        results = TaskScheduler(
            settings, clock=clock, pool_factory=pool_factory
        ).execute_distinct([t1])
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
        """No timeout to enforce: a lone task skips the pool start-up."""
        def executes(task, trace_summary=False):
            return harness.TaskResult(task=task, values={"v": 1.0}, wall_s=0.0)

        monkeypatch.setattr(harness, "_timed_execute", executes)
        settings = harness.HarnessSettings(jobs=2, use_cache=False)
        results = TaskScheduler(
            settings, clock=FakeClock(), pool_factory=pool_factory
        ).execute_distinct([_task(2.0)])
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
        results = TaskScheduler(
            settings, clock=clock, pool_factory=pool_factory
        ).execute_distinct([t1, t2])
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
        results = TaskScheduler(
            settings, clock=clock, pool_factory=pool_factory
        ).execute_distinct([t1, t2])
        assert [r.values for r in results] == [{"v": 1.0}, {"v": 2.0}]
        assert [r.attempts for r in results] == [2, 2]
        assert clock.sleeps == [0.25]
        # No timeout configured: waits are unbounded.
        assert clock.waits == [None] * 4
        pools = [entry for entry in pool_log if entry[0] == "pool"]
        assert pools == [("pool", 2), ("pool", 1), ("pool", 1)]

    def test_no_timeout_means_unbounded_waits(self, pool_factory):
        t1, t2 = _task(2.0), _task(4.0)
        clock = FakeClock(
            script={
                t1.key(): [({"v": 1.0}, 0.1)],
                t2.key(): [({"v": 2.0}, 0.2)],
            }
        )
        settings = harness.HarnessSettings(jobs=2, use_cache=False)
        results = TaskScheduler(
            settings, clock=clock, pool_factory=pool_factory
        ).execute_distinct([t1, t2])
        assert clock.waits == [None, None]
        assert clock.sleeps == []
        assert all(r.ok for r in results)
