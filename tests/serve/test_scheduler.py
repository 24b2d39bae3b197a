"""TaskScheduler: the extracted execution core behind run_sweep."""

from __future__ import annotations

import functools
import os
import signal
import socket
import stat
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import harness
from repro.serve.scheduler import TaskScheduler, WorkerPool, detach_worker


def _tasks():
    return [
        harness.speedup_task("array-insert", 2.0),
        harness.speedup_task("array-find", 2.0),
    ]


class TestSchedulerRunSweep:
    def test_matches_harness_run_sweep(self, tmp_path):
        """The CLI path and a directly-driven scheduler agree exactly."""
        settings = harness.HarnessSettings(
            use_cache=True, cache_dir=str(tmp_path / "a")
        )
        via_harness = harness.run_sweep(_tasks(), settings=settings)

        direct_settings = harness.HarnessSettings(
            use_cache=True, cache_dir=str(tmp_path / "b")
        )
        scheduler = TaskScheduler(
            direct_settings,
            cache=harness.ResultCache(direct_settings.resolve_cache_dir()),
        )
        direct = scheduler.run_sweep(_tasks())

        assert [r.values for r in via_harness] == [r.values for r in direct]
        assert via_harness.stats.misses == direct.stats.misses == 2

    def test_second_run_hits_cache(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        cache = harness.ResultCache(settings.resolve_cache_dir())
        first = TaskScheduler(settings, cache=cache).run_sweep(_tasks())
        second = TaskScheduler(settings, cache=cache).run_sweep(_tasks())
        assert first.stats.hits == 0 and first.stats.misses == 2
        assert second.stats.hits == 2 and second.stats.misses == 0
        assert [r.values for r in first] == [r.values for r in second]

    def test_duplicates_fold_to_one_execution(self, tmp_path):
        task = harness.speedup_task("array-insert", 2.0)
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings).run_sweep([task, task, task])
        assert outcome.stats.tasks == 3
        assert outcome.stats.misses == 1
        assert outcome[0] is outcome[1] is outcome[2]

    def test_on_task_done_fires_for_hits_and_misses(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        cache = harness.ResultCache(settings.resolve_cache_dir())
        seen = []
        scheduler = TaskScheduler(
            settings, cache=cache, on_task_done=seen.append
        )
        scheduler.run_sweep(_tasks())
        assert len(seen) == 2 and all(not r.cached for r in seen)

        seen.clear()
        TaskScheduler(settings, cache=cache, on_task_done=seen.append).run_sweep(
            _tasks()
        )
        assert len(seen) == 2 and all(r.cached for r in seen)

    def test_broken_observer_does_not_break_sweep(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))

        def bad_observer(result):
            raise RuntimeError("observer bug")

        outcome = TaskScheduler(settings, on_task_done=bad_observer).run_sweep(
            _tasks()
        )
        assert outcome.complete


class TestUniqueExecutorSeam:
    def test_unique_executor_receives_distinct_uncached_tasks(self, tmp_path):
        calls = []

        def spy(tasks, scheduler):
            calls.append(list(tasks))
            return scheduler.execute_distinct(tasks)

        task = harness.speedup_task("array-insert", 2.0)
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings, unique_executor=spy).run_sweep(
            [task, task]
        )
        assert outcome.complete
        assert calls == [[task]]  # duplicates folded before the seam

    def test_coalesce_scope_routes_harness_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        calls = []

        def spy(tasks, scheduler):
            calls.append(len(tasks))
            return scheduler.execute_distinct(tasks)

        with harness.coalesce_scope(spy):
            outcome = harness.run_sweep(_tasks())
        assert outcome.complete and calls == [2]

    def test_progress_scope_routes_harness_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seen = []
        with harness.progress_scope(seen.append):
            harness.run_sweep(_tasks())
        assert len(seen) == 2

    def test_settings_scope_overrides_are_context_local(self, tmp_path):
        override = harness.HarnessSettings(
            jobs=7, cache_dir=str(tmp_path), retries=9
        )
        with harness.settings_scope(override):
            inside = harness.current_settings()
            assert inside.jobs == 7 and inside.retries == 9
        after = harness.current_settings()
        assert after.jobs != 7

    def test_empty_sweep(self, tmp_path):
        settings = harness.HarnessSettings(cache_dir=str(tmp_path))
        outcome = TaskScheduler(settings).run_sweep([])
        assert len(outcome) == 0 and outcome.complete


@pytest.mark.parametrize("mode", ["speedup", "constants"])
def test_results_are_cache_key_stable(tmp_path, mode):
    """Scheduler caching keys off SweepTask.key(), same as before."""
    make = harness.speedup_task if mode == "speedup" else harness.constants_task
    task = make("array-insert", 2.0)
    settings = harness.HarnessSettings(cache_dir=str(tmp_path))
    cache = harness.ResultCache(settings.resolve_cache_dir())
    TaskScheduler(settings, cache=cache).run_sweep([task])
    assert cache.load(make("array-insert", 2.0)) is not None


def _fd_is_socket(fd: int) -> bool:
    try:
        return stat.S_ISSOCK(os.fstat(fd).st_mode)
    except OSError:
        return False


def _gone(pid: int) -> bool:
    """Exited: no /proc entry, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


#: A "server" that forks one detached worker, prints its pid, then dies.
ORPHAN_SCRIPT = """
import functools, os, signal
from concurrent.futures import ProcessPoolExecutor
from repro.serve.scheduler import WorkerPool, detach_worker
pool = WorkerPool(1, functools.partial(ProcessPoolExecutor, initializer=detach_worker))
print(pool.submit(os.getpid).future.result(), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
class TestDetachWorker:
    """Real forked workers: what a server's pool worker must not keep."""

    def test_worker_drops_the_servers_signal_handler_and_sockets(self):
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        sock = socket.socket()
        pool = WorkerPool(
            1, functools.partial(ProcessPoolExecutor, initializer=detach_worker)
        )
        try:
            run = pool.submit(_fd_is_socket, sock.fileno())
            assert run.future.result(timeout=60) is False, "socket still open"
            (worker,) = run.executor._processes.values()
            pool.discard(run.executor)  # terminate, as after a hung task
            worker.join(10)
            assert not worker.is_alive(), "SIGTERM ignored by the worker"
        finally:
            signal.signal(signal.SIGTERM, previous)
            sock.close()
            pool.shutdown()

    def test_idle_worker_exits_when_its_server_is_killed(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # Read one line, not to EOF: the worker holds a copy of the pipe.
        with subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT], stdout=subprocess.PIPE,
            text=True, env=env,
        ) as proc:
            worker = int(proc.stdout.readline())
            assert proc.wait(60) == -signal.SIGKILL
        deadline = time.monotonic() + 10.0
        while not _gone(worker):
            assert time.monotonic() < deadline, f"orphaned worker {worker} lives on"
            time.sleep(0.1)
