"""The ``serve --cluster N`` launcher: per-shard argv and the shard count.

No server starts here: :func:`repro.serve.cluster.shard_argv` is pure,
and :func:`~repro.serve.cluster.run_cluster` runs against a fake
``subprocess.Popen``.
"""

from __future__ import annotations

import argparse
import signal
import sys

import pytest

from repro.serve import cluster, server
from repro.serve.cluster import DEFAULT_LEASE_TTL_S, run_cluster, shard_argv


def _args(*argv):
    parser = argparse.ArgumentParser()
    server.add_serve_arguments(parser)
    return parser.parse_args(list(argv))


def _flag(argv, name):
    """The value following ``name`` in ``argv`` (it must occur once)."""
    assert argv.count(name) == 1, (name, argv)
    return argv[argv.index(name) + 1]


class TestShardArgv:
    def test_each_shard_gets_its_slot_and_port(self):
        args = _args("--cluster", "3", "--port", "9000")
        for index in range(3):
            argv = shard_argv(args, index, 3)
            assert argv[:4] == [sys.executable, "-m", "repro", "serve"]
            assert _flag(argv, "--shards") == "3"
            assert _flag(argv, "--shard-index") == str(index)
            assert _flag(argv, "--port") == str(9000 + index)
            assert "--cluster" not in argv, "a shard must not relaunch"

    def test_port_zero_stays_zero_for_every_shard(self):
        args = _args("--cluster", "2", "--port", "0")
        assert [_flag(shard_argv(args, i, 2), "--port") for i in (0, 1)] == [
            "0", "0",
        ]

    def test_forwards_the_serve_options(self):
        args = _args(
            "--cluster", "2", "--host", "0.0.0.0", "--jobs", "3",
            "--concurrency", "4", "--max-queue", "7", "--retries", "5",
            "--heartbeat", "2.5", "--lease-ttl", "9.0",
            "--tenant-weight", "a=2", "--tenant-weight", "b=0.5",
            "--task-timeout", "60", "--no-cache", "--cache-dir", "/tmp/c",
        )
        argv = shard_argv(args, 1, 2)
        assert _flag(argv, "--host") == "0.0.0.0"
        assert _flag(argv, "--jobs") == "3"
        assert _flag(argv, "--concurrency") == "4"
        assert _flag(argv, "--max-queue") == "7"
        assert _flag(argv, "--retries") == "5"
        assert _flag(argv, "--heartbeat") == "2.5"
        assert _flag(argv, "--lease-ttl") == "9.0"
        weights = [
            argv[i + 1] for i, arg in enumerate(argv) if arg == "--tenant-weight"
        ]
        assert weights == ["a=2", "b=0.5"]
        assert _flag(argv, "--task-timeout") == "60.0"
        assert "--no-cache" in argv
        assert _flag(argv, "--cache-dir") == "/tmp/c"

    def test_defaults(self):
        argv = shard_argv(_args("--cluster", "2"), 0, 2)
        assert _flag(argv, "--lease-ttl") == str(DEFAULT_LEASE_TTL_S)
        assert _flag(argv, "--retries") == "2"
        for absent in (
            "--tenant-weight", "--task-timeout", "--no-cache", "--cache-dir",
        ):
            assert absent not in argv

    def test_shard_argv_parses_back_to_a_shard(self):
        """What the launcher passes, the serve parser accepts."""
        args = _args("--cluster", "2", "--port", "9000", "--no-cache")
        child = _args(*shard_argv(args, 1, 2)[4:])
        assert (child.shards, child.shard_index, child.port) == (2, 1, 9001)
        assert child.cluster is None and child.no_cache is True


class _FakeProc:
    def __init__(self, argv, code=0):
        self.argv = argv
        self.pid = 1000 + len(argv)
        self.code = code
        self.signals = []

    def poll(self):
        return None

    def send_signal(self, signum):
        self.signals.append(signum)

    def wait(self):
        return self.code


class TestRunCluster:
    @pytest.fixture
    def spawned(self, monkeypatch):
        procs = []

        def popen(argv):
            procs.append(_FakeProc(argv))
            return procs[-1]

        monkeypatch.setattr(cluster.subprocess, "Popen", popen)
        return procs

    def test_spawns_one_process_per_shard(self, spawned):
        before = signal.getsignal(signal.SIGTERM)
        assert run_cluster(_args("--cluster", "3", "--port", "0")) == 0
        assert [_flag(p.argv, "--shard-index") for p in spawned] == [
            "0", "1", "2",
        ]
        assert signal.getsignal(signal.SIGTERM) is before, (
            "the forwarding handler is removed once the shards exit"
        )

    def test_a_failed_shard_fails_the_cluster(self, spawned, monkeypatch):
        monkeypatch.setattr(_FakeProc, "wait", lambda self: int(
            _flag(self.argv, "--shard-index") == "1"
        ))
        assert run_cluster(_args("--cluster", "2")) == 1

    @pytest.mark.parametrize("count", ["0", "1", "-3"])
    def test_fewer_than_two_shards_is_rejected(self, spawned, count, capsys):
        assert server.run_from_args(_args("--cluster", count)) == 2
        assert spawned == [], "nothing was launched"
        assert "at least 2 shards" in capsys.readouterr().out
