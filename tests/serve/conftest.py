"""In-process server fixture for the serve end-to-end tests.

Runs a real :class:`~repro.serve.server.SweepServer` on its own event
loop in a daemon thread, bound to an ephemeral port — no subprocesses,
so tests can monkeypatch :mod:`repro.experiments.harness` internals and
the server's worker threads see the patched versions.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.serve.server import ServeConfig, SweepServer


class RunningServer:
    """One live server: base URL, metrics access, thread lifecycle."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.server: SweepServer = None  # set on the loop thread
        self.loop: asyncio.AbstractEventLoop = None
        self.port: int = None
        self._ready = threading.Event()
        self._boot_error = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise AssertionError("server did not start in time")
        if self._boot_error is not None:
            raise self._boot_error

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.server = SweepServer(self.config)
        try:
            addresses = await self.server.start()
        except Exception as exc:  # surface boot failures (port in use)
            self._boot_error = exc
            self._ready.set()
            return
        self.port = addresses[0][1]
        self._ready.set()
        await self.server.wait_drained()
        await self.server.close()

    def request_shutdown(self) -> None:
        self.loop.call_soon_threadsafe(self.server.request_shutdown)

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread.is_alive():
            try:
                self.request_shutdown()
            except RuntimeError:  # loop already closed: thread is exiting
                pass
            self._thread.join(timeout)
        assert not self._thread.is_alive(), "server thread did not drain"

    def metrics(self):
        return self.server.registry.as_dict()


@pytest.fixture
def serve_factory(tmp_path, monkeypatch):
    """Start servers on ephemeral ports; always drained at test end."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serve-cache"))
    started = []

    def start(**overrides) -> RunningServer:
        overrides.setdefault("port", 0)
        overrides.setdefault("jobs", 1)
        server = RunningServer(ServeConfig(**overrides))
        started.append(server)
        return server

    yield start
    for server in started:
        server.stop()
