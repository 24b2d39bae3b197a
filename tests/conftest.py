"""Suite-wide fixtures.

The sweep harness memoizes simulation results under ``.repro_cache/``
(or ``$REPRO_CACHE_DIR``).  Tests must never read a developer's warm
cache or leave entries behind in the repository, so the whole session
is pointed at a throwaway directory.  Within the session the cache is
*shared*: experiments swept by several test modules (e.g. the Figure 3
grid) simulate once.  Tests that need a cold or private cache pass an
explicit ``HarnessSettings``/``cache_dir``.
"""

import signal

import pytest
from hypothesis import settings

from repro.experiments import harness

#: A deeper example budget for CI's fuzz job, selected with
#: ``pytest --hypothesis-profile=deep``; tier-1 runs keep the default.
settings.register_profile("deep", max_examples=1000)

#: Per-test wall-clock deadline (seconds).  A safety net against hung
#: tests (deadlocked pools, un-preempted sleeps) — generous enough that
#: no legitimate test approaches it.  ``pytest-timeout`` is not a
#: dependency, so the deadline is a plain SIGALRM; override per test
#: with ``@pytest.mark.deadline(seconds)``.
TEST_DEADLINE_S = 300


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "deadline(seconds): override the per-test SIGALRM deadline"
    )


@pytest.fixture(autouse=True)
def _per_test_deadline(request):
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - POSIX only
        yield
        return
    marker = request.node.get_closest_marker("deadline")
    seconds = int(marker.args[0]) if marker else TEST_DEADLINE_S

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds}s deadline (see tests/conftest.py)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session", autouse=True)
def _session_sweep_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    import os

    previous = os.environ.get(harness.CACHE_DIR_ENV)
    os.environ[harness.CACHE_DIR_ENV] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop(harness.CACHE_DIR_ENV, None)
    else:
        os.environ[harness.CACHE_DIR_ENV] = previous


@pytest.fixture(autouse=True)
def _default_harness_settings():
    """Each test starts from (and restores) the default sweep policy."""
    harness.reset_settings()
    yield
    harness.reset_settings()
