"""Simulation-as-a-service: ``python -m repro serve`` and its client.

:mod:`repro.serve.server` opens with the module map of this package.
"""

from repro.serve.scheduler import (  # noqa: F401
    SingleFlight,
    SystemClock,
    TaskScheduler,
)
