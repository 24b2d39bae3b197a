"""Simulation-as-a-service: scheduler, server, client, smoke.

``repro.serve`` wraps the experiment harness in a long-running
multi-tenant service:

* :mod:`repro.serve.scheduler` — the reusable execution core
  (:class:`~repro.serve.scheduler.TaskScheduler`) extracted from the
  harness, plus :class:`~repro.serve.scheduler.SingleFlight` in-flight
  coalescing.  The CLI ``run_sweep`` path and the server share it.
* :mod:`repro.serve.protocol` — the HTTP/JSON-lines (and SSE) wire
  format: request parsing/validation, task construction, event framing.
* :mod:`repro.serve.server` — the asyncio front-end
  (``python -m repro serve``): weighted-fair per-tenant queueing,
  bounded backpressure, request- and task-level single-flight,
  ``/metrics`` and ``/cache/stats`` endpoints, graceful SIGTERM drain.
* :mod:`repro.serve.client` — the thin streaming client
  (``python -m repro submit``).
* :mod:`repro.serve.smoke` — the one end-to-end smoke
  (``python -m repro.serve.smoke``): a scenario table of coalescing,
  crash-resume at three publish points and shard failover, run
  against real server subprocesses.
"""

from repro.serve.scheduler import (  # noqa: F401
    SingleFlight,
    SystemClock,
    TaskScheduler,
)
