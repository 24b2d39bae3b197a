"""Chaos injection for the sweep harness itself.

The fault models in :mod:`repro.faults.models` break the *simulated*
machine; this module breaks the *harness*: it makes sweep workers
crash, hang, or raise on demand, so the retry/timeout machinery in
:func:`repro.experiments.harness.run_sweep` can be exercised — in CI
and in tests — against real process death rather than mocks.

Activation is environmental so injected failures reach pool workers
(which share nothing with the parent but the environment):

* ``REPRO_CHAOS`` names a JSON spec file::

      {
        "state_dir": "/tmp/chaos-state",
        "rules": [
          {"match": "array-insert", "mode": "crash", "times": 1},
          {"match": "<task-key-prefix>", "mode": "hang", "times": 1,
           "hang_s": 120.0}
        ]
      }

* A rule fires when ``match`` is a substring of the task's app name or
  a prefix of its content key.  ``mode`` is ``crash`` (``os._exit``,
  simulating a killed/OOMed worker), ``hang`` (sleep far past any
  sane timeout), or ``raise`` (an in-task exception).
* ``times`` bounds how often the rule fires *across all processes*:
  each firing claims a marker file in ``state_dir`` with
  ``O_CREAT | O_EXCL``, which is atomic on POSIX — so a task killed
  once succeeds on retry, which is exactly the scenario the harness
  must survive.

Two further modes target the **serve layer** rather than pool workers
(:func:`maybe_injure_serve`, called by the server at its event publish
and stream-emit sites; ``match`` is checked against the site label —
``serve.publish:<event>`` / ``serve.emit:<event>`` — and the job id):

* ``kill`` — ``SIGKILL`` the server process itself, *between* stream
  events (after the event was journaled, before subscribers saw it):
  the crash the job journal and startup recovery must survive.
* ``drop`` — abruptly sever one streaming response
  (``ConnectionResetError`` at the emit site) while the job keeps
  running: the disconnect the client's reconnect-and-resume machinery
  must survive.

Nothing here runs unless ``REPRO_CHAOS`` is set: the import is cheap
and :func:`maybe_injure` is a single ``os.environ.get`` when idle.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Dict, List, Optional, Tuple

#: Environment variable naming the chaos spec file.
CHAOS_ENV = "REPRO_CHAOS"

#: Worker-injury modes (fired by :func:`maybe_injure` inside tasks).
TASK_CHAOS_MODES = ("crash", "hang", "raise")

#: Serve-layer modes (fired by :func:`maybe_injure_serve` in the server).
SERVE_CHAOS_MODES = ("kill", "drop")

CHAOS_MODES = TASK_CHAOS_MODES + SERVE_CHAOS_MODES

#: Exit code used by crash-mode injuries (recognizable in waitpid).
CRASH_EXIT_CODE = 113


class ChaosError(RuntimeError):
    """Raised inside a worker by a ``raise``-mode chaos rule."""


def write_spec(path: str, state_dir: str, rules: List[Dict[str, object]]) -> None:
    """Write a chaos spec file (validating rules) and its state dir."""
    for rule in rules:
        if rule.get("mode") not in CHAOS_MODES:
            raise ValueError(f"unknown chaos mode {rule.get('mode')!r}")
        if "match" not in rule:
            raise ValueError("chaos rule needs a 'match' pattern")
    os.makedirs(state_dir, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"state_dir": state_dir, "rules": rules}, fh, indent=1)


def _load_spec() -> Optional[Dict[str, object]]:
    spec_path = os.environ.get(CHAOS_ENV)
    if not spec_path:
        return None
    try:
        with open(spec_path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None  # a vanished/corrupt spec disables chaos


def _claim(state_dir: str, rule_index: int, times: int) -> bool:
    """Atomically claim one firing of a rule; False when spent.

    Claims are marker files created with ``O_CREAT | O_EXCL`` so
    concurrent workers (separate processes) never double-claim one
    firing.
    """
    for attempt in range(times):
        marker = os.path.join(state_dir, f"rule{rule_index}.fired{attempt}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return False
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return True
    return False


def maybe_injure(task_key: str, app_name: str) -> None:
    """Injure the current process if an active chaos rule matches.

    Called by the harness at the top of task execution.  No-op (one
    env lookup) unless ``REPRO_CHAOS`` is set.
    """
    spec = _load_spec()
    if spec is None:
        return
    state_dir = str(spec.get("state_dir", ""))
    if not state_dir:
        return
    for index, rule in enumerate(spec.get("rules", [])):
        mode = rule.get("mode")
        if mode not in TASK_CHAOS_MODES:
            continue  # serve-layer rules never fire inside tasks
        match = str(rule.get("match", ""))
        if not match:
            continue
        if match not in app_name and not task_key.startswith(match):
            continue
        times = int(rule.get("times", 1))
        if not _claim(state_dir, index, times):
            continue
        if mode == "crash":
            # Simulate a killed/OOMed worker: no exception, no cleanup.
            os._exit(CRASH_EXIT_CODE)
        elif mode == "hang":
            time.sleep(float(rule.get("hang_s", 120.0)))
        elif mode == "raise":
            raise ChaosError(
                f"chaos rule {index} ({match!r}) injured task {task_key[:12]}"
            )


def maybe_injure_serve(
    site: str,
    detail: str = "",
    modes: Tuple[str, ...] = SERVE_CHAOS_MODES,
) -> None:
    """Injure the serve process at an event publish/emit site.

    ``site`` is a label like ``serve.publish:progress`` or
    ``serve.emit:result``; a rule fires when its ``match`` is a
    substring of ``site`` or of ``detail`` (the job id).  ``modes``
    restricts which rule kinds may fire at this call site — the
    publish path only allows ``kill`` (a ``drop`` there would be a job
    failure, not a severed connection).

    No-op (one env lookup) unless ``REPRO_CHAOS`` is set.
    """
    spec = _load_spec()
    if spec is None:
        return
    state_dir = str(spec.get("state_dir", ""))
    if not state_dir:
        return
    for index, rule in enumerate(spec.get("rules", [])):
        mode = rule.get("mode")
        if mode not in SERVE_CHAOS_MODES or mode not in modes:
            continue
        match = str(rule.get("match", ""))
        if not match:
            continue
        if match not in site and (not detail or match not in detail):
            continue
        if not _claim(state_dir, index, int(rule.get("times", 1))):
            continue
        if mode == "kill":
            # The real thing: no drain, no cleanup, no atexit — the
            # journal on disk is all that survives.
            os.kill(os.getpid(), signal.SIGKILL)
        raise ConnectionResetError(
            f"chaos rule {index} ({match!r}) dropped the stream at {site}"
        )
