"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program is not instrumented.  ``Spans.install`` replaces public
entry points of each layer (class attributes or module functions) with
timing wrappers for the duration of a traced pass and restores them
afterwards.  Every call gets a span on its thread's stack; a span's
self time is its duration minus the time its child spans cover.  Spans
of the coarse calls (``Processor.run``, ``execute_task``,
``TaskScheduler.run_sweep``) are kept in memory with parent links and
written out when the run ends; fine-grained calls (cache, DRAM, bus,
handlers) only add to their layer's totals, which keeps the traced
pass close to the untraced one.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments import harness
from repro.radram.system import RADramMemorySystem
from repro.serve import protocol
from repro.serve.journal import JobJournal
from repro.serve.scheduler import TaskScheduler
from repro.serve.server import FairQueue
from repro.sim.bus import Bus
from repro.sim.cache import Cache
from repro.sim.dram import DRAM
from repro.sim.processor import Processor
from repro.apps.registry import ALL_APPS

_now = time.perf_counter


class Spans:
    """Span stacks, layer totals and counters of one traced pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[tuple] = []
        self._lock = threading.Lock()
        #: layer -> [calls, total_s, self_s]
        self.layers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        #: thread name -> summed self time of every span on that thread
        self.thread_self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: kept spans: (id, parent id, layer, name, thread, start, end)
        self.records: List[tuple] = []
        self.wall_start = 0.0
        self.wall_end = 0.0

    # ------------------------------------------------------------------
    # Span bookkeeping
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack, frame, layer, t0, name=None, keep=False) -> None:
        t1 = _now()
        stack.pop()
        dur = t1 - t0
        own = dur - frame[0]
        if stack:
            stack[-1][0] += dur
        with self._lock:
            entry = self.layers[layer]
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            self.thread_self[threading.current_thread().name] += own
        if keep:
            self.records.append(
                (frame[1], frame[2], layer, name,
                 threading.current_thread().name, t0, t1)
            )

    def _open(self, keep: bool) -> tuple:
        stack = self._stack()
        parent = next((f[1] for f in reversed(stack) if f[1]), 0)
        frame = [0.0, next(self._ids) if keep else 0, parent]
        stack.append(frame)
        return stack, frame

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        keep: bool = False,
        hook: Optional[Callable] = None,
    ) -> None:
        """Time ``owner.attr``; ``hook(args, result, seconds)`` sees each call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack, frame = self._open(keep)
            t0 = _now()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(stack, frame, layer, t0, name, keep)
            if hook is not None:
                hook(args, result, _now() - t0)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def timed_stream(self, stream, layer: str):
        """Yield ``stream``'s ops, timing each ``next`` as ``layer``."""
        it = iter(stream)
        while True:
            stack, frame = self._open(False)
            t0 = _now()
            try:
                op = next(it)
            except StopIteration:
                self._close(stack, frame, layer, t0)
                return
            except BaseException:
                self._close(stack, frame, layer, t0)
                raise
            self._close(stack, frame, layer, t0)
            self.counts["ops"] += 1
            yield op

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Layer wiring
    def install(self) -> None:
        self._install_sim()
        self._install_harness()
        self._install_serve()

    def _install_sim(self) -> None:
        spans = self
        run = Processor.__dict__["run"]

        @functools.wraps(run)
        def processor_run(proc, stream):
            stats = run(proc, spans.timed_stream(stream, "apps"))
            l1, l2 = proc.l1d, proc.l1d.next_level
            spans.counts["l1.hits"] += l1.stats.hits
            spans.counts["l1.accesses"] += l1.stats.accesses
            if l2 is not None:
                spans.counts["l2.hits"] += l2.stats.hits
                spans.counts["l2.accesses"] += l2.stats.accesses
            if isinstance(proc.memsys, RADramMemorySystem):
                spans.counts["radram.activations"] += stats.activations
                spans.counts["radram.wait_ns"] += stats.wait_ns
                spans.counts["radram.total_ns"] += stats.total_ns
            return stats

        Processor.run = processor_run
        self._restore.append((Processor, "run", run))
        self.wrap(Processor, "run", "sim.processor", keep=True)

        step = Processor.__dict__["_step"]

        @functools.wraps(step)
        def scalar_step(proc, op, ck, tr):
            depth = getattr(spans._local, "scalar", 0)
            spans._local.scalar = depth + 1
            try:
                return step(proc, op, ck, tr)
            finally:
                spans._local.scalar = depth

        Processor._step = scalar_step
        self._restore.append((Processor, "_step", step))
        self.wrap(Processor, "_step", "sim.processor")

        small = Cache._SMALL_BATCH

        def lines_hook(args, result, seconds) -> None:
            n = len(args[1])
            spans.counts["cache.lines"] += n
            if getattr(spans._local, "scalar", 0):
                spans.counts["cache.scalar_calls"] += 1
            else:
                spans.counts["cache.batch_calls"] += 1
                spans.counts["cache.small_batches"] += n <= small

        def batch_hook(args, result, seconds) -> None:
            n = sum(len(a) for a in args[1])
            spans.counts["cache.lines"] += n
            spans.counts["cache.batch_calls"] += 1
            spans.counts["cache.small_batches"] += n <= small

        self.wrap(Cache, "access_lines", "sim.cache", hook=lines_hook)
        self.wrap(Cache, "access_lines_batch", "sim.cache", hook=batch_hook)
        self.wrap(Cache, "flush_range", "sim.cache.flush")

        def dram_lines(args, result, seconds) -> None:
            spans.counts["dram.lines"] += args[1]

        def dram_line(args, result, seconds) -> None:
            spans.counts["dram.lines"] += 1

        for attr in ("read_line", "write_line", "uncached_read", "uncached_write"):
            self.wrap(DRAM, attr, "sim.dram", hook=dram_line)
        for attr in ("read_lines", "write_lines"):
            self.wrap(DRAM, attr, "sim.dram", hook=dram_lines)

        def bus_one(args, result, seconds) -> None:
            spans.counts["bus.transfers"] += 1

        def bus_batch(args, result, seconds) -> None:
            spans.counts["bus.transfers"] += args[1]

        self.wrap(Bus, "transfer", "sim.bus", hook=bus_one)
        self.wrap(Bus, "transfer_batch", "sim.bus", hook=bus_batch)

        for attr in (
            "handle_activate", "handle_wait", "handle_service",
            "handle_activate_batch", "handle_wait_batch",
        ):
            self.wrap(RADramMemorySystem, attr, "radram.system")

        def poll_hook(args, result, seconds) -> None:
            spans.counts["radram.polls"] += 1

        self.wrap(RADramMemorySystem, "poll", "radram.system", hook=poll_hook)

        wrapped = set()
        for app in ALL_APPS.values():
            for attr in ("workload", "conventional_workload"):
                for klass in type(app).__mro__:
                    if attr in klass.__dict__:
                        if (klass, attr) not in wrapped:
                            wrapped.add((klass, attr))
                            self.wrap(klass, attr, "apps")
                        break

    def _install_harness(self) -> None:
        spans = self

        def load_hook(args, result, seconds) -> None:
            spans.counts["cache.loads"] += 1
            spans.counts["cache.load_hits"] += result is not None

        self.wrap(harness.SweepTask, "key", "experiments.harness.key")
        self.wrap(harness.ResultCache, "load", "experiments.harness.cache_load", hook=load_hook)
        self.wrap(harness.ResultCache, "store", "experiments.harness.cache_store")
        self.wrap(harness, "execute_task", "experiments.harness.execute", keep=True)

    def _install_serve(self) -> None:
        spans = self

        def pop_hook(args, result, seconds) -> None:
            if result is not None:
                spans.samples["queue_wait_ms"].append(
                    (time.monotonic() - result.enqueued_at) * 1e3
                )

        def append_hook(args, result, seconds) -> None:
            spans.counts["journal.appends"] += 1

        self.wrap(protocol, "parse_submit", "serve.parse")
        self.wrap(protocol, "encode_event", "serve.encode")
        self.wrap(JobJournal, "append", "serve.journal", hook=append_hook)
        self.wrap(FairQueue, "push", "serve.queue")
        self.wrap(FairQueue, "pop", "serve.queue", hook=pop_hook)
        self.wrap(TaskScheduler, "run_sweep", "serve.scheduler", keep=True)

    # ------------------------------------------------------------------
    # Results
    def self_s(self, layer: str) -> float:
        return self.layers[layer][2] if layer in self.layers else 0.0

    def total_s(self, layer: str) -> float:
        return self.layers[layer][1] if layer in self.layers else 0.0

    def accounting(self) -> Dict[str, float]:
        """Self times per thread plus the unattributed remainder.

        Over the traced window each thread's span self times are
        disjoint, so they plus its unattributed time equal the window.
        """
        wall = self.wall_end - self.wall_start
        self_sum = sum(self.thread_self.values())
        unattributed = sum(wall - s for s in self.thread_self.values())
        return {
            "wall": wall,
            "self_sum": self_sum,
            "unattributed": unattributed,
            "consistent": all(
                -1e-6 <= s <= wall * (1 + 1e-6) for s in self.thread_self.values()
            )
            and all(entry[2] >= -1e-6 for entry in self.layers.values()),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "window_s": [self.wall_start, self.wall_end],
            "layers": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(self.layers.items())
            },
            "threads_self_s": dict(self.thread_self),
            "counts": dict(self.counts),
            "spans": [
                dict(zip(("id", "parent", "layer", "name", "thread", "start", "end"), r))
                for r in self.records
            ],
        }
        path.write_text(json.dumps(payload))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
