"""The serve-mixed workload: open-loop bursts against an in-process server.

One ``SweepServer`` (``jobs=1``, one worker thread) shares its event
loop with this load generator.  Requests are ``app`` submits drawn from
the parametric generators, stratified so every burst holds two fresh
requests per generator (one from each half of the pages axis) and a
third of repeats of an earlier key: a repeat still in flight coalesces,
a finished one is a result-cache hit.

Each burst sends at ``RATE_PER_S`` with stratified exponential gaps
(the same gap multiset every burst, in a seeded order).  Gaps are
scaled by the host speed measured just before the burst, so the
offered load is fixed in reference-host time.  Latency runs from each
request's intended send time to its ``done`` event.  Calibration runs
in the idle gap after each burst has drained; a burst that does not
drain within ``DRAIN_TIMEOUT_S`` is a growing backlog and its
unfinished requests count as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import execute_task
from repro.serve import protocol
from repro.serve.server import ServeConfig, SweepServer
from repro.workloads import FUZZ_PAGE_BYTES, GENERATORS

import calib

#: Offered load in reference-host time.  A fresh request keeps the
#: server busy about 12 ms and a repeat about 6 ms, so the server is
#: about a fifth busy and the load generator shares its CPU.
RATE_PER_S = 20.0
FRESH_PER_GENERATOR = 2
REPEATS_PER_BURST = 8
TENANTS = ("t0", "t1", "t2", "t3")
#: The first burst warms the server and is not measured.
WARMUP_BURSTS = 1
#: Measured requests a run needs (20 bursts): at least 10 lie beyond
#: p95 (a smoothed median over bursts of each burst's p95), and the
#: p50s pool every measured request of their kind.
MIN_REQUESTS = 480
MAX_BURSTS = 48
DRAIN_TIMEOUT_S = 10.0
#: Rounds of the in-process reference runs that time ``sweep_s``.
REFERENCE_ROUNDS = 5
#: Requests stay small (the pages axis runs 0.5..6): this workload
#: measures serving while the simulator does little, and queueing
#: behind long simulations would make its latency follow the host.
MAX_PAGES = 2.0
#: The request parameter points are the same for every seed; the seed
#: draws their order, data seeds, tenants, repeats and gaps.
DESIGN_SEED = 0
#: Calibration mix (see calib.py): all three parts.  Serve latency
#: and the reference runs (workload builds plus short simulations)
#: spread less normalised by it than by ``python`` alone.
MIX = "blend"


@dataclass
class Request:
    payload: Dict[str, object]
    repeat: bool
    gap_s: float  # reference-host seconds after the previous send


@dataclass
class Outcome:
    request: Request
    latency_s: float = math.inf
    lateness_s: float = 0.0
    status: int = 0
    ok: bool = False
    values: List[Dict[str, float]] = field(default_factory=list)
    error: Optional[str] = None


def _designs(rng: random.Random, n_per_generator: int) -> Dict[str, List[dict]]:
    """A Latin hypercube per generator: over the run, every axis of every
    generator is sampled once in each of ``n_per_generator`` equal
    strata.  Drawn from ``DESIGN_SEED``, so every seed serves the same
    mix of request sizes; the seed shuffles it."""
    designs = {}
    for name in sorted(GENERATORS):
        gen = GENERATORS[name]
        columns = {}
        for axis in gen.all_axes():
            qs = [(k + rng.random()) / n_per_generator for k in range(n_per_generator)]
            rng.shuffle(qs)
            hi = MAX_PAGES if axis.name == "pages" else axis.hi
            columns[axis.name] = [axis.clamp(axis.lo + q * (hi - axis.lo)) for q in qs]
        designs[name] = [
            {a: column[i] for a, column in columns.items()}
            for i in range(n_per_generator)
        ]
    return designs


def _fresh(rng: random.Random, name: str, params: Dict[str, float]) -> Dict[str, object]:
    gen = GENERATORS[name]
    n_pages, wparams = gen.split(params)
    return {
        "kind": "app",
        "app": gen.app_name,
        "pages": n_pages,
        "seed": rng.randrange(1 << 30),
        "page_bytes": FUZZ_PAGE_BYTES,
        "params": wparams,
        "generator": gen.tag,
    }


def build_schedule(seed: int, n_bursts: int) -> List[List[Request]]:
    """``n_bursts`` bursts of seeded requests (the set-up's input build)."""
    rng = random.Random(seed)
    names = sorted(GENERATORS)
    n = len(names) * FRESH_PER_GENERATOR + REPEATS_PER_BURST
    quantiles = [-math.log(1.0 - (k + 0.5) / n) / RATE_PER_S for k in range(n)]
    designs = _designs(random.Random(DESIGN_SEED), n_bursts * FRESH_PER_GENERATOR)
    for rows in designs.values():
        rng.shuffle(rows)
    bursts: List[List[Request]] = []
    previous: List[Dict[str, object]] = []
    for b in range(n_bursts):
        fresh = [
            _fresh(rng, name, designs[name][b * FRESH_PER_GENERATOR + k])
            for name in names
            for k in range(FRESH_PER_GENERATOR)
        ]
        rng.shuffle(fresh)
        order: List[Tuple[Dict[str, object], bool]] = [(p, False) for p in fresh]
        for _ in range(REPEATS_PER_BURST):
            pos = rng.randrange(1, len(order) + 1)
            earlier = [p for p, rep in order[:pos] if not rep] or previous
            order.insert(pos, (rng.choice(earlier), True))
        gaps = list(quantiles)
        rng.shuffle(gaps)
        bursts.append(
            [
                Request(dict(p, tenant=rng.choice(TENANTS)), rep, gap)
                for (p, rep), gap in zip(order, gaps)
            ]
        )
        previous = fresh
    return bursts


class CountedFsync:
    """Replaces ``os.fsync`` by a counting no-op while serving.

    On the reference host one fsync took 0.08 to 0.37 ms (median, by
    the hour) with 5 to 23 ms spikes in every two-second window, set by
    other tenants' disk traffic; a request makes about ten, so serve
    latency followed the disk instead of the program.  The count is
    kept (``serve.fsyncs``), so a change that adds or drops one shows.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._original = os.fsync

    def _fsync(self, fd) -> None:
        self.calls += 1

    @contextlib.contextmanager
    def installed(self):
        os.fsync = self._fsync
        try:
            yield self
        finally:
            os.fsync = self._original


def make_server(work_dir: Path) -> SweepServer:
    return SweepServer(
        ServeConfig(
            host="127.0.0.1",
            port=0,
            jobs=1,
            concurrency=1,
            cache_dir=str(work_dir / "cache"),
            heartbeat_s=0.0,
        )
    )


async def _submit(
    host: str, port: int, request: Request, intended: float, in_flight: Dict[str, int]
) -> Outcome:
    loop = asyncio.get_running_loop()
    out = Outcome(request)
    delay = intended - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    out.lateness_s = max(0.0, loop.time() - intended)
    in_flight["now"] += 1
    in_flight["max"] = max(in_flight["max"], in_flight["now"])
    body = json.dumps(request.payload).encode()
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except BaseException:
        in_flight["now"] -= 1
        raise
    try:
        writer.write(
            b"POST /submit HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        out.status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b"\n", b""):
            pass
        if out.status != 200:
            out.error = f"HTTP {out.status}"
            return out
        async for line in reader:
            event = json.loads(line)
            kind = event.get("event")
            if kind == "result":
                if event.get("error"):
                    out.error = str(event["error"])
                out.values.append(event.get("values") or {})
            elif kind == "error":
                out.error = str(event.get("error"))
            elif kind == "done":
                out.ok = bool(event.get("ok")) and out.error is None
                out.latency_s = loop.time() - intended
                break
        if not out.ok and out.error is None:
            out.error = "stream ended without a successful done event"
    finally:
        in_flight["now"] -= 1
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return out


@dataclass
class BurstResult:
    outcomes: List[Outcome]
    calib_before: calib.Calibration
    calib_after: calib.Calibration
    backlog_max: int

    def scale(self) -> float:
        """Multiplier from raw seconds to reference-host seconds."""
        return calib.normalise(1.0, self.calib_before, self.calib_after, MIX)


async def run_burst(
    host: str, port: int, burst: List[Request], calib_before: calib.Calibration
) -> BurstResult:
    loop = asyncio.get_running_loop()
    slowdown = calib.slowdown(calib_before, MIX)
    intended = loop.time() + 0.002
    futures = []
    in_flight = {"now": 0, "max": 0}
    for request in burst:
        intended += request.gap_s * slowdown
        futures.append(
            asyncio.ensure_future(_submit(host, port, request, intended, in_flight))
        )
    deadline = intended - loop.time() + DRAIN_TIMEOUT_S
    done, pending = await asyncio.wait(futures, timeout=max(0.0, deadline))
    for fut in pending:
        fut.cancel()
    if pending:
        await asyncio.wait(pending)
    outcomes = []
    for request, fut in zip(burst, futures):
        if fut in pending:
            outcomes.append(Outcome(request, error="undrained"))
        elif fut.exception() is not None:
            exc = fut.exception()
            outcomes.append(Outcome(request, error=f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append(fut.result())
    return BurstResult(
        outcomes, calib_before, calib.calibrate(MIX), in_flight["max"]
    )


def request_key(request: Request) -> str:
    """The request's identity, tenant excluded."""
    return json.dumps(dict(request.payload, tenant="default"), sort_keys=True)


def reference_runs(
    bursts: List[List[Outcome]],
    bracket: calib.Bracketed,
    rounds: int = 1,
    seed: int = 0,
) -> Tuple[Dict[str, List[Dict[str, float]]], List[float]]:
    """In-process ``execute_task`` of every distinct request, after the
    load: each request's values, and per burst the normalised seconds
    of the requests it sent first (the simulation the server did,
    without serving it).  One burst's requests are one timed unit; the
    units run ``rounds`` times, each round in a seeded order, and each
    burst's figure is the median of its rounds.  A request whose values
    differ between rounds gets an error as its reference, so its
    requests fail."""
    refs: Dict[str, List[Dict[str, float]]] = {}
    groups: List[List[str]] = []
    seen: set = set()
    for outcomes in bursts:
        new = [k for k in dict.fromkeys(request_key(o.request) for o in outcomes)
               if k not in seen]
        seen.update(new)
        groups.append(new)
    seconds: List[List[float]] = [[] for _ in groups]

    def run(keys: List[str]) -> None:
        for key in keys:
            request = protocol.parse_submit(json.loads(key))
            try:
                values = [execute_task(t) for t in protocol.build_tasks(request)]
            except Exception as exc:  # noqa: BLE001 - its requests count as failed
                values = [{"error": f"{type(exc).__name__}: {exc}"}]
            if refs.setdefault(key, values) != values:
                refs[key] = [{"error": "execute_task differs between rounds"}]

    rng = random.Random(seed)
    order = list(range(len(groups)))
    for _ in range(rounds):
        for i in order:
            _, _, norm = bracket.time(run, groups[i])
            seconds[i].append(norm)
        rng.shuffle(order)
    return refs, [statistics.median(s) for s in seconds]


def check_outcomes(outcomes: List[Outcome], refs) -> int:
    """Mark results that differ from ``refs`` as failed; returns the
    number of failed requests."""
    failed = 0
    for out in outcomes:
        if out.ok:
            if out.values != refs[request_key(out.request)]:
                out.ok = False
                out.error = "result differs from in-process execute_task"
        if not out.ok:
            failed += 1
    return failed
