"""Per-op reference executor: the oracle for :meth:`Processor.run`.

:func:`run_per_op` interprets a stream one op at a time — ``_step``,
then a ``poll`` — which is the behaviour the fused executor must
reproduce bit for bit.  Nothing in the simulator selects it; the
differential tests, the fuzzer's regime oracle and the simbench
pairing legs run it through :func:`per_op_reference`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.check import runtime as _check
from repro.sim import ops as O
from repro.sim.processor import Processor
from repro.sim.stats import MachineStats
from repro.trace import events as _trace


def run_per_op(proc: Processor, stream: Iterable[O.Op]) -> MachineStats:
    """Run ``stream`` on ``proc`` with ``_step`` plus ``poll`` per op."""
    memsys = proc.memsys
    memsys.on_run_begin(proc)
    ck = _check.CHECKER
    proc._tr = tr = _trace.TRACER
    for op in stream:
        proc._step(op, ck, tr)
        memsys.poll(proc)
    memsys.on_run_end(proc)
    proc.stats.total_ns = proc.now
    return proc.stats


@contextmanager
def per_op_reference() -> Iterator[None]:
    """Make every ``Processor.run`` inside the block :func:`run_per_op`."""
    original = Processor.__dict__["run"]
    Processor.run = run_per_op
    try:
        yield
    finally:
        Processor.run = original
