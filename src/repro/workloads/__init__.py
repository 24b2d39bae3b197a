"""Parametric workload generators and the perf/correctness fuzzer.

This package replaces "the fixed synthetic datasets" as the only way
to make work for the simulator: each paper application gets a
:class:`~repro.workloads.base.Generator` that declares the *axes* of
its input space (size, sparsity, skew, image entropy, sequence
similarity, query selectivity, ...) and turns axis values into
deterministic, seed-keyed :class:`~repro.experiments.harness.SweepTask`
streams — consumable by the sweep harness and its result cache like
any hand-written task.

On top of the generators, :mod:`repro.workloads.fuzz` implements
``python -m repro fuzz``: a seeded, time-boxed mutation loop over
generator parameters (plus byte-level input mutation for the imaging
and MPEG applications) that runs each candidate on both memory systems
under four oracles — the runtime sanitizer, measured-vs-analytic-model
divergence, conventional/RADram result equality, and bit-identity
across execution regimes — and shrinks any
counterexample to a minimal replayable JSON case file.
"""

from repro.workloads.base import (
    Axis,
    GENERATORS,
    Generator,
    get_generator,
    register,
)
from repro.workloads.fuzz import (
    FUZZ_PAGE_BYTES,
    FuzzCase,
    FuzzReport,
    Finding,
    OracleResult,
    load_case_file,
    replay_case,
    run_case,
    run_fuzz,
    shrink_case,
)

# Importing the concrete generators populates GENERATORS.
from repro.workloads import generators as _generators  # noqa: E402,F401

__all__ = [
    "Axis",
    "GENERATORS",
    "Generator",
    "get_generator",
    "register",
    "FUZZ_PAGE_BYTES",
    "FuzzCase",
    "FuzzReport",
    "Finding",
    "OracleResult",
    "load_case_file",
    "replay_case",
    "run_case",
    "run_fuzz",
    "shrink_case",
]
