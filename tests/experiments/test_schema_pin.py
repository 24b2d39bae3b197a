"""``CACHE_SCHEMA`` is pinned to the recorded results.

A cached sweep value is keyed by ``CACHE_SCHEMA``, ``__version__`` and
the task, not by the code.  A change that moves a reproduced number
re-records a golden in ``tests/data/`` or a digest in
``hostbench/digests.json``; unless it also bumps the schema, result
caches written before it keep serving the old number, and no test sees
that (tests use isolated caches).  So the schema is pinned to a digest
of those files: re-recording one fails here until ``CACHE_SCHEMA`` is
bumped and both pins below are updated together.
"""

import hashlib
import pathlib

from repro.experiments import harness

ROOT = pathlib.Path(__file__).resolve().parents[2]

PINNED_SCHEMA = 5
PINNED_DIGEST = "e7967d045bd3f7468158ead32bcdb2a9e160dd7fe8e30c69c27c7e2428fe5530"


def recorded_files():
    goldens = sorted((ROOT / "tests" / "data").glob("*_golden.txt"))
    return goldens + [ROOT / "hostbench" / "digests.json"]


def recorded_digest() -> str:
    """SHA-256 over each recorded file's repo path and bytes, in order."""
    h = hashlib.sha256()
    for path in recorded_files():
        name = path.relative_to(ROOT).as_posix().encode()
        h.update(name + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def test_recorded_files_exist():
    names = [p.name for p in recorded_files()]
    assert "fig3_golden.txt" in names and "digests.json" in names
    assert all(p.is_file() for p in recorded_files())


def test_schema_is_pinned_to_the_recorded_results():
    assert (harness.CACHE_SCHEMA, recorded_digest()) == (
        PINNED_SCHEMA,
        PINNED_DIGEST,
    ), (
        "the recorded results or CACHE_SCHEMA changed: a change that "
        "re-records a golden or a hostbench digest must bump "
        "repro.experiments.harness.CACHE_SCHEMA, then set PINNED_SCHEMA "
        "and PINNED_DIGEST here to the new values"
    )
