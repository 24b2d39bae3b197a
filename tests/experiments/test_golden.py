"""Golden regression fixtures for the reproduced numbers.

Small-size renderings of Figures 1, 3, 4, 5, 8 and 9 and Tables 2, 3
and 4 are checked into ``tests/data/`` and compared byte-for-byte.
Any refactor of the runner, the sweep harness, or the simulator that
silently shifts a reproduced number fails here first.

Volatile ``harness:`` notes (cache-hit counters, wall time) are
stripped before comparison; everything else — values, formatting,
column layout — must match exactly.  To regenerate after an
*intentional* change, run this module with ``REGENERATE_GOLDEN=1``.
"""

import os
import pathlib

import pytest

from repro.experiments import (
    fig1_regions,
    fig3_speedup,
    fig4_nonoverlap,
    fig5_cache,
    fig8_latency,
    fig9_logicspeed,
    table2_partitioning,
    table3_synthesis,
    table4_model,
)
from repro.experiments.results import ExperimentResult

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"

APPS = ["array-insert", "database"]

GOLDEN = {
    "fig1_golden.txt": fig1_regions.run,
    "fig3_golden.txt": lambda: fig3_speedup.run(apps=APPS, sweep=[1, 4]),
    "fig4_golden.txt": lambda: fig4_nonoverlap.run(apps=APPS, sweep=[1, 4]),
    "fig5_golden.txt": lambda: fig5_cache.run(
        apps=APPS, l1_sweep_kb=[32, 256], n_pages=2
    ),
    "fig8_golden.txt": lambda: fig8_latency.run(apps=APPS, latencies_ns=[0, 600]),
    "fig9_golden.txt": lambda: fig9_logicspeed.run(apps=APPS, divisors=[2, 100]),
    "table2_golden.txt": table2_partitioning.run,
    "table3_golden.txt": table3_synthesis.run,
    "table4_golden.txt": lambda: table4_model.run(apps=APPS, sweep=[1, 4]),
}


def stable_render(result: ExperimentResult) -> str:
    """``render()`` without the volatile sweep-accounting notes."""
    lines = [
        line
        for line in result.render().splitlines()
        if not line.startswith("note: harness:")
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture_name", sorted(GOLDEN))
def test_rendering_matches_golden(fixture_name):
    rendered = stable_render(GOLDEN[fixture_name]())
    path = DATA_DIR / fixture_name
    if os.environ.get("REGENERATE_GOLDEN") == "1":  # pragma: no cover
        path.write_text(rendered)
    expected = path.read_text()
    assert rendered == expected, (
        f"{fixture_name} drifted from the checked-in golden rendering; "
        "if the change is intentional, regenerate with REGENERATE_GOLDEN=1"
    )


def test_golden_fixtures_have_no_volatile_notes():
    for name in GOLDEN:
        content = (DATA_DIR / name).read_text()
        assert "harness:" not in content
