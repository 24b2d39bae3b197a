"""The SMP extension study runs from any working directory.

``smp_study`` once imported its query from the repository's
``examples/`` directory, so it failed unless the working directory was
the repository root.  The pinned makespans also guard the per-op
``Processor._step`` path every SMP processor is stepped through.
"""

from repro.experiments.extensions import smp_study


def test_smp_study_from_a_foreign_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = smp_study((1, 2))
    assert [row["cpus"] for row in result.rows] == [1, 2]
    makespans = [round(row["makespan_ms"], 6) for row in result.rows]
    assert makespans == [0.526712, 0.263416]
    assert result.rows[1]["scaling"] > 1.9
