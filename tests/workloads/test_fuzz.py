"""The fuzz loop: reproducibility, planted-bug discovery, shrinking.

The acceptance contract for ``python -m repro fuzz``:

* the candidate sequence is a pure function of the seed;
* a planted bug (a deliberately broken tolerance) is found, shrunk to
  a minimal parameter point, written as a JSON case file, and the
  file replays to the same failure;
* a clean tree fuzzes clean across all four oracles.
"""

import json

import pytest

from repro import __main__ as cli
from repro.workloads import (
    FuzzCase,
    load_case_file,
    replay_case,
    run_case,
    run_fuzz,
    shrink_case,
)
from repro.sim.dram import DRAM
from repro.trace import events as trace_events
from repro.workloads.base import PAGES_AXIS, get_generator

GENEROUS_BOX = 600.0  # never the binding constraint in tests


class TestDeterminism:
    def test_same_seed_same_candidate_sequence(self):
        a = run_fuzz(seed=5, time_box_s=GENEROUS_BOX, max_cases=12)
        b = run_fuzz(seed=5, time_box_s=GENEROUS_BOX, max_cases=12)
        assert a.cases_run == b.cases_run == 12
        assert a.candidates == b.candidates
        assert len(a.findings) == len(b.findings)

    def test_different_seed_different_sequence(self):
        a = run_fuzz(seed=5, time_box_s=GENEROUS_BOX, max_cases=8)
        b = run_fuzz(seed=6, time_box_s=GENEROUS_BOX, max_cases=8)
        assert a.candidates != b.candidates

    def test_max_cases_bounds_the_run(self):
        report = run_fuzz(seed=1, time_box_s=GENEROUS_BOX, max_cases=5)
        assert report.cases_run == 5
        assert len(report.candidates) == 5


class TestCleanTree:
    def test_smoke_run_is_clean_across_all_oracles(self):
        """The acceptance smoke: zero violations on an unmodified tree."""
        report = run_fuzz(seed=0, time_box_s=GENEROUS_BOX, max_cases=32)
        assert report.clean, report.render()
        assert report.cases_run == 32


class TestPlantedBug:
    """A deliberately broken tolerance must be found and shrunk."""

    BROKEN_SCALE = 0.01  # dynamic-prog tolerance 0.95 -> 0.0095

    def test_found_shrunk_and_replayable(self, tmp_path):
        out = tmp_path / "findings"
        report = run_fuzz(
            seed=3,
            time_box_s=GENEROUS_BOX,
            max_cases=4,
            apps=["dynamic-prog"],
            tolerance_scale=self.BROKEN_SCALE,
            out_dir=str(out),
        )
        assert report.findings, "planted bug not found"
        finding = report.findings[0]
        assert any(o.oracle == "model" for o in finding.failures)

        # Shrunk to the minimal failing point: smallest problem size,
        # similarity back at its default.
        shrunk = finding.shrunk.params
        assert shrunk["pages"] == PAGES_AXIS.lo
        assert shrunk["similarity"] == get_generator("dynamic-prog").axis(
            "similarity"
        ).default

        # The case file replays to the same failure...
        assert finding.path is not None
        payload = json.loads(open(finding.path).read())
        assert payload["tag"] == "dynamic-prog/v1"
        assert payload["fuzz_seed"] == 3
        verdicts = replay_case(finding.path, tolerance_scale=self.BROKEN_SCALE)
        assert any(o.oracle == "model" and not o.ok for o in verdicts)

        # ...and is clean once the "bug" (the broken tolerance) is fixed.
        fixed = replay_case(finding.path, tolerance_scale=1.0)
        assert all(o.ok for o in fixed)

    def test_shrink_is_deterministic(self):
        case = FuzzCase(
            generator="dynamic-prog",
            params={"pages": 4.3, "similarity": 0.2},
            seed=77,
        )
        a, evals_a = shrink_case(case, tolerance_scale=self.BROKEN_SCALE)
        b, evals_b = shrink_case(case, tolerance_scale=self.BROKEN_SCALE)
        assert a == b and evals_a == evals_b

    def test_shrunk_case_still_fails_and_is_smaller(self):
        case = FuzzCase(
            generator="dynamic-prog",
            params={"pages": 5.5, "similarity": 0.15},
            seed=42,
        )
        assert any(
            not o.ok for o in run_case(case, self.BROKEN_SCALE)
        ), "case must fail before shrinking"
        shrunk, _ = shrink_case(case, tolerance_scale=self.BROKEN_SCALE)
        assert any(not o.ok for o in run_case(shrunk, self.BROKEN_SCALE))
        assert shrunk.params["pages"] <= case.params["pages"]


class TestRegimesFingerprint:
    def test_counts_only_divergence_is_found(self, monkeypatch):
        """A traced run that under-counts DRAM reads keeps its stats
        and times; the per-level cache, DRAM and bus counts in the
        fingerprint still tell it apart."""
        original = DRAM.read_lines

        def undercounted(self, count, line_bytes):
            if trace_events.TRACER is not None and count > 1:
                count -= 1  # same per-line latency, one read fewer
            return original(self, count, line_bytes)

        monkeypatch.setattr(DRAM, "read_lines", undercounted)
        gen = get_generator("mpeg-mmx")
        case = FuzzCase(generator="mpeg-mmx", params=gen.default_params(), seed=1)
        regimes = [o for o in run_case(case) if o.oracle == "regimes"]
        assert len(regimes) == 1 and not regimes[0].ok
        assert "traced run differs" in regimes[0].detail


class TestCaseFiles:
    def test_bare_case_payload_is_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        case = FuzzCase(
            generator="database",
            params={"pages": 1.0, "records": 4, "selectivity": 1.0},
            seed=9,
        )
        path.write_text(json.dumps(case.to_dict()))
        assert load_case_file(str(path)) == case


class TestCLI:
    def test_fuzz_clean_exit_zero(self):
        rc = cli.main(
            ["fuzz", "--seed", "1", "--max-cases", "6", "--time-box", "600"]
        )
        assert rc == 0

    def test_fuzz_findings_exit_one(self, tmp_path):
        rc = cli.main(
            [
                "fuzz", "--seed", "3", "--max-cases", "2",
                "--time-box", "600",
                "--apps", "dynamic-prog",
                "--tolerance-scale", "0.01",
                "--out", str(tmp_path / "f"),
            ]
        )
        assert rc == 1

    def test_replay_reproduces_exit_two(self, tmp_path):
        out = tmp_path / "f"
        cli.main(
            [
                "fuzz", "--seed", "3", "--max-cases", "2",
                "--time-box", "600",
                "--apps", "dynamic-prog",
                "--tolerance-scale", "0.01",
                "--out", str(out),
            ]
        )
        case_files = sorted(out.glob("case-*.json"))
        assert case_files
        rc = cli.main(
            [
                "fuzz", "--replay", str(case_files[0]),
                "--tolerance-scale", "0.01",
            ]
        )
        assert rc == 2
        assert cli.main(["fuzz", "--replay", str(case_files[0])]) == 0

    def test_smoke_profile_runs(self):
        rc = cli.main(["fuzz", "--smoke", "--seed", "2", "--max-cases", "8"])
        assert rc == 0


@pytest.mark.parametrize("oracle", ["checker", "equivalence", "model", "regimes"])
def test_every_oracle_reports_on_a_default_case(oracle):
    case = FuzzCase(
        generator="database",
        params=get_generator("database").default_params(),
        seed=1,
    )
    names = [o.oracle for o in run_case(case)]
    assert oracle in names
