"""The serve smoke's scenario table and digest, without starting servers.

The smoke itself (``python -m repro.serve.smoke``) boots real server
subprocesses and runs in CI; these checks keep its table and helpers
honest in the tier-1 suite.
"""

from __future__ import annotations

import sys

from repro.serve import smoke


def test_scenario_table_rows():
    assert list(smoke.SCENARIOS) == [
        "coalesce",
        "crash-resume@started",
        "crash-resume@progress",
        "crash-resume@result",
        "shard-failover",
    ]


def test_takes_no_options(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["repro.serve.smoke", "--only", "coalesce"])
    assert smoke.main() == 2


def test_result_digest_ignores_volatile_fields():
    result = {"event": "result", "task": "array-insert@2", "mode": "speedup",
              "values": {"speedup": 3.5}, "error": None}
    first = [dict(result, seq=4, job="a", cached=False), {"event": "done", "seq": 5}]
    second = [{"event": "recovered", "seq": 9}, dict(result, seq=12, job="b", cached=True)]
    assert smoke.result_digest(first) == smoke.result_digest(second)
    changed = [dict(result, values={"speedup": 3.6})]
    assert smoke.result_digest(changed) != smoke.result_digest(first)
