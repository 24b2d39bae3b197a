"""Exact reconnect/backoff schedules for the resilient client.

Mirrors ``test_retry_schedule.py``'s style for the harness: the e2e
tests prove ``stream_submit_resilient`` survives real drops; these pin
down the *schedule* — which delays are slept, which ``after_seq`` each
reconnect carries, how ``Retry-After`` is honored and budgeted — with
a scripted transport and a recording sleep, no sockets and no real
time.
"""

from __future__ import annotations

import pytest

from repro.serve.client import (
    BusyError,
    ServerError,
    stream_submit_resilient,
)

JOB = "0123456789abcdef-00aa11bb"


def _ev(kind, seq=None, **fields):
    event = {"event": kind, "job": JOB, **fields}
    if seq is not None:
        event["seq"] = seq
    return event


class Drop(ConnectionResetError):
    """A scripted mid-stream disconnect."""


class FakeTransport:
    """Scripted attempts: each is an event list (exceptions raise in
    place) or a bare exception raised at connect time.  Records every
    request so tests can assert the resume envelope per attempt."""

    def __init__(self, attempts):
        self.attempts = list(attempts)
        self.requests = []

    def __call__(self, base_url, request, sse=False, timeout=None):
        self.requests.append(dict(request))
        script = self.attempts.pop(0)
        if isinstance(script, BaseException):
            raise script

        def gen():
            for item in script:
                if isinstance(item, BaseException):
                    raise item
                yield item

        return gen()


class FakeSleep:
    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


SUBMIT = {"kind": "app", "app": "array-insert", "pages": 2.0, "tenant": "t"}


def _run(transport, **kwargs):
    sleep = FakeSleep()
    events = list(
        stream_submit_resilient(
            "http://fake", SUBMIT, sleep=sleep, transport=transport, **kwargs
        )
    )
    return events, sleep.delays


class TestReconnectSchedule:
    def test_drop_then_resume_carries_last_seq(self):
        transport = FakeTransport([
            [_ev("accepted", coalesced=False), _ev("queued", 1), _ev("started", 2),
             Drop("mid-stream")],
            [_ev("accepted", resumed=True), _ev("result", 3),
             _ev("done", 4, ok=True)],
        ])
        events, delays = _run(transport)
        assert delays == [0.25]
        assert transport.requests[0] == SUBMIT
        assert transport.requests[1] == {
            "kind": "resume", "job": JOB, "after_seq": 2, "tenant": "t",
        }
        kinds = [e["event"] for e in events]
        assert kinds == ["accepted", "queued", "started", "accepted", "result", "done"]

    def test_replayed_duplicates_are_suppressed_by_seq(self):
        transport = FakeTransport([
            [_ev("accepted"), _ev("queued", 1), _ev("started", 2), Drop()],
            # Server replays from after_seq but the client asked late:
            # seqs 1..2 come again and must not be re-yielded.
            [_ev("accepted", resumed=True), _ev("queued", 1), _ev("started", 2),
             _ev("result", 3), _ev("done", 4, ok=True)],
        ])
        events, _ = _run(transport)
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == [1, 2, 3, 4], "each seq exactly once, in order"

    def test_geometric_backoff_with_cap_then_raise(self):
        transport = FakeTransport([ConnectionRefusedError()] * 6)
        sleep = FakeSleep()
        with pytest.raises(ConnectionError):
            list(
                stream_submit_resilient(
                    "http://fake", SUBMIT, sleep=sleep, transport=transport,
                    reconnects=5, backoff_s=1.0, backoff_cap_s=4.0,
                )
            )
        assert sleep.delays == [1.0, 2.0, 4.0, 4.0, 4.0]
        # Pre-accept failures resubmit the original request verbatim.
        assert all(req == SUBMIT for req in transport.requests)

    def test_backoff_ladder_resets_once_data_flows(self):
        transport = FakeTransport([
            ConnectionRefusedError(),
            ConnectionRefusedError(),
            [_ev("accepted"), _ev("queued", 1), Drop()],
            [_ev("accepted", resumed=True), _ev("done", 2, ok=True)],
        ])
        _, delays = _run(transport, backoff_s=1.0)
        assert delays == [1.0, 2.0, 1.0], "third delay restarts the ladder"

    def test_retry_after_honored_on_429(self):
        transport = FakeTransport([
            ServerError(429, {"error": "queue full"}, {"retry-after": "3"}),
            [_ev("accepted"), _ev("done", 1, ok=True)],
        ])
        events, delays = _run(transport)
        assert delays == [3.0]
        assert events[-1]["ok"] is True

    def test_retry_after_budget_exhaustion_raises_busy(self):
        transport = FakeTransport(
            [ServerError(503, {"error": "draining"}, {"retry-after": "3"})] * 3
        )
        sleep = FakeSleep()
        with pytest.raises(BusyError) as info:
            list(
                stream_submit_resilient(
                    "http://fake", SUBMIT, sleep=sleep, transport=transport,
                    retry_budget_s=5.0,
                )
            )
        assert sleep.delays == [3.0], "second wait would overrun the budget"
        assert info.value.spent_s == 3.0
        assert info.value.last.status == 503

    def test_malformed_retry_after_falls_back_to_default(self):
        err = ServerError(429, {}, {"retry-after": "soon"})
        assert err.retry_after() == 1.0
        assert ServerError(429, {}, {}).retry_after(default=2.5) == 2.5
        assert ServerError(429, {}, {"retry-after": "-4"}).retry_after() == 0.0

    def test_non_busy_server_error_propagates_immediately(self):
        transport = FakeTransport([ServerError(400, {"error": "bad"}, {})])
        with pytest.raises(ServerError):
            _run(transport)

    def test_stream_ending_without_done_counts_as_disconnect(self):
        transport = FakeTransport([
            [_ev("accepted"), _ev("queued", 1)],  # closes cleanly, no done
            [_ev("accepted", resumed=True), _ev("done", 2, ok=True)],
        ])
        events, delays = _run(transport)
        assert delays == [0.25]
        assert transport.requests[1]["after_seq"] == 1
        assert events[-1]["event"] == "done"

    def test_explicit_resume_request_streams_from_given_seq(self):
        resume = {"kind": "resume", "job": JOB, "after_seq": 2}
        transport = FakeTransport([
            [_ev("accepted", resumed=True), _ev("result", 3), Drop()],
            [_ev("accepted", resumed=True), _ev("done", 4, ok=True)],
        ])
        sleep = FakeSleep()
        events = list(
            stream_submit_resilient(
                "http://fake", resume, sleep=sleep, transport=transport
            )
        )
        assert transport.requests[0]["after_seq"] == 2
        assert transport.requests[1]["after_seq"] == 3
        assert [e["seq"] for e in events if "seq" in e] == [3, 4]

    def test_events_without_seq_pass_through(self):
        transport = FakeTransport([
            [_ev("accepted"), _ev("queued", 1), _ev("heartbeat", last_seq=1),
             _ev("heartbeat", last_seq=1), _ev("done", 2, ok=True)],
        ])
        events, delays = _run(transport)
        assert delays == []
        assert [e["event"] for e in events].count("heartbeat") == 2
