"""Seeded-violation tests: each detector must fire on a live machine.

Every test builds a small RADram machine and drives a hand-written op
stream that breaks exactly one invariant, then asserts the matching
detector (and only that detector) fired.  Control variants prove the
legal counterpart of each pattern stays clean.
"""

import pytest

from repro.check import runtime
from repro.check.runtime import CheckError, checking
from repro.core.functions import PageTask
from repro.core.page import SYNC_BYTES
from repro.faults.models import HARD_FAULT, FaultConfig, ScheduledFault
from repro.radram.config import RADramConfig
from repro.radram.system import RADramMemorySystem
from repro.sim import ops as O
from repro.sim.machine import Machine
from repro.sim.memory import PagedMemory

PAGE = 4096


def make_machine(fault_cfg=None):
    cfg = RADramConfig.reference().with_page_bytes(PAGE).with_faults(fault_cfg)
    memsys = RADramMemorySystem(cfg)
    machine = Machine(memory=PagedMemory(page_bytes=PAGE), memsys=memsys)
    return machine, memsys


def run_checked(ops, fault_cfg=None, strict=False, **checker_kw):
    machine, memsys = make_machine(fault_cfg)
    with checking(strict=strict, **checker_kw) as ck:
        machine.run(iter(ops))
    return ck, memsys


TASK = PageTask.simple(1000.0)


class TestRaceDetector:
    def test_read_of_inflight_page_races(self):
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.MemRead(128, 8), O.WaitPage(0)]
        )
        assert ck.counts[runtime.RACE] == 1
        (v,) = ck.violations
        assert v.detector == runtime.RACE
        assert v.page == 0
        assert v.op == "MemRead"

    def test_write_to_inflight_page_races(self):
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.MemWrite(128, 8), O.WaitPage(0)]
        )
        assert ck.counts[runtime.RACE] == 1
        assert ck.violations[0].op == "MemWrite"

    def test_strided_and_gather_accesses_race(self):
        ck, _ = run_checked(
            [
                O.Activate(0, 1, TASK),
                O.StridedRead(addr=0, count=4, stride_bytes=64, elem_bytes=4),
                O.GatherRead([256], elem_bytes=4),
                O.WaitPage(0),
            ]
        )
        assert ck.counts[runtime.RACE] == 2

    def test_other_pages_are_fair_game(self):
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.MemRead(PAGE + 128, 8), O.WaitPage(0)]
        )
        assert ck.total == 0

    def test_waitpage_releases_the_spans(self):
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.WaitPage(0), O.MemRead(128, 8)]
        )
        assert ck.total == 0

    def test_declared_working_spans_narrow_the_race_window(self):
        task = PageTask.simple(1000.0, working_spans=((0, 64),))
        clean, _ = run_checked(
            [O.Activate(0, 1, task), O.MemRead(2048, 8), O.WaitPage(0)]
        )
        assert clean.total == 0
        racy, _ = run_checked(
            [O.Activate(0, 1, task), O.MemRead(32, 8), O.WaitPage(0)]
        )
        assert racy.counts[runtime.RACE] == 1

    def test_one_violation_per_op_not_per_element(self):
        addrs = [8 * k for k in range(32)]  # 32 racing gather elements
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.GatherRead(addrs, elem_bytes=4), O.WaitPage(0)]
        )
        assert ck.counts[runtime.RACE] == 1

    def test_strict_mode_aborts_the_run(self):
        with pytest.raises(CheckError, match="unsynchronized read"):
            run_checked(
                [O.Activate(0, 1, TASK), O.MemRead(128, 8), O.WaitPage(0)],
                strict=True,
            )


class TestCoherenceDetector:
    def test_dirty_lines_at_dispatch_flagged(self):
        # An unflushed processor write under the page's working set:
        # the page would compute on stale DRAM (paper Section 4).
        ck, _ = run_checked(
            [O.MemWrite(0, 64), O.Activate(0, 1, TASK), O.WaitPage(0)]
        )
        assert ck.counts[runtime.COHERENCE] == 1
        assert ck.violations[0].op == "Activate"

    def test_flush_range_restores_coherence(self):
        ck, _ = run_checked(
            [
                O.MemWrite(0, 64),
                O.FlushRange(0, 64),
                O.Activate(0, 1, TASK),
                O.WaitPage(0),
            ]
        )
        assert ck.total == 0

    def test_clean_cached_lines_are_fine(self):
        ck, _ = run_checked(
            [O.MemRead(0, 64), O.Activate(0, 1, TASK), O.WaitPage(0)]
        )
        assert ck.total == 0

    def test_stale_sync_read_flagged(self):
        sync = PAGE - SYNC_BYTES
        # Reading the sync words *before* activating caches the line;
        # the post-wait status read then hits the pre-DONE copy.
        ck, _ = run_checked(
            [
                O.MemRead(sync, 4),
                O.Activate(0, 1, TASK),
                O.WaitPage(0),
                O.MemRead(sync, 4),
            ]
        )
        assert ck.counts[runtime.COHERENCE] == 1
        assert "sync words" in ck.violations[0].message

    def test_stale_sync_gather_read_flagged(self):
        # A short gather's footprint reaches the detector as a list.
        sync = PAGE - SYNC_BYTES
        ck, _ = run_checked(
            [
                O.GatherRead([sync]),
                O.Activate(0, 1, TASK),
                O.WaitPage(0),
                O.GatherRead([sync, sync + 4]),
            ]
        )
        assert ck.counts[runtime.COHERENCE] == 1
        assert "sync words" in ck.violations[0].message

    def test_uncached_sync_read_is_clean(self):
        # The idiomatic app pattern: first sync-word access after the
        # wait misses and fetches fresh data.
        sync = PAGE - SYNC_BYTES
        ck, _ = run_checked(
            [O.Activate(0, 1, TASK), O.WaitPage(0), O.MemRead(sync, 4)]
        )
        assert ck.total == 0


class TestProtocolDetector:
    def test_double_activation_flagged(self):
        ck, _ = run_checked(
            [
                O.Activate(0, 1, TASK),
                O.WaitPage(0),
                O.Activate(1, 1, TASK),
                O.WaitPage(1),
            ]
        )
        assert ck.total == 0
        with pytest.raises(CheckError, match="still in flight"):
            run_checked(
                [O.Activate(0, 1, TASK), O.Activate(0, 1, TASK)], strict=True
            )


class TestFaultsIntegration:
    def test_fault_replay_is_protocol_clean(self):
        # A migration replay restarts an in-flight activation; the
        # checker must understand that handshake, not flag it.
        cfg = FaultConfig(
            schedule=(ScheduledFault(1, 0, HARD_FAULT, in_flight=True),),
            spare_rows=2,
        )
        ck, memsys = run_checked(
            [O.Activate(0, 1, PageTask.simple(50_000.0)), O.WaitPage(0)],
            fault_cfg=cfg,
        )
        assert memsys.fault_counters()["replays"] == 1
        assert ck.total == 0

    def test_degraded_execution_is_clean_and_releases_spans(self):
        cfg = FaultConfig(
            schedule=(ScheduledFault(1, 0, HARD_FAULT, in_flight=True),),
            migration_limit=0,
        )
        ck, memsys = run_checked(
            [
                O.Activate(0, 1, TASK),
                O.WaitPage(0),
                O.MemRead(128, 8),  # page degraded: reads are legal
            ],
            fault_cfg=cfg,
        )
        assert memsys.fault_counters()["degraded_pages"] == 1
        assert ck.total == 0

    def test_replay_with_no_activation_in_flight_flagged(self):
        machine, _ = make_machine()
        with checking() as ck:
            ck.on_replay(5, machine.processor)
        assert ck.counts[runtime.PROTOCOL] == 1
        assert "no activation" in ck.violations[0].message
