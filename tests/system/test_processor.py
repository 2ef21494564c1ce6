"""Trace-driven processor timing."""

import pytest

from repro.common.errors import SimulationError
from repro.system.machine import Machine
from repro.system.processor import TraceProcessor
from repro.workloads.trace import TraceOp

from tests.conftest import make_config, trace_of


@pytest.fixture
def machine():
    return Machine(make_config(cgct=False))


def step_to_end(proc):
    while not proc.done:
        proc.step()


def test_gaps_advance_the_clock(machine):
    trace = trace_of([(TraceOp.LOAD, 0x1000, 100), (TraceOp.LOAD, 0x1000, 50)])
    proc = TraceProcessor(0, trace, machine)
    proc.step()
    first_clock = proc.clock
    assert first_clock == 100 + 262  # gap + cold miss
    proc.step()
    assert proc.clock == first_clock + 50 + 1  # gap + L1 hit


def test_next_time_previews_issue_cycle(machine):
    trace = trace_of([(TraceOp.LOAD, 0x1000, 42)])
    proc = TraceProcessor(0, trace, machine)
    assert proc.next_time == 42
    proc.step()
    assert proc.done


def test_next_time_after_exhaustion_raises(machine):
    proc = TraceProcessor(0, trace_of([]), machine)
    assert proc.done
    with pytest.raises(SimulationError):
        proc.next_time


def test_stall_and_gap_accounting(machine):
    trace = trace_of([
        (TraceOp.LOAD, 0x1000, 10),
        (TraceOp.LOAD, 0x1000, 20),
    ])
    proc = TraceProcessor(0, trace, machine)
    step_to_end(proc)
    assert proc.gap_cycles == 30
    assert proc.stall_cycles == 262 + 1
    assert proc.clock == proc.gap_cycles + proc.stall_cycles


def test_all_op_kinds_dispatch(machine):
    trace = trace_of([
        (TraceOp.LOAD, 0x1000, 0),
        (TraceOp.STORE, 0x2000, 0),
        (TraceOp.IFETCH, 0x3000, 0),
        (TraceOp.DCBZ, 0x4000, 0),
        (TraceOp.DCBF, 0x2000, 0),
        (TraceOp.DCBI, 0x1000, 0),
    ])
    proc = TraceProcessor(0, trace, machine)
    step_to_end(proc)
    assert proc.index == 6
