"""Trace-driven processor timing model.

A :class:`TraceProcessor` replays one processor's memory-operation stream
against the shared :class:`~repro.system.machine.Machine`. Its clock
advances by each record's *gap* (non-memory work) plus the stall the
memory system reports for the operation. Loads and instruction fetches
stall fully; the machine internally charges stores, DCB operations and
prefetches only their partial-overlap share (see
:class:`~repro.system.config.TimingParameters`).

The processor only knows how to issue its next operation
(:meth:`TraceProcessor.step`) and when that will be
(:attr:`TraceProcessor.next_time`); the order in which processors step
is decided by :class:`~repro.system.simulator.Simulator`.
"""

from __future__ import annotations

from typing import Callable, List

from repro.common.errors import SimulationError
from repro.system.machine import Machine
from repro.workloads.trace import Trace, TraceOp


class TraceProcessor:
    """Replays one trace; owns one processor's clock."""

    def __init__(self, proc_id: int, trace: Trace, machine: Machine) -> None:
        self.proc_id = proc_id
        self.trace = trace
        self.machine = machine
        self.clock = 0
        self.index = 0
        self.stall_cycles = 0
        self.gap_cycles = 0
        # Dispatch is a dense list indexed by the op code (TraceOp values
        # are contiguous 0..5): one list index instead of an int-keyed
        # dict hash per operation.
        handlers = {
            int(TraceOp.LOAD): machine.load,
            int(TraceOp.STORE): machine.store,
            int(TraceOp.IFETCH): machine.ifetch,
            int(TraceOp.DCBZ): machine.dcbz,
            int(TraceOp.DCBF): machine.dcbf,
            int(TraceOp.DCBI): machine.dcbi,
        }
        self._dispatch: List[Callable[[int, int, int], int]] = [
            handlers[code] for code in range(len(handlers))
        ]
        # Plain Python lists (scalar indexing into NumPy arrays inside
        # the hot loop costs ~3x a list index), built once per Trace
        # object and shared across runs/repeats of the same workload.
        self._ops, self._addresses, self._gaps = trace.replay_lists()
        self._length = len(self._ops)

    @property
    def done(self) -> bool:
        """Whether the trace is exhausted."""
        return self.index >= self._length

    @property
    def next_time(self) -> int:
        """Cycle at which the next operation will issue."""
        if self.done:
            raise SimulationError(f"processor {self.proc_id} trace exhausted")
        return self.clock + self._gaps[self.index]

    def step(self) -> None:
        """Issue the next operation and advance the clock past its stall."""
        i = self.index
        gap = self._gaps[i]
        issue_at = self.clock + gap
        stall = self._dispatch[self._ops[i]](self.proc_id, self._addresses[i], issue_at)
        if stall < 0:
            raise SimulationError(
                f"processor {self.proc_id}: negative stall {stall} at op {i}"
            )
        self.clock = issue_at + stall
        self.stall_cycles += stall
        self.gap_cycles += gap
        self.index = i + 1
