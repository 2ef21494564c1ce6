"""Vectorized trace pre-decode.

The replay loop consumes one trace record per step, and before this
module existed every consumer re-derived the same quantities from the
raw byte address with per-access Python arithmetic: the line number
(``address >> line_bits``), the region number, the cache-set index, and
the earliest time the record could issue. For a 64-processor benchmark
that is millions of interpreter-level shift/mask operations that numpy
can do in a handful of array passes at load time.

:func:`predecode` computes, in one vectorized pass per trace:

* ``lines`` — per-access line numbers for the geometry;
* ``regions`` — per-access region numbers;
* ``sets`` — per-access set indices for a requested power-of-two set
  count (``lines & (num_sets - 1)``), when one is requested;
* ``issue_offsets`` — the issue-time prefix sums ``Σ gaps[0..i]``: the
  cycle at which access *i* would issue if every earlier access stalled
  zero cycles. Because stalls are non-negative and gaps are fixed in
  the trace, ``clock + issue_offsets[i] - issue_offsets[j]`` is an exact
  *lower bound* on when access *i* can issue once access *j* is next.

:func:`predecode_scalar` is the obviously-correct per-record
shift/mask/accumulate loop, kept as the reference implementation the
property tests (``tests/workloads/test_predecode.py``) compare against
for randomized geometries and traces, including the empty and
single-record edges.

The hot replay path itself does not take numpy arrays: scalar indexing
into an ndarray costs ~3x a list index, so :class:`~repro.workloads.trace.Trace`
exposes a cached *list* view of its records
(:meth:`~repro.workloads.trace.Trace.replay_lists`) built once per trace
object and shared by every subsequent run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.memory.geometry import Geometry
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class PreDecodedTrace:
    """Per-access decoded indices for one trace (parallel to its records)."""

    #: Line number of each access (``address >> line_offset_bits``).
    lines: np.ndarray
    #: Region number of each access (``address >> region_offset_bits``).
    regions: np.ndarray
    #: Set index of each access for the requested set count, or ``None``.
    sets: Optional[np.ndarray]
    #: Inclusive prefix sums of the gaps: ``issue_offsets[i]`` is the
    #: issue time of access *i* in a zero-stall replay starting at 0.
    issue_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)


def predecode(
    trace: Trace, geometry: Geometry, num_sets: int = 0
) -> PreDecodedTrace:
    """Decode every record of *trace* for *geometry* in one numpy pass.

    ``num_sets`` (a power of two, as every cache array in the system
    uses) additionally yields per-access set indices; 0 skips them.
    """
    if num_sets and num_sets & (num_sets - 1):
        raise ConfigurationError(
            f"num_sets must be a power of two, got {num_sets}"
        )
    addresses = np.asarray(trace.addresses, dtype=np.uint64)
    lines = np.right_shift(addresses, geometry.line_offset_bits).astype(
        np.int64
    )
    regions = np.right_shift(addresses, geometry.region_offset_bits).astype(
        np.int64
    )
    sets = np.bitwise_and(lines, num_sets - 1) if num_sets else None
    issue_offsets = np.cumsum(
        np.asarray(trace.gaps, dtype=np.int64), dtype=np.int64
    )
    return PreDecodedTrace(
        lines=lines, regions=regions, sets=sets, issue_offsets=issue_offsets
    )


def predecode_scalar(
    trace: Trace, geometry: Geometry, num_sets: int = 0
) -> PreDecodedTrace:
    """Reference implementation: one record at a time, plain Python.

    Bit-for-bit what :func:`predecode` must produce; exists only so the
    property tests have an independently-derived answer.
    """
    if num_sets and num_sets & (num_sets - 1):
        raise ConfigurationError(
            f"num_sets must be a power of two, got {num_sets}"
        )
    line_bits = geometry.line_offset_bits
    region_bits = geometry.region_offset_bits
    set_mask = num_sets - 1
    lines = []
    regions = []
    sets = [] if num_sets else None
    issue_offsets = []
    running = 0
    for address, gap in zip(trace.addresses.tolist(), trace.gaps.tolist()):
        line = address >> line_bits
        lines.append(line)
        regions.append(address >> region_bits)
        if num_sets:
            sets.append(line & set_mask)
        running += gap
        issue_offsets.append(running)
    return PreDecodedTrace(
        lines=np.array(lines, dtype=np.int64),
        regions=np.array(regions, dtype=np.int64),
        sets=np.array(sets, dtype=np.int64) if num_sets else None,
        issue_offsets=np.array(issue_offsets, dtype=np.int64),
    )
