"""The reference trace profiler: one record at a time, obviously right.

:class:`repro.traces.profiler.TraceProfiler` computes its profile with
whole-chunk numpy passes. This module is the slow, plain counterpart it
is checked against: an Olken-style Fenwick tree over access positions
for the LRU stack distance (O(log N) per access), one
:class:`~repro.conformance.golden.GoldenModel` step per access for the
Figure-2 verdict, and per-region processor bitmasks for the sharing
footprint. Both must produce the same ``to_dict()``, field for field.

Run as a script to check a saved profile against a trace file::

    PYTHONPATH=src python tests/traces/reference_profiler.py \\
        trace.bin profile.json

It exits non-zero, naming the differing fields, when they disagree.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.conformance.golden import GoldenModel
from repro.traces.profiler import (
    OracleProfile,
    ReuseDistanceHistogram,
    TraceProfile,
)
from repro.traces.reader import EventChunk, detect_format, read_events
from repro.workloads.trace import TraceOp

_WRITE_OPS = (int(TraceOp.STORE), int(TraceOp.DCBZ))
_READ_OPS = (int(TraceOp.LOAD), int(TraceOp.IFETCH))


class _Fenwick:
    """Binary indexed tree over access positions (1-based).

    The profiler marks the most recent position of every live line;
    when the clock outgrows the capacity, it rebuilds a doubled tree
    from those marks.
    """

    __slots__ = ("tree", "size")

    def __init__(self, size: int = 1024, marks: Iterable[int] = ()) -> None:
        self.size = size
        self.tree = [0] * (size + 1)
        for mark in marks:
            self.add(mark, 1)

    def add(self, index: int, delta: int) -> None:
        tree = self.tree
        while index <= self.size:
            tree[index] += delta
            index += index & -index

    def prefix(self, index: int) -> int:
        total = 0
        tree = self.tree
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total


@dataclass
class _Footprint:
    readers: int = 0   # processor bitmask
    writers: int = 0   # processor bitmask
    upgrades: int = 0


class ReferenceProfiler:
    """Same constructor, ``feed`` and ``finish`` as ``TraceProfiler``."""

    def __init__(
        self,
        line_bytes: int = 64,
        region_bytes: int = 512,
        num_processors: Optional[int] = None,
        distance_scale: int = 1,
    ) -> None:
        self.line_shift = line_bytes.bit_length() - 1
        self.region_shift = region_bytes.bit_length() - 1
        self.line_bytes = line_bytes
        self.region_bytes = region_bytes
        self.distance_scale = distance_scale
        self.declared_processors = num_processors
        self.top_proc = -1
        self.accesses = 0
        self.op_counts = [0] * (max(TraceOp) + 1)
        self.reuse = ReuseDistanceHistogram()
        self.oracle = OracleProfile()
        self.regions: Dict[int, _Footprint] = {}
        self.last_pos: Dict[int, int] = {}
        self.fenwick = _Fenwick()
        self.clock = 0
        self.golden = GoldenModel(64)

    def record_distance(self, distance: int) -> None:
        reuse = self.reuse
        reuse.finite += 1
        reuse.total_distance += distance
        reuse.max_distance = max(reuse.max_distance, distance)
        bucket = distance.bit_length()
        reuse.buckets[bucket] = reuse.buckets.get(bucket, 0) + 1

    def feed(self, chunk: EventChunk) -> None:
        region_line_shift = self.region_shift - self.line_shift
        last_pos = self.last_pos
        for proc, op, address in zip(chunk.procs.tolist(),
                                     chunk.ops.tolist(),
                                     chunk.addresses.tolist()):
            self.top_proc = max(self.top_proc, proc)
            self.op_counts[op] += 1
            line = address >> self.line_shift
            region = address >> self.region_shift

            # Reuse distance (Olken/Fenwick).
            self.clock += 1
            if self.clock > self.fenwick.size:
                self.fenwick = _Fenwick(self.fenwick.size * 2,
                                        marks=last_pos.values())
            previous = last_pos.get(line)
            if previous is None:
                self.reuse.cold += 1
            else:
                distance = self.fenwick.prefix(self.clock - 1) \
                    - self.fenwick.prefix(previous)
                if self.distance_scale != 1 and distance:
                    # Region-aware SHARDS correction: only lines outside
                    # the reused line's region are scaled back up.
                    base = (line >> region_line_shift) << region_line_shift
                    same = 0
                    for mate in range(base, base + (1 << region_line_shift)):
                        if mate != line:
                            pos = last_pos.get(mate)
                            if pos is not None and pos > previous:
                                same += 1
                    distance = same + (distance - same) * self.distance_scale
                self.record_distance(distance)
                self.fenwick.add(previous, -1)
            self.fenwick.add(self.clock, 1)
            last_pos[line] = self.clock

            # Region sharing footprint.
            footprint = self.regions.setdefault(region, _Footprint())
            bit = 1 << proc
            if op in _WRITE_OPS:
                if (footprint.readers & bit) \
                        and not (footprint.writers & bit):
                    footprint.upgrades += 1
                footprint.writers |= bit
            elif op in _READ_OPS:
                footprint.readers |= bit

            # Oracle Figure 2 verdict (golden may-hold model).
            verdict = self.golden.access(proc, TraceOp(op), line)
            cell = self.oracle.per_op.setdefault(TraceOp(op).name, [0, 0])
            if verdict.must_broadcast:
                self.oracle.needed += 1
                cell[0] += 1
            else:
                self.oracle.unnecessary += 1
                cell[1] += 1
        self.accesses += len(chunk)

    def finish(self) -> TraceProfile:
        width = self.declared_processors
        if width is None:
            width = self.top_proc + 1
        shared = write_shared = upgrades = 0
        sharer_histogram: Dict[int, int] = {}
        for footprint in self.regions.values():
            sharers = bin(footprint.readers | footprint.writers).count("1")
            sharer_histogram[sharers] = sharer_histogram.get(sharers, 0) + 1
            if sharers >= 2:
                shared += 1
                if footprint.writers:
                    write_shared += 1
            upgrades += footprint.upgrades
        return TraceProfile(
            accesses=self.accesses,
            num_processors=width,
            line_bytes=self.line_bytes,
            region_bytes=self.region_bytes,
            distance_scale=self.distance_scale,
            op_counts={TraceOp(code).name: count
                       for code, count in enumerate(self.op_counts)
                       if count},
            reuse=self.reuse,
            oracle=self.oracle,
            regions_touched=len(self.regions),
            regions_shared=shared,
            regions_write_shared=write_shared,
            upgrades=upgrades,
            sharer_histogram=sharer_histogram,
            lines_touched=len(self.last_pos),
        )


def reference_profile(chunks: Iterable[EventChunk], **kwargs) -> TraceProfile:
    """Profile an event stream record by record."""
    profiler = ReferenceProfiler(**kwargs)
    for chunk in chunks:
        profiler.feed(chunk)
    return profiler.finish()


def reference_profile_file(path: Union[str, Path], **kwargs) -> TraceProfile:
    """Profile a CSV/binary trace file in its own event order."""
    return reference_profile(
        read_events(path),
        num_processors=detect_format(path).num_processors, **kwargs)


def main(argv: List[str]) -> int:
    trace, saved = argv
    want = json.loads(Path(saved).read_text())
    got = json.loads(json.dumps(reference_profile_file(trace).to_dict()))
    differing = sorted(key for key in want.keys() | got.keys()
                       if want.get(key) != got.get(key))
    if differing:
        for key in differing:
            print(f"{key}: profile {want.get(key)!r} "
                  f"!= reference {got.get(key)!r}")
        return 1
    print(f"{trace}: profile equals the reference on all "
          f"{len(want)} fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
