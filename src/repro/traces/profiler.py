"""Trace profiling: reuse distance, sharing, Figure-2 oracle.

One streaming pass over an event stream (see :mod:`repro.traces.reader`)
computes three profiles at once, without running the simulator. Each
chunk is profiled in blocks of at most 65 536 records by whole-block
numpy passes; no Python code runs per record.

* **Reuse-distance histogram** — for every access, the number of
  *distinct* cache lines touched since the previous access to the same
  line (the LRU stack distance), computed exactly from the identity
  ``distance(t) = #{q < t : prev(q) < p} - (p + 1)`` with ``p =
  prev(t)`` (0-based positions, ``prev = -1`` for a first touch).
  Earlier blocks' counts come from one bulk binary search in the
  ascending last positions of all lines (Olken's marks, kept as a
  sorted array); counts inside the block from sort-based dominance
  counting, one vectorised pass per bit level. O(log N) work per
  access. First touches count as *cold*. Finite distances land in
  power-of-two buckets (``0``, ``1``, ``2-3``, ``4-7``, …).
* **Per-region sharing footprint** — per (region, processor): whether
  it read or wrote the region, and *upgrades* (the first write by a
  processor that had previously only read the region). Aggregated
  into the sharer-count histogram and shared/write-shared fractions.
* **Oracle Figure-2 profile** — every access is judged by the
  conformance suite's golden may-hold model
  (:class:`repro.conformance.golden.GoldenModel`): would a broadcast
  have been *needed* (some remote processor may hold the line — or, for
  instruction fetches, may hold it dirty), or would it have been
  unnecessary? The verdicts are computed with stable sorts by line and
  segmented scans over the model's epochs (a write or purge resets a
  line's holders), with no processor bitmasks, so any processor count
  the binary format allows works. This is the paper's Figure 2 upper
  bound computed directly from the trace. Note the denominator: the
  profile judges **every access**, while the live machine's Figure 2
  counters classify only *external requests* (cache misses);
  ``docs/traces.md`` spells out the exact reconciliation the
  differential tests pin.

Memory: temporaries are bounded by the block size. The carried state
grows with the trace's footprint, not its length: about 33 bytes per
distinct line, 16 per region and 10 per (region, processor) pair.
Updating the sorted tables costs O(footprint) per block.

All three profiles are pure functions of the event stream *order*, so
they are invariant to reader chunking; for in-memory workloads the
canonical round-robin interleaving is used. ``distance_scale`` supports
the spatial sampler's region-aware SHARDS correction: a sampled reuse
distance splits into an intra-region part (lines in the reused line's
own region — preserved *exactly* by region-aligned sampling) and an
inter-region part (thinned by the sampling rate); only the latter is
multiplied back up before bucketing, which makes the sampled histogram
directly comparable to the full trace's even when reuse is dominated by
short spatial-locality distances. The intra-region count is taken one
region-mate offset at a time, vectorised over the block.

``tests/traces/reference_profiler.py`` holds the record-at-a-time
reference (Fenwick tree + golden model step per access) this module is
checked against field for field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.common.errors import WorkloadError
from repro.traces.reader import EventChunk, read_events, workload_to_events
from repro.workloads.trace import MultiTrace, TraceOp

#: Profile JSON schema identifier.
PROFILE_SCHEMA = "cgct-trace-profile/v1"

#: Trace operations that write the line (mirror of the golden model).
_WRITE_OPS = (int(TraceOp.STORE), int(TraceOp.DCBZ))

#: Trace operations that purge the line from every cache.
_PURGE_OPS = (int(TraceOp.DCBF), int(TraceOp.DCBI))

_IFETCH = int(TraceOp.IFETCH)
_NUM_OPS = max(TraceOp) + 1
_OP_NAMES = [TraceOp(code).name for code in range(_NUM_OPS)]

#: Most records one vectorised step works on; it bounds the temporaries.
_BLOCK = 65_536


@dataclass
class ReuseDistanceHistogram:
    """Exact LRU stack distances in power-of-two buckets."""

    cold: int = 0
    finite: int = 0
    total_distance: int = 0
    max_distance: int = 0
    #: bucket index -> count; bucket 0 is distance 0, bucket k>=1 holds
    #: distances in [2^(k-1), 2^k).
    buckets: Dict[int, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total_distance / self.finite if self.finite else 0.0

    def shares(self) -> Dict[int, float]:
        """Normalized bucket shares over finite accesses."""
        if not self.finite:
            return {}
        return {b: c / self.finite for b, c in self.buckets.items()}

    def to_dict(self) -> Dict:
        rows = []
        for bucket in sorted(self.buckets):
            lo = 0 if bucket == 0 else 1 << (bucket - 1)
            hi = 0 if bucket == 0 else (1 << bucket) - 1
            rows.append([lo, hi, self.buckets[bucket]])
        return {
            "cold": self.cold,
            "finite": self.finite,
            "mean": self.mean,
            "max": self.max_distance,
            "buckets": rows,
        }


@dataclass
class OracleProfile:
    """Golden-model Figure 2 verdict counts (per access)."""

    needed: int = 0
    unnecessary: int = 0
    #: op name -> [needed, unnecessary]
    per_op: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.needed + self.unnecessary

    @property
    def fraction_unnecessary(self) -> float:
        return self.unnecessary / self.total if self.total else 0.0

    def to_dict(self) -> Dict:
        return {
            "needed": self.needed,
            "unnecessary": self.unnecessary,
            "fraction_unnecessary": self.fraction_unnecessary,
            "per_op": {k: list(v) for k, v in sorted(self.per_op.items())},
        }


@dataclass
class TraceProfile:
    """Everything one profiling pass produced."""

    accesses: int
    num_processors: int
    line_bytes: int
    region_bytes: int
    distance_scale: int
    op_counts: Dict[str, int]
    reuse: ReuseDistanceHistogram
    oracle: OracleProfile
    regions_touched: int
    regions_shared: int
    regions_write_shared: int
    upgrades: int
    sharer_histogram: Dict[int, int]
    lines_touched: int

    # -- headline ratios the sampler's error report compares ----------
    @property
    def shared_region_fraction(self) -> float:
        if not self.regions_touched:
            return 0.0
        return self.regions_shared / self.regions_touched

    @property
    def store_fraction(self) -> float:
        if not self.accesses:
            return 0.0
        stores = sum(
            self.op_counts.get(TraceOp(code).name, 0)
            for code in _WRITE_OPS
        )
        return stores / self.accesses

    def to_dict(self) -> Dict:
        return {
            "schema": PROFILE_SCHEMA,
            "accesses": self.accesses,
            "num_processors": self.num_processors,
            "line_bytes": self.line_bytes,
            "region_bytes": self.region_bytes,
            "distance_scale": self.distance_scale,
            "op_counts": dict(sorted(self.op_counts.items())),
            "reuse_distance": self.reuse.to_dict(),
            "oracle": self.oracle.to_dict(),
            "regions": {
                "touched": self.regions_touched,
                "shared": self.regions_shared,
                "write_shared": self.regions_write_shared,
                "upgrades": self.upgrades,
                "shared_fraction": self.shared_region_fraction,
                "sharer_histogram": {
                    str(k): v
                    for k, v in sorted(self.sharer_histogram.items())
                },
            },
            "lines_touched": self.lines_touched,
            "store_fraction": self.store_fraction,
        }

    def save_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


class TraceProfiler:
    """Streaming profiler; feed chunks, then ``finish()``.

    Each chunk is profiled in blocks of at most :data:`_BLOCK` records
    with whole-block numpy passes. What carries from block to block is
    per-line state (last position, oracle holder/dirty state), the
    lines' last positions in ascending order, and per-(region,
    processor) read/write flags. ``num_processors`` may be None: it is
    learned from the stream.
    """

    def __init__(
        self,
        line_bytes: int = 64,
        region_bytes: int = 512,
        num_processors: Optional[int] = None,
        distance_scale: int = 1,
    ) -> None:
        if line_bytes & (line_bytes - 1) or line_bytes <= 0:
            raise WorkloadError(
                f"line_bytes must be a power of two, got {line_bytes}"
            )
        if region_bytes & (region_bytes - 1) or region_bytes < line_bytes:
            raise WorkloadError(
                f"region_bytes must be a power-of-two multiple of "
                f"line_bytes, got {region_bytes}"
            )
        if distance_scale < 1:
            raise WorkloadError(
                f"distance_scale must be >= 1, got {distance_scale}"
            )
        self.line_shift = line_bytes.bit_length() - 1
        self.region_shift = region_bytes.bit_length() - 1
        self.line_bytes = line_bytes
        self.region_bytes = region_bytes
        self.distance_scale = distance_scale
        self.declared_processors = num_processors
        self.top_proc = -1
        self.accesses = 0
        self.reuse = ReuseDistanceHistogram()
        self._op_counts = np.zeros(_NUM_OPS, np.int64)
        #: [op, 0] needed / [op, 1] unnecessary verdict counts.
        self._verdicts = np.zeros((_NUM_OPS, 2), np.int64)
        # Per-line state, sorted by line number: last access position,
        # one may-holder (-1: none), whether a second distinct
        # processor may also hold it, and the dirty owner (-1: clean).
        self._lines = np.empty(0, np.uint64)
        self._last = np.empty(0, np.int64)
        self._holder = np.empty(0, np.int32)
        self._multi = np.empty(0, bool)
        self._dirty = np.empty(0, np.int32)
        # The same last positions, ascending.
        self._last_ascending = np.empty(0, np.int64)
        # Regions, sorted, with ids stable across blocks; and the
        # (region id << 32 | proc) pairs that read or wrote them.
        self._regions = np.empty(0, np.uint64)
        self._region_ids = np.empty(0, np.int64)
        self._pairs = np.empty(0, np.int64)
        self._pair_read = np.empty(0, bool)
        self._pair_written = np.empty(0, bool)
        self._upgrades = 0

    # ------------------------------------------------------------------
    def feed(self, chunk: EventChunk) -> None:
        """Consume one event chunk (stream order is the interleaving)."""
        for start in range(0, len(chunk), _BLOCK):
            stop = start + _BLOCK
            self._block(
                chunk.procs[start:stop].astype(np.int64, copy=False),
                chunk.ops[start:stop].astype(np.int64),
                chunk.addresses[start:stop].astype(np.uint64, copy=False),
            )

    def _block(self, procs: np.ndarray, ops: np.ndarray,
               addresses: np.ndarray) -> None:
        n = len(procs)
        start = self.accesses
        self.accesses += n
        self.top_proc = max(self.top_proc, int(procs.max()))
        self._op_counts += np.bincount(ops, minlength=_NUM_OPS)
        is_write = np.isin(ops, _WRITE_OPS)
        is_purge = np.isin(ops, _PURGE_OPS)

        # Group the block by line; within a line, positions ascend.
        lines = addresses >> np.uint64(self.line_shift)
        order = np.argsort(lines, kind="stable")
        sorted_lines = lines[order]
        first = np.ones(n, bool)
        first[1:] = sorted_lines[1:] != sorted_lines[:-1]
        unique_lines = sorted_lines[first]
        run = np.cumsum(first) - 1
        slot, known = _lookup(self._lines, unique_lines)
        carried = slot[known]

        # prev(t): the line's previous position, -1 for a first touch.
        prev_sorted = np.empty(n, np.int64)
        prev_sorted[1:] = start + order[:-1]
        prev_sorted[first] = -1
        first_at = np.flatnonzero(first)
        prev_sorted[first_at[known]] = self._last[carried]
        prev = np.empty(n, np.int64)
        prev[order] = prev_sorted

        last_at = np.append(first_at[1:] - 1, n - 1)

        self._reuse(prev, start, lines, order, run, unique_lines)
        holder, multi, dirty = self._oracle(
            procs[order], ops[order], is_write[order], is_purge[order],
            first, last_at, known, carried)
        self._sharing(procs, addresses, is_write, is_purge)

        # Fold the block's per-line outcome into the line table.
        last = start + order[last_at]
        ascending = self._last_ascending
        self._last_ascending = np.append(
            np.delete(ascending,
                      np.searchsorted(ascending, self._last[carried])),
            np.sort(last))
        self._last[carried] = last[known]
        self._holder[carried] = holder[known]
        self._multi[carried] = multi[known]
        self._dirty[carried] = dirty[known]
        new = ~known
        at = slot[new]
        self._lines = np.insert(self._lines, at, unique_lines[new])
        self._last = np.insert(self._last, at, last[new])
        self._holder = np.insert(self._holder, at, holder[new])
        self._multi = np.insert(self._multi, at, multi[new])
        self._dirty = np.insert(self._dirty, at, dirty[new])

    # ------------------------------------------------------------------
    def _reuse(self, prev, start, lines, order, run,
               unique_lines) -> None:
        """Exact LRU stack distances of the block's warm accesses.

        With 0-based positions and prev = -1 for first touches, the
        distinct lines between p = prev(t) and t number
        ``#{q < t : prev(q) < p} - (p + 1)``: every q <= p counts, and
        after p exactly each line's first access counts. This block's q
        come from :func:`_earlier_smaller`. Of the earlier q, with
        b = min(p, start), all q < b count, and the q in [b, start) with
        prev(q) < b number exactly the lines whose last position before
        the block is >= b: every other position in [b, start) is prev(q)
        of one q in that range.
        """
        n = len(prev)
        within = _earlier_smaller(prev)
        warm = prev >= 0
        p = prev[warm]
        b = np.minimum(p, start)
        ascending = self._last_ascending
        since = len(ascending) - np.searchsorted(ascending, b)
        distance = b + since + within[warm] - (p + 1)
        self.reuse.cold += n - len(p)
        if not len(p):
            return
        scale = self.distance_scale
        if scale != 1:
            t = np.flatnonzero(warm)
            far = distance > 0
            same = self._same_region(
                lines[t[far]], t[far], p[far] - start, start, order, run,
                unique_lines)
            distance[far] = same + (distance[far] - same) * scale
        buckets = np.bincount(np.frexp(distance)[1])
        histogram = self.reuse
        histogram.finite += len(distance)
        histogram.total_distance += int(distance.sum())
        histogram.max_distance = max(histogram.max_distance,
                                     int(distance.max()))
        for bucket in np.flatnonzero(buckets).tolist():
            histogram.buckets[bucket] = \
                histogram.buckets.get(bucket, 0) + int(buckets[bucket])

    def _same_region(self, lines, t, p, start, order, run,
                     unique_lines) -> np.ndarray:
        """For the region-aware SHARDS correction: how many of each
        line's region-mates were touched between p and t (both block
        offsets; p may be negative)."""
        n = len(order)
        # Block accesses keyed (line run, offset), ascending.
        keys = run * n + order
        region_line_shift = np.uint64(self.region_shift - self.line_shift)
        base = (lines >> region_line_shift) << region_line_shift
        same = np.zeros(len(lines), np.int64)
        for offset in range(1 << int(region_line_shift)):
            mate = base + np.uint64(offset)
            # The mate's last position before t: in this block if it
            # was touched here before t, else the carried table entry.
            slot, present = _lookup(unique_lines, mate)
            key = np.searchsorted(keys, slot * n + t) - 1
            in_block = present & (key >= 0)
            in_block[in_block] = run[key[in_block]] == slot[in_block]
            seen = np.full(len(lines), -1 - start, np.int64)
            seen[in_block] = order[key[in_block]]
            outside = np.flatnonzero(~in_block)
            old_slot, old = _lookup(self._lines, mate[outside])
            seen[outside[old]] = self._last[old_slot[old]] - start
            # The line itself was last seen at p, so it never counts.
            same += seen > p
        return same

    # ------------------------------------------------------------------
    def _oracle(self, procs, ops, is_write, is_purge, first, last, known,
                carried):
        """Golden may-hold verdicts for the block, grouped by line.

        The golden model's holder set only ever grows by reads until a
        write (holders = {writer}) or a purge (holders = {}) resets it,
        so each line's accesses split into epochs. Within an epoch a
        verdict needs the epoch's first holder F, whether some other
        processor already joined, and the dirty owner, which only a
        reset moves. Returns the per-line state after the block.
        """
        reset = is_write | is_purge
        is_read = ~reset
        begin = first.copy()
        begin[1:] |= reset[:-1]
        epoch = np.cumsum(begin) - 1
        e0 = np.flatnonzero(begin)

        # Each epoch's starting state: carried for a line's first
        # access in the block, else what the reset before it left.
        base_holder = np.full(len(e0), -1, np.int64)
        base_multi = np.zeros(len(e0), bool)
        from_line = first[e0]
        line_epochs = np.flatnonzero(from_line)[known]
        base_holder[line_epochs] = self._holder[carried]
        base_multi[line_epochs] = self._multi[carried]
        base_dirty = base_holder.copy()
        base_dirty[line_epochs] = self._dirty[carried]
        after = ~from_line
        reset_at = e0[after] - 1
        base_holder[after] = np.where(is_write[reset_at], procs[reset_at],
                                      -1)
        base_dirty[after] = base_holder[after]

        # F: the base holder, else the epoch's first reader.
        head = base_holder.copy()
        reads = np.flatnonzero(is_read)
        read_epochs = epoch[reads]
        opens = np.ones(len(reads), bool)
        opens[1:] = read_epochs[1:] != read_epochs[:-1]
        opener = read_epochs[opens]
        head[opener] = np.where(head[opener] < 0, procs[reads[opens]],
                                head[opener])

        def before_in_epoch(flags):
            """How many earlier accesses of the same epoch have *flags*."""
            before = np.cumsum(flags) - flags
            return before - before[e0[epoch]]

        f = head[epoch]
        differ = is_read & (procs != f)
        others = before_in_epoch(differ)
        held = (base_holder[epoch] >= 0) | (before_in_epoch(is_read) > 0)
        needed = held & ((others > 0) | base_multi[epoch] | (f != procs))
        dirty = base_dirty[epoch]
        fetch = ops == _IFETCH
        needed[fetch] = (dirty[fetch] >= 0) & (dirty[fetch] != procs[fetch])
        self._verdicts += np.bincount(
            ops * 2 + ~needed, minlength=2 * _NUM_OPS,
        ).reshape(_NUM_OPS, 2)

        # State after each line's last access in the block.
        last_epoch = epoch[last]
        left = np.where(is_write[last], procs[last], -1)
        ends_reset = reset[last]
        holder = np.where(ends_reset, left, head[last_epoch])
        multi = ~ends_reset & (base_multi[last_epoch]
                               | (others[last] + differ[last] > 0))
        dirty = np.where(ends_reset, left, base_dirty[last_epoch])
        return holder, multi, dirty

    # ------------------------------------------------------------------
    def _sharing(self, procs, addresses, is_write, is_purge) -> None:
        """Per-(region, processor) read/write flags and upgrades."""
        regions = addresses >> np.uint64(self.region_shift)
        unique_regions, region_of = np.unique(regions, return_inverse=True)
        slot, known = _lookup(self._regions, unique_regions)
        ids = np.empty(len(unique_regions), np.int64)
        ids[known] = self._region_ids[slot[known]]
        new = ~known
        ids[new] = len(self._regions) + np.arange(int(new.sum()))
        self._regions = np.insert(self._regions, slot[new],
                                  unique_regions[new])
        self._region_ids = np.insert(self._region_ids, slot[new], ids[new])

        # Flushes touch the region but make no processor a sharer.
        touching = ~is_purge
        pairs = (ids[region_of[touching]] << 32) | procs[touching]
        writes = is_write[touching]
        unique_pairs, pair_of = np.unique(pairs, return_inverse=True)
        steps = np.arange(len(pairs))
        first_read = np.full(len(unique_pairs), len(pairs), np.int64)
        first_write = first_read.copy()
        np.minimum.at(first_read, pair_of[~writes], steps[~writes])
        np.minimum.at(first_write, pair_of[writes], steps[writes])
        read = first_read < len(pairs)
        written = first_write < len(pairs)

        slot, known = _lookup(self._pairs, unique_pairs)
        had = slot[known]
        was_read = np.zeros(len(unique_pairs), bool)
        was_written = was_read.copy()
        was_read[known] = self._pair_read[had]
        was_written[known] = self._pair_written[had]
        # An upgrade: a processor's first write to a region it had read.
        self._upgrades += int(np.count_nonzero(
            written & ~was_written & (was_read | (first_read < first_write))))
        self._pair_read[had] |= read[known]
        self._pair_written[had] |= written[known]
        new = ~known
        self._pairs = np.insert(self._pairs, slot[new], unique_pairs[new])
        self._pair_read = np.insert(self._pair_read, slot[new], read[new])
        self._pair_written = np.insert(self._pair_written, slot[new],
                                       written[new])

    # ------------------------------------------------------------------
    def finish(self) -> TraceProfile:
        """Freeze the pass into a :class:`TraceProfile`."""
        width = self.declared_processors
        if width is None:
            width = self.top_proc + 1
        elif self.top_proc >= width:
            raise WorkloadError(
                f"trace events name processor {self.top_proc} but only "
                f"{width} processors were declared"
            )
        owners = self._pairs >> 32
        sharers = np.bincount(owners, minlength=len(self._regions))
        written = np.bincount(owners[self._pair_written],
                              minlength=len(self._regions)) > 0
        counts, occurrences = np.unique(sharers, return_counts=True)
        shared = sharers >= 2
        oracle = OracleProfile()
        for code, count in enumerate(self._op_counts.tolist()):
            if count:
                needed, unnecessary = self._verdicts[code].tolist()
                oracle.per_op[_OP_NAMES[code]] = [needed, unnecessary]
                oracle.needed += needed
                oracle.unnecessary += unnecessary
        return TraceProfile(
            accesses=self.accesses,
            num_processors=width,
            line_bytes=self.line_bytes,
            region_bytes=self.region_bytes,
            distance_scale=self.distance_scale,
            op_counts={
                _OP_NAMES[code]: count
                for code, count in enumerate(self._op_counts.tolist())
                if count
            },
            reuse=self.reuse,
            oracle=oracle,
            regions_touched=len(self._regions),
            regions_shared=int(np.count_nonzero(shared)),
            regions_write_shared=int(np.count_nonzero(shared & written)),
            upgrades=self._upgrades,
            sharer_histogram=dict(zip(counts.tolist(),
                                      occurrences.tolist())),
            lines_touched=len(self._lines),
        )


def _lookup(table: np.ndarray, keys: np.ndarray):
    """Slots of *keys* in the sorted *table*, and which are present."""
    slot = np.searchsorted(table, keys)
    known = slot < len(table)
    known[known] = table[slot[known]] == keys[known]
    return slot, known


def _earlier_smaller(values: np.ndarray) -> np.ndarray:
    """For each i, how many j < i have ``values[j] < values[i]``.

    Ranks break ties latest-first, so equal values never count. Then,
    bit level by bit level from the top, each element with a 1 at that
    rank bit counts the earlier elements of its group (same higher rank
    bits) with a 0 there. The elements are kept ordered by group and,
    within a group, by stream position, so each group occupies the
    positions equal to its ranks; a stable split on the bit refines the
    order for the next level. O(n log n), one vectorised pass per level.
    """
    n = len(values)
    positions = np.arange(n, dtype=np.int32)
    by_rank = np.argsort((values + 1) * n + (n - 1 - positions))
    ranks = np.empty(n, np.int32)
    ranks[by_rank] = positions
    counts = np.zeros(n, np.int32)
    # ranks and counts are kept in sequence order; the last level
    # leaves every element at the position of its rank.
    for level in reversed(range(max(n - 1, 1).bit_length())):
        one = (ranks >> level) & 1
        zero = 1 - one
        zeros_before = np.cumsum(zero, dtype=np.int32) - zero
        group = ranks >> (level + 1) << (level + 1)
        zeros_before -= zeros_before[group]
        counts += one * zeros_before
        target = np.where(one, (1 << level) + positions - zeros_before,
                          group + zeros_before)
        refined = np.empty_like(ranks)
        refined[target] = ranks
        ranks = refined
        refined = np.empty_like(counts)
        refined[target] = counts
        counts = refined
    within = np.empty(n, np.int64)
    within[by_rank] = counts
    return within


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def profile_events(
    chunks: Iterable[EventChunk],
    line_bytes: int = 64,
    region_bytes: int = 512,
    num_processors: Optional[int] = None,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile an event stream (chunking-invariant)."""
    profiler = TraceProfiler(
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=num_processors, distance_scale=distance_scale,
    )
    for chunk in chunks:
        profiler.feed(chunk)
    return profiler.finish()


def profile_file(
    path: Union[str, Path],
    line_bytes: int = 64,
    region_bytes: int = 512,
    chunk_records: int = 65_536,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile a CSV/binary trace file in its own event order."""
    from repro.traces.reader import detect_format

    info = detect_format(path)
    if info.format == "npz":
        return profile_workload(
            MultiTrace.load(path), line_bytes=line_bytes,
            region_bytes=region_bytes, distance_scale=distance_scale,
        )
    return profile_events(
        read_events(path, chunk_records=chunk_records),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=info.num_processors,
        distance_scale=distance_scale,
    )


def profile_workload(
    workload: MultiTrace,
    line_bytes: int = 64,
    region_bytes: int = 512,
    distance_scale: int = 1,
) -> TraceProfile:
    """Profile an in-memory workload in round-robin interleaving."""
    return profile_events(
        workload_to_events(workload),
        line_bytes=line_bytes, region_bytes=region_bytes,
        num_processors=workload.num_processors,
        distance_scale=distance_scale,
    )
