"""Power4-style stream prefetcher with R10000-style exclusive prefetch.

The prefetcher watches L2 accesses at line granularity. A miss at line
*L* allocates tentative ascending and descending stream heads; a second
miss at *L±1* confirms the matching direction. A confirmed stream keeps
``runahead`` lines prefetched ahead of the demand point and advances as
the demand stream walks forward — including on demand *hits* to the lines
it prefetched, which is what keeps the window rolling (Power4 behaviour).

A stream whose accesses include stores issues *exclusive* prefetches
(PREFETCH_EX), staging modifiable copies the way the MIPS R10000's
store prefetch does, so the later stores need no second transaction.

An access belongs to the least recently used stream whose window covers
it. Windows are at most ``max(runahead, 2) + 1`` lines and only ever
slide forward, so the prefetcher keeps an index from each covered line
to a bitmask of the stream slots covering it and finds the stream in one
dict lookup instead of scanning every stream. The index holds plain
ints, so keeping it allocates no objects. The scanning implementation
is kept as the reference in ``tests/prefetch/reference_stream.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class PrefetchCandidate(NamedTuple):
    """A prefetch the engine wants issued.

    Attributes
    ----------
    line:
        Target line number.
    exclusive:
        True to request a modifiable copy (store stream).
    """

    line: int
    exclusive: bool


#: Builds a candidate the way the NamedTuple's own ``__new__`` does,
#: without its Python-level call.
_new_candidate = tuple.__new__


class _Stream:
    __slots__ = ("direction", "expected", "frontier", "exclusive", "depth",
                 "stamp", "bit", "lo", "hi")

    def __init__(self, direction: int, start: int, exclusive: bool) -> None:
        self.direction = direction
        #: Next demand line the stream expects.
        self.expected = start
        #: Last line prefetched (demand side of it is covered).
        self.frontier = start - direction
        self.exclusive = exclusive
        #: Current runahead depth; ramps up as the stream proves itself
        #: (Power4 ramping), limiting overshoot on short runs.
        self.depth = 2
        #: LRU stamp, also the stream's key in ``_streams``.
        self.stamp = 0
        #: ``1 << slot``: the stream's bit in the cover index.
        self.bit = 0
        #: The window ``[lo, hi]`` the cover index holds; it starts empty
        #: (lo > hi) at the stream's start, so the first slide covers the
        #: whole window.
        self.hi = start - 1 if direction > 0 else start
        self.lo = self.hi + 1


class StreamPrefetcher:
    """Detects sequential line streams and issues runahead prefetches.

    Parameters
    ----------
    num_streams:
        Concurrent confirmed streams tracked (Table 3: 8). LRU replaced.
    runahead:
        Lines kept prefetched ahead of the demand point (Table 3: 5).
    """

    def __init__(self, num_streams: int = 8, runahead: int = 5) -> None:
        if num_streams <= 0:
            raise ValueError(f"num_streams must be positive, got {num_streams}")
        if runahead < 0:
            raise ValueError(f"runahead must be >= 0, got {runahead}")
        self.num_streams = num_streams
        self.runahead = runahead
        #: Confirmed streams keyed by LRU stamp. Every promotion takes a
        #: fresh, larger stamp, so insertion order is LRU order and the
        #: first key is the eviction victim.
        self._streams: Dict[int, _Stream] = {}
        #: Stream slots: a new stream takes its evicted victim's slot.
        self._slots: List[_Stream] = []
        #: Line → bitmask of the slots whose stream's window covers it.
        self._cover: Dict[int, int] = {}
        #: Miss line → was_store, for pairing into new streams.
        self._pending: Dict[int, bool] = {}
        self._next_stamp = 0
        self.issued = 0
        self.streams_confirmed = 0

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def observe_access(
        self, line: int, is_store: bool, was_miss: bool
    ) -> List[PrefetchCandidate]:
        """Feed one L2 access; returns the prefetches to issue now.

        *line* is a (non-negative) line number. The caller filters
        candidates that are already cached.
        """
        covering = self._cover.get(line)
        if covering is not None:
            if covering & (covering - 1):
                stream = self._least_recent(covering)
            else:
                stream = self._slots[covering.bit_length() - 1]
            streams = self._streams
            del streams[stream.stamp]
            stamp = stream.stamp = self._next_stamp
            self._next_stamp = stamp + 1
            streams[stamp] = stream
            stream.exclusive = stream.exclusive or is_store
            stream.expected = line + stream.direction
            depth = stream.depth + 1
            stream.depth = depth if depth < self.runahead else self.runahead
            return self._top_up(stream, line)
        if not was_miss:
            return []
        # A miss at line confirms a pending head at line - 1 (ascending)
        # or, failing that, at line + 1 (descending).
        pending = self._pending
        if line - 1 in pending:
            direction = 1
        elif line + 1 in pending:
            direction = -1
        else:
            pending[line] = is_store
            while len(pending) > 2 * self.num_streams:
                del pending[next(iter(pending))]  # oldest-first
            return []
        head_was_store = pending.pop(line - direction)
        stream = _Stream(direction, line + direction, is_store or head_was_store)
        self._install(stream)
        self.streams_confirmed += 1
        return self._top_up(stream, line)

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def _least_recent(self, covering: int) -> _Stream:
        """The least recently used of the streams in bitmask *covering*."""
        slots = self._slots
        best = None
        while covering:
            low = covering & -covering
            covering ^= low
            stream = slots[low.bit_length() - 1]
            if best is None or stream.stamp < best.stamp:
                best = stream
        return best

    def _install(self, stream: _Stream) -> None:
        streams = self._streams
        if len(streams) >= self.num_streams:
            victim = streams.pop(next(iter(streams)))  # LRU-first
            cover = self._cover
            bit = victim.bit
            for line in range(victim.lo, victim.hi + 1):
                covering = cover[line] ^ bit
                if covering:
                    cover[line] = covering
                else:
                    del cover[line]
            slot = bit.bit_length() - 1
            self._slots[slot] = stream
        else:
            # Only eviction frees a slot, and it is refilled at once, so
            # the slots in use are always 0 .. len(streams) - 1.
            slot = len(streams)
            self._slots.append(stream)
        stream.bit = 1 << slot
        stamp = stream.stamp = self._next_stamp
        self._next_stamp = stamp + 1
        streams[stamp] = stream

    def _top_up(self, stream: _Stream, demand_line: int) -> List[PrefetchCandidate]:
        """Prefetch enough lines to restore the (ramped) runahead distance,
        then slide the stream's window in the cover index.

        The window only moves forward: the expected line passes the
        demand line and the frontier never retreats. So lines leave the
        window behind the new one and join it past the old one.
        """
        lo = stream.lo
        hi = stream.hi
        frontier = stream.frontier
        if stream.direction > 0:
            first = frontier + 1 if frontier >= demand_line else demand_line + 1
            last = demand_line + stream.depth
            if first <= last:
                frontier = stream.frontier = last
            lines = range(first, last + 1)
            new_lo = stream.expected
            new_hi = frontier + 1
            gone = range(lo, (hi if hi < new_lo else new_lo - 1) + 1)
            joined = range(hi + 1 if hi >= new_lo else new_lo, new_hi + 1)
        else:
            first = frontier - 1 if frontier <= demand_line else demand_line - 1
            # Line 0 is the last line a descending stream can prefetch.
            last = demand_line - stream.depth
            if last < 0:
                last = 0
            if first >= last:
                frontier = stream.frontier = last
            lines = range(first, last - 1, -1)
            new_lo = frontier - 1
            new_hi = stream.expected
            gone = range(lo if lo > new_hi else new_hi + 1, hi + 1)
            joined = range(new_lo, (lo - 1 if lo <= new_hi else new_hi) + 1)
        stream.lo = new_lo
        stream.hi = new_hi
        cover = self._cover
        bit = stream.bit
        for line in gone:
            covering = cover[line] ^ bit
            if covering:
                cover[line] = covering
            else:
                del cover[line]
        for line in joined:
            cover[line] = cover.get(line, 0) | bit
        if not lines:
            return []
        self.issued += len(lines)
        exclusive = stream.exclusive
        return [_new_candidate(PrefetchCandidate, (line, exclusive))
                for line in lines]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Number of confirmed streams currently tracked."""
        return len(self._streams)

    def reset(self) -> None:
        """Forget all state and counters."""
        self._streams.clear()
        self._slots.clear()
        self._cover.clear()
        self._pending.clear()
        self.issued = 0
        self.streams_confirmed = 0
