"""The reference stream prefetcher: a linear scan over the streams.

:class:`repro.prefetch.stream.StreamPrefetcher` finds the stream an
access belongs to through an index of the lines each stream's window
covers. This module is the plain counterpart it is checked against: on
every access it scans the confirmed streams in LRU order and takes the
first whose window contains the line. Both must return the same
candidates and end in the same state (streams, pending heads and
counters) for any access sequence.

The prefetching model itself (Power4-style streams with R10000-style
exclusive prefetch) is described in :mod:`repro.prefetch.stream`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.prefetch.stream import PrefetchCandidate


class _Stream:
    __slots__ = ("direction", "expected", "frontier", "exclusive", "depth")

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


class ReferenceStreamPrefetcher:
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
        #: Confirmed streams, LRU-ordered by key (arbitrary unique int).
        #: Plain insertion-ordered dicts: promotion is pop + reinsert,
        #: eviction takes the first key (cheaper than OrderedDict on this
        #: per-L2-access path).
        self._streams: Dict[int, _Stream] = {}
        #: Miss line → was_store, for pairing into new streams.
        self._pending: Dict[int, bool] = {}
        self._next_key = 0
        self.issued = 0
        self.streams_confirmed = 0

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def observe_access(
        self, line: int, is_store: bool, was_miss: bool
    ) -> List[PrefetchCandidate]:
        """Feed one L2 access; returns the prefetches to issue now.

        The caller filters candidates that are already cached.
        """
        stream = self._matching_stream(line)
        if stream is not None:
            stream.exclusive = stream.exclusive or is_store
            stream.expected = line + stream.direction
            stream.depth = min(stream.depth + 1, self.runahead)
            return self._top_up(stream, line)
        if not was_miss:
            return []
        confirmed = self._try_confirm(line, is_store)
        if confirmed is not None:
            self.streams_confirmed += 1
            return self._top_up(confirmed, line)
        self._remember_miss(line, is_store)
        return []

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def _matching_stream(self, line: int) -> Optional[_Stream]:
        """Find a confirmed stream whose covered window contains *line*."""
        streams = self._streams
        for key, stream in streams.items():
            if stream.direction > 0:
                in_window = stream.expected <= line <= stream.frontier + 1
            else:
                in_window = stream.frontier - 1 <= line <= stream.expected
            if in_window:
                # MRU promotion; returning immediately makes mutating
                # the dict mid-iteration safe.
                streams[key] = streams.pop(key)
                return stream
        return None

    def _try_confirm(self, line: int, is_store: bool) -> Optional[_Stream]:
        """A miss at *line* confirms a pending head at line∓1, if present."""
        for direction in (+1, -1):
            head = line - direction
            if head in self._pending:
                head_was_store = self._pending.pop(head)
                stream = _Stream(direction, line + direction, is_store or head_was_store)
                self._install(stream)
                return stream
        return None

    def _install(self, stream: _Stream) -> None:
        while len(self._streams) >= self.num_streams:
            del self._streams[next(iter(self._streams))]  # LRU-first
        self._streams[self._next_key] = stream
        self._next_key += 1

    def _remember_miss(self, line: int, is_store: bool) -> None:
        self._pending[line] = is_store
        while len(self._pending) > 2 * self.num_streams:
            del self._pending[next(iter(self._pending))]  # oldest-first

    def _top_up(self, stream: _Stream, demand_line: int) -> List[PrefetchCandidate]:
        """Prefetch enough lines to restore the (ramped) runahead distance."""
        candidates: List[PrefetchCandidate] = []
        target_frontier = demand_line + stream.direction * stream.depth
        next_line = stream.frontier + stream.direction
        if stream.direction > 0:
            next_line = max(next_line, demand_line + 1)
        else:
            next_line = min(next_line, demand_line - 1)
        while (
            (stream.direction > 0 and next_line <= target_frontier)
            or (stream.direction < 0 and next_line >= target_frontier)
        ):
            if next_line < 0:
                break
            candidates.append(
                PrefetchCandidate(line=next_line, exclusive=stream.exclusive)
            )
            stream.frontier = next_line
            next_line += stream.direction
        self.issued += len(candidates)
        return candidates

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
        self._pending.clear()
        self.issued = 0
        self.streams_confirmed = 0
