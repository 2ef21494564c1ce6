"""The indexed stream prefetcher ≡ the scanning reference, step for step.

:class:`StreamPrefetcher` finds an access's stream through its line
cover index; :class:`ReferenceStreamPrefetcher` scans every stream in
LRU order. Over random access sequences both must return the same
candidates at every step and end with the same streams (in LRU order),
pending heads and counters. The sequences mix ascending and descending
walks, random jumps and lines near 0, with few and many streams so the
LRU stream eviction runs constantly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefetch.stream import PrefetchCandidate, StreamPrefetcher

from tests.prefetch.reference_stream import ReferenceStreamPrefetcher


def stream_state(pf):
    """Streams in LRU order, pending heads in age order, counters."""
    return (
        [(s.direction, s.expected, s.frontier, s.exclusive, s.depth)
         for s in pf._streams.values()],
        list(pf._pending.items()),
        pf.issued,
        pf.streams_confirmed,
    )


def assert_cover_exact(pf):
    """The cover index equals one rebuilt from the streams' windows, and
    each stream sits in the slot its bit names."""
    cover = {}
    for stream in pf._streams.values():
        assert pf._slots[stream.bit.bit_length() - 1] is stream
        if stream.direction > 0:
            lo, hi = stream.expected, stream.frontier + 1
        else:
            lo, hi = stream.frontier - 1, stream.expected
        for line in range(lo, hi + 1):
            cover[line] = cover.get(line, 0) | stream.bit
    assert pf._cover == cover
    assert len(pf._slots) == len(pf._streams)


@st.composite
def walks(draw):
    """Accesses as runs of ascending or descending steps from random
    starts (some near line 0), interleaved with isolated jumps."""
    accesses = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        start = draw(st.one_of(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=400),
        ))
        step = draw(st.sampled_from([1, -1, 1, -1, 2, 0]))
        length = draw(st.integers(min_value=1, max_value=12))
        for i in range(length):
            line = start + step * i
            if line < 0:
                break
            accesses.append((
                line,
                draw(st.booleans()),
                draw(st.sampled_from([True, True, False])),
            ))
    order = draw(st.sampled_from(["runs", "interleaved"]))
    if order == "interleaved":
        # Two walks advancing in lockstep share the stream table.
        half = len(accesses) // 2
        mixed = []
        for a, b in zip(accesses[:half], accesses[half:]):
            mixed += [a, b]
        accesses = mixed + accesses[2 * half:]
    return accesses


@settings(max_examples=300, deadline=None)
@given(
    accesses=walks(),
    num_streams=st.sampled_from([1, 2, 8]),
    runahead=st.sampled_from([0, 1, 5]),
)
def test_indexed_prefetcher_matches_reference(accesses, num_streams, runahead):
    fast = StreamPrefetcher(num_streams=num_streams, runahead=runahead)
    reference = ReferenceStreamPrefetcher(
        num_streams=num_streams, runahead=runahead
    )
    for line, is_store, was_miss in accesses:
        got = fast.observe_access(line, is_store, was_miss)
        want = reference.observe_access(line, is_store, was_miss)
        assert got == want
        assert all(type(c) is PrefetchCandidate for c in got)
    assert stream_state(fast) == stream_state(reference)
    assert_cover_exact(fast)


@settings(max_examples=100, deadline=None)
@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=24), st.booleans(),
                  st.booleans()),
        max_size=80,
    ),
    num_streams=st.sampled_from([1, 8]),
    runahead=st.sampled_from([0, 5]),
)
def test_dense_random_lines_match_reference(accesses, num_streams, runahead):
    # A small line range makes windows overlap, so one line is covered
    # by several streams and the LRU-first one must win.
    fast = StreamPrefetcher(num_streams=num_streams, runahead=runahead)
    reference = ReferenceStreamPrefetcher(
        num_streams=num_streams, runahead=runahead
    )
    for access in accesses:
        assert fast.observe_access(*access) == reference.observe_access(*access)
    assert stream_state(fast) == stream_state(reference)
    assert_cover_exact(fast)


def test_overlapping_windows_pick_the_lru_stream():
    # An ascending stream from 10-11 and a descending one from 16-15 both
    # cover lines 12-14: an access there goes to the least recently used
    # of the two, as the reference's scan finds it.
    fast = StreamPrefetcher(num_streams=8, runahead=5)
    reference = ReferenceStreamPrefetcher(num_streams=8, runahead=5)
    for access in [(10, False, True), (11, False, True),
                   (16, True, True), (15, True, True)]:
        assert fast.observe_access(*access) == reference.observe_access(*access)
    assert bin(fast._cover[13]).count("1") == 2
    for access in [(13, False, False), (12, False, False),
                   (14, False, True), (13, True, False)]:
        assert fast.observe_access(*access) == reference.observe_access(*access)
    assert stream_state(fast) == stream_state(reference)
    assert_cover_exact(fast)


def test_candidate_keeps_fields_and_equality():
    candidate = PrefetchCandidate(line=7, exclusive=True)
    assert candidate.line == 7 and candidate.exclusive is True
    assert candidate == PrefetchCandidate(7, True)
    assert candidate != PrefetchCandidate(7, False)


def test_reset_clears_the_cover_index():
    pf = StreamPrefetcher()
    pf.observe_access(100, False, True)
    pf.observe_access(101, False, True)
    assert pf._cover
    pf.reset()
    assert not pf._cover and pf.active_streams == 0
