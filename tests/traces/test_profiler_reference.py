"""The vectorised profiler equals the record-at-a-time reference.

:mod:`reference_profiler` keeps the plain per-record algorithm (Fenwick
tree, golden-model step, bitmask footprints). Random streams drive both
through every op, processor ids past 64, address spaces small enough
for lines and regions to collide, one-line regions, the SHARDS
correction and chunk sizes from one record up to the profiler's block
size; the fixture also runs as one chunk split into several blocks.
Every ``to_dict()`` field must agree exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.traces import profiler
from repro.traces.profiler import profile_events, profile_file
from repro.traces.reader import EventChunk

from tests.traces.reference_profiler import (
    reference_profile,
    reference_profile_file,
)

MIDSIZE = Path(__file__).parent / "fixtures" / "midsize.bin.gz"


@st.composite
def streams(draw):
    line_bytes = draw(st.sampled_from([1, 16, 64]))
    region_bytes = line_bytes << draw(st.sampled_from([0, 2, 3]))
    top_proc = draw(st.sampled_from([1, 3, 70, 65_535]))
    base = draw(st.sampled_from([0, (1 << 64) - (1 << 14)]))
    span = 8 * region_bytes
    records = draw(st.lists(
        st.tuples(
            st.integers(0, top_proc),
            st.integers(0, 5),
            st.integers(0, span - 1),
        ),
        max_size=150,
    ))
    return line_bytes, region_bytes, base, records


def chunked(records, base, size):
    for start in range(0, len(records), size):
        procs, ops, offsets = zip(*records[start:start + size])
        yield EventChunk(
            procs=np.array(procs, dtype=np.int64),
            ops=np.array(ops, dtype=np.uint8),
            addresses=np.array(offsets, dtype=np.uint64) + np.uint64(base),
            gaps=np.zeros(len(procs), dtype=np.uint32),
        )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams(),
       distance_scale=st.sampled_from([1, 4]),
       chunk_records=st.sampled_from([1, 7, 65_536]))
def test_profile_equals_reference(stream, distance_scale, chunk_records):
    line_bytes, region_bytes, base, records = stream
    geometry = dict(line_bytes=line_bytes, region_bytes=region_bytes,
                    distance_scale=distance_scale)
    got = profile_events(chunked(records, base, chunk_records), **geometry)
    want = reference_profile(chunked(records, base, 65_536), **geometry)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("distance_scale", [1, 4])
@pytest.mark.parametrize("chunk_records,block", [
    (997, profiler._BLOCK),
    (1 << 20, 4096),   # one chunk, split into blocks by feed()
])
def test_midsize_fixture_equals_reference(
        monkeypatch, distance_scale, chunk_records, block):
    monkeypatch.setattr(profiler, "_BLOCK", block)
    got = profile_file(MIDSIZE, chunk_records=chunk_records,
                       distance_scale=distance_scale)
    want = reference_profile_file(MIDSIZE, distance_scale=distance_scale)
    assert got.to_dict() == want.to_dict()
