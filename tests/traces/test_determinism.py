"""End-to-end determinism of trace-driven workloads.

``trace:<path>`` names must behave exactly like generated benchmark
names everywhere in the harness: bit-identical sweep records whether
cells run serially, across worker processes, or with the materialized
workload cache active, and result-cache keys that track the *content*
of the trace file, not just its path.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.harness.cache import cache_key
from repro.harness.runcache import RunCache
from repro.harness.sweep import ConfigSweep
from repro.system.config import SystemConfig
from repro.system.simulator import run_workload
from repro.traces.reader import (
    load_workload,
    save_workload,
    trace_file_digest,
)
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.store import WorkloadStore

FIXTURES = Path(__file__).parent / "fixtures"
MIDSIZE = FIXTURES / "midsize.bin.gz"


def _sweep():
    return ConfigSweep(
        base=SystemConfig.paper_cgct(512),
        axes={"geometry.region_bytes": [256, 512]},
    )


def test_sweep_records_identical_serial_vs_parallel():
    name = f"trace:{MIDSIZE}"
    serial = _sweep().run(
        [name], ops_per_processor=2_000, warmup_fraction=0.0,
        workers=0, cache=RunCache())
    parallel = _sweep().run(
        [name], ops_per_processor=2_000, warmup_fraction=0.0,
        workers=2, cache=RunCache())
    assert serial == parallel
    assert len(serial) == 2
    assert all(record["workload"] == name for record in serial)


def test_sweep_records_identical_with_workload_cache(tmp_path):
    name = f"trace:{MIDSIZE}"
    plain = _sweep().run(
        [name], ops_per_processor=2_000, warmup_fraction=0.0,
        cache=RunCache())
    cached = _sweep().run(
        [name], ops_per_processor=2_000, warmup_fraction=0.0,
        cache=RunCache(),
        workload_cache=WorkloadStore(tmp_path / "workloads"))
    assert plain == cached


def test_repeated_simulation_of_a_loaded_trace_is_bit_identical():
    config = SystemConfig.paper_cgct(512)
    workload = build_benchmark(f"trace:{MIDSIZE}", num_processors=4,
                               ops_per_processor=2_000)
    a = run_workload(config, workload, seed=0)
    b = run_workload(config, workload, seed=0)
    assert a.cycles == b.cycles
    assert a.stats == b.stats
    assert a.fraction_avoided() == b.fraction_avoided()


def test_cache_key_tracks_trace_file_content(tmp_path):
    """Editing the trace file must invalidate cached results even
    though the workload *name* (the path) is unchanged."""
    config = SystemConfig.paper_baseline()
    path = tmp_path / "t.bin"
    workload = load_workload(MIDSIZE, ops_per_processor=100)
    save_workload(workload, path, "binary")
    name = f"trace:{path}"

    key_one = cache_key(config, name, 100, version="pinned")
    key_again = cache_key(config, name, 100, version="pinned")
    assert key_one == key_again

    # Same path, different content -> different key.
    save_workload(workload.scaled(50), path, "binary")
    key_edited = cache_key(config, name, 100, version="pinned")
    assert key_edited != key_one

    # Non-trace names are untouched by the digest fold-in.
    assert cache_key(config, "barnes", 100, version="pinned") == \
        cache_key(config, "barnes", 100, version="pinned")


@pytest.mark.parametrize("name,format", [
    ("t.csv.gz", "csv"), ("t.bin.gz", "binary")])
def test_gzip_sinks_are_byte_identical_across_writes(
        tmp_path, monkeypatch, name, format):
    """Rewriting the same content later must not change the file: the
    gzip header carries no wall-clock time, so the digest (and every
    cache key built on it) stays put."""
    workload = load_workload(MIDSIZE, ops_per_processor=100)
    path = tmp_path / name
    save_workload(workload, path, format)
    first = path.read_bytes()
    digest = trace_file_digest(path)
    later = time.time() + 3600
    monkeypatch.setattr(time, "time", lambda: later)
    save_workload(workload, path, format)
    assert path.read_bytes() == first
    assert trace_file_digest(path) == digest


def test_trace_names_pickle_to_worker_processes():
    """The parallel path ships only the name; workers must be able to
    rebuild the workload from it (absolute path, content on disk)."""
    import pickle

    from repro.harness.parallel import ExperimentTask

    task = ExperimentTask(
        config=SystemConfig.paper_baseline(),
        benchmark=f"trace:{MIDSIZE}",
        ops_per_processor=1_000,
        seed=0,
        warmup_fraction=0.0,
    )
    clone = pickle.loads(pickle.dumps(task))
    workload = build_benchmark(
        clone.benchmark,
        num_processors=clone.config.num_processors,
        ops_per_processor=clone.ops_per_processor,
    )
    assert workload.num_processors == 4
    assert len(workload.per_processor[0]) == 1_000
