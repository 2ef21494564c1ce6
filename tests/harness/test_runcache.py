"""Run memoisation shared across experiments."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.harness.runcache import RunCache, run_key
from repro.system.config import SystemConfig


def config_key(config):
    return run_key(config, "barnes", 400)


def test_config_key_distinguishes_what_matters():
    base = SystemConfig.paper_baseline()
    assert config_key(base) != config_key(SystemConfig.paper_cgct(512))
    assert config_key(SystemConfig.paper_cgct(256)) != config_key(
        SystemConfig.paper_cgct(512))
    assert config_key(SystemConfig.paper_cgct(512, rca_sets=4096)) != config_key(
        SystemConfig.paper_cgct(512))
    assert config_key(base) == config_key(SystemConfig.paper_baseline())


def test_trace_cache_reuses_objects():
    cache = RunCache()
    a = cache.trace("barnes", 500)
    b = cache.trace("barnes", 500)
    assert a is b
    assert cache.trace("barnes", 600) is not a


def test_run_cache_reuses_results():
    cache = RunCache()
    config = SystemConfig.paper_baseline()
    a = cache.run("barnes", config, ops_per_processor=400, warmup_fraction=0.0)
    b = cache.run("barnes", config, ops_per_processor=400, warmup_fraction=0.0)
    assert a is b
    assert len(cache) == 1


def test_run_cache_distinguishes_seeds_and_configs():
    cache = RunCache()
    base = SystemConfig.paper_baseline()
    cache.run("barnes", base, 400, seed=0, warmup_fraction=0.0)
    cache.run("barnes", base, 400, seed=1, warmup_fraction=0.0)
    cache.run("barnes", SystemConfig.paper_cgct(512), 400, seed=0,
              warmup_fraction=0.0)
    assert len(cache) == 3


def test_clear():
    cache = RunCache()
    cache.run("barnes", SystemConfig.paper_baseline(), 400,
              warmup_fraction=0.0)
    cache.clear()
    assert len(cache) == 0


def test_empty_cache_is_not_discarded_by_run_experiment():
    """Regression: an empty RunCache is falsy (len == 0); run_experiment
    must not replace it with a throwaway via ``cache or RunCache()``."""
    from repro.harness.experiments import RunOptions, run_experiment

    cache = RunCache()
    options = RunOptions(ops_per_processor=1500, seeds=1,
                         benchmarks=("barnes",))
    run_experiment("fig2", options, cache)
    assert len(cache) > 0


def test_sweep_over_a_field_the_old_key_ignored():
    """Regression: the hand-written key left out ``prefetch_streams``, so
    both grid points replayed the first point's result."""
    from repro.harness.sweep import ConfigSweep

    sweep = ConfigSweep(SystemConfig.paper_cgct(512),
                        {"prefetch_streams": [1, 8]})
    cache = RunCache()
    records = sweep.run(["barnes"], ops_per_processor=3_000, cache=cache)
    assert len(cache) == 3  # baseline + two distinct grid points
    assert records[0]["cycles"] != records[1]["cycles"]


def _leaf_paths(obj, prefix=""):
    """Dotted paths of every non-dataclass field, recursively."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + f.name
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, path + ".")
        else:
            yield path, value


def _mutations(value):
    """Candidate replacements for one leaf, most likely valid first."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value * 2 if value else 1, value + 1]
    if isinstance(value, float):
        return [value / 2 if value else 0.5, value + 1.0]
    if isinstance(value, str):
        return [value + "-changed"]
    if isinstance(value, dict):
        first = next(iter(value))
        return [{**value, first: value[first] + 1}]
    raise TypeError(f"no mutation for {value!r}")


LEAVES = list(_leaf_paths(SystemConfig.paper_cgct(512)))


def test_the_walk_reaches_every_nested_dataclass():
    paths = {path for path, _ in LEAVES}
    assert {"prefetch_streams", "geometry.region_bytes", "topology.boards",
            "latency.transfer_cycles", "timing.perturbation_cycles",
            "core.rob_entries"} <= paths


@pytest.mark.parametrize("path,value", LEAVES, ids=[p for p, _ in LEAVES])
def test_every_leaf_field_changes_every_key(path, value):
    from repro.harness.cache import cache_key
    from repro.harness.parallel import ExperimentTask
    from repro.harness.sweep import _replace_path

    # Some fields only have valid alternatives on one base (RegionScout
    # cannot be enabled next to CGCT), so a mutation may use either.
    for base in (SystemConfig.paper_cgct(512), SystemConfig.paper_baseline()):
        for candidate in _mutations(value):
            try:
                mutated = _replace_path(base, path, candidate)
            except (ConfigurationError, ValueError):
                continue
            assert run_key(mutated, "barnes", 400) != run_key(
                base, "barnes", 400)
            assert cache_key(mutated, "barnes", 400, version="v") != \
                cache_key(base, "barnes", 400, version="v")
            assert hash(ExperimentTask("barnes", mutated, 400)) != hash(
                ExperimentTask("barnes", base, 400))
            return
    pytest.fail(f"no valid mutation of {path}")
