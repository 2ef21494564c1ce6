"""Memoised simulation runs.

The figure experiments overlap heavily — Figures 7, 8 and 10 all need
the same baseline runs, and Figure 9 reuses Figure 8's 512 B runs. The
cache keys a run by everything that determines its outcome: the
workload, trace length, seed, warm-up, and every configuration field
(:func:`run_key`).

A :class:`RunCache` can additionally be backed by an on-disk
:class:`~repro.harness.cache.DiskCache`; in-memory misses then consult
the disk store (keyed by the full content address, including the code
version) before simulating, and freshly simulated results are persisted
— so repeated invocations only execute changed cells. The parallel
runner (:mod:`repro.harness.parallel`) preloads a ``RunCache`` through
:meth:`RunCache.preload` after fanning a grid out across processes.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

from repro.harness.cache import DiskCache, cache_key, run_payload
from repro.system.config import SystemConfig
from repro.system.simulator import RunResult, run_workload
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import MultiTrace


def run_key(
    config: SystemConfig,
    benchmark: str,
    ops_per_processor: int,
    seed: int = 0,
    trace_seed: int = 0,
    warmup_fraction: float = 0.4,
) -> str:
    """In-memory key of one run: :func:`cache_key`'s canonical payload,
    every configuration field included, without the code version (one
    process runs one version of the code)."""
    return json.dumps(
        run_payload(config, benchmark, ops_per_processor, seed=seed,
                    trace_seed=trace_seed, warmup_fraction=warmup_fraction),
        sort_keys=True, default=str,
    )


class RunCache:
    """Caches traces and completed runs, optionally backed by disk.

    ``telemetry_factory`` (a zero-argument callable returning a
    :class:`~repro.telemetry.registry.TelemetryRegistry`) instruments
    every simulation this cache actually *executes*; the populated
    registries accumulate in :attr:`telemetry_registries` for the caller
    to merge and export. Cache hits — in-memory or disk — skip the
    simulator and therefore capture no telemetry, so telemetry-gathering
    invocations should bypass the disk store (``--no-cache``).

    ``sanitizer_factory`` works the same way for the runtime coherence
    sanitizer (a zero-argument callable returning a
    :class:`~repro.validate.sanitizer.CoherenceSanitizer`): only
    simulations actually executed are audited — cache hits were audited
    (or not) when they were first computed. Results are bit-identical
    either way, so sanitized and unsanitized runs share cache entries.
    """

    def __init__(
        self,
        disk: Optional[DiskCache] = None,
        telemetry_factory=None,
        sanitizer_factory=None,
    ) -> None:
        self._traces: Dict[Tuple, MultiTrace] = {}
        self._runs: Dict[str, RunResult] = {}
        self.disk = disk
        self.telemetry_factory = telemetry_factory
        self.sanitizer_factory = sanitizer_factory
        self.telemetry_registries: list = []

    def trace(
        self, benchmark: str, ops_per_processor: int, seed: int = 0,
        num_processors: int = 4,
    ) -> MultiTrace:
        """Generate (or reuse) a benchmark trace."""
        key = (benchmark, ops_per_processor, seed, num_processors)
        if key not in self._traces:
            self._traces[key] = build_benchmark(
                benchmark, num_processors=num_processors,
                ops_per_processor=ops_per_processor, seed=seed,
            )
        return self._traces[key]

    def run(
        self,
        benchmark: str,
        config: SystemConfig,
        ops_per_processor: int,
        seed: int = 0,
        warmup_fraction: float = 0.4,
        trace_seed: Optional[int] = None,
    ) -> RunResult:
        """Run (or reuse) one simulation.

        ``seed`` perturbs the machine's timing; ``trace_seed`` (defaults
        to 0 so all seeds replay the *same* trace, as the paper's
        perturbation methodology does) selects the generated trace.
        """
        t_seed = 0 if trace_seed is None else trace_seed
        key = run_key(config, benchmark, ops_per_processor, seed=seed,
                      trace_seed=t_seed, warmup_fraction=warmup_fraction)
        if key not in self._runs:
            result = None
            disk_key = None
            if self.disk is not None:
                disk_key = cache_key(
                    config, benchmark, ops_per_processor, seed=seed,
                    trace_seed=t_seed, warmup_fraction=warmup_fraction,
                )
                result = self.disk.load(disk_key)
            if result is None:
                workload = self.trace(
                    benchmark, ops_per_processor, t_seed,
                    num_processors=config.num_processors,
                )
                telemetry = None
                if self.telemetry_factory is not None:
                    telemetry = self.telemetry_factory()
                sanitizer = None
                if self.sanitizer_factory is not None:
                    sanitizer = self.sanitizer_factory()
                result = run_workload(
                    config, workload, seed=seed,
                    warmup_fraction=warmup_fraction,
                    telemetry=telemetry,
                    sanitizer=sanitizer,
                )
                if telemetry is not None:
                    self.telemetry_registries.append(telemetry)
                if self.disk is not None:
                    self.disk.store(disk_key, result, metadata={
                        "benchmark": benchmark,
                        "ops": ops_per_processor,
                        "seed": seed,
                        "trace_seed": t_seed,
                        "warmup": warmup_fraction,
                        "processors": config.num_processors,
                    })
            self._runs[key] = result
        return self._runs[key]

    def preload(
        self,
        benchmark: str,
        config: SystemConfig,
        ops_per_processor: int,
        result: RunResult,
        seed: int = 0,
        warmup_fraction: float = 0.4,
        trace_seed: Optional[int] = None,
    ) -> None:
        """Insert an externally computed result (e.g. from a worker)."""
        t_seed = 0 if trace_seed is None else trace_seed
        key = run_key(config, benchmark, ops_per_processor, seed=seed,
                      trace_seed=t_seed, warmup_fraction=warmup_fraction)
        self._runs[key] = result

    def clear(self) -> None:
        """Drop every in-memory entry (the disk store is untouched)."""
        self._traces.clear()
        self._runs.clear()

    def __len__(self) -> int:
        return len(self._runs)
