"""Timers and layer wrappers the benchmark installs from the outside.

Nothing here edits the simulator: every probe wraps a public entry point
(a class method, an instance method or a module-level function) for the
duration of one job and restores it afterwards.

Two levels are installed:

* **cell timers** (every run): ``build_benchmark``,
  ``Simulator.__init__`` and ``Simulator.run`` are timed once per
  workload or cell, which costs a few microseconds on cells that take
  seconds. They give ``setup_s`` and
  the simulation throughput without tracing.
* **layer probes** (``--trace 1`` only): every access and miss entry
  point of each constructed ``Machine``, the harness's ``cache_key`` and
  the ``DiskCache`` lookups and writes. These run once per simulated
  access, so they slow the job; the traced run reports that overhead.

Spans are aggregated in memory (total seconds and call count per name)
rather than kept one by one: a traced 64-processor cell makes millions
of machine calls.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List

import repro.harness.runcache as runcache
from repro.system.simulator import Simulator
from repro.workloads.benchmarks import build_benchmark

#: Machine entry points the processors dispatch every operation through
#: (L1 hits on the run-ahead streak are handled inline and never call
#: these).
ACCESS_ENTRY_POINTS = ("load", "store", "ifetch", "dcbz", "dcbf", "dcbi")
#: Continuations the access entry points and the run-ahead streak call
#: once the L1 lookup has missed.
MISS_ENTRY_POINTS = ("load_miss", "store_miss", "ifetch_miss")


class Recorder:
    """Per-name totals of host seconds and call counts for one job."""

    def __init__(self, layers: bool) -> None:
        self.layers = layers
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.results: List = []
        self.records_replayed = 0
        self.records_built = 0
        # Machine time since each machine's last reset_stats(), so the
        # per-external-request cost covers the same span as RunResult.
        self.miss_seconds_measured = 0.0
        self.machines: Dict[int, tuple] = {}

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] += seconds
        self.calls[name] += calls

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = perf_counter()
        try:
            yield
        finally:
            self.add(name, perf_counter() - started)

    def timed(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped so every call adds to the span *name*."""
        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, perf_counter() - started)
        return wrapper

    def build_benchmark(self, *args, **kwargs):
        """``build_benchmark``, timed as ``workloads.build``."""
        started = perf_counter()
        workload = build_benchmark(*args, **kwargs)
        self.add("workloads.build", perf_counter() - started)
        self.records_built += len(workload)
        return workload


@contextlib.contextmanager
def patched(owner, name: str, replacement) -> Iterator[None]:
    """Set ``owner.name`` for the duration of the block, then restore it."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Cell timers always; layer probes when ``recorder.layers``."""
    original_init = Simulator.__init__
    original_run = Simulator.run

    def init(self, *args, **kwargs):
        started = perf_counter()
        original_init(self, *args, **kwargs)
        recorder.add("system.construct", perf_counter() - started)
        if recorder.layers:
            _instrument_machine(self.machine, recorder)

    def run(self, workload, *args, **kwargs):
        started = perf_counter()
        result = original_run(self, workload, *args, **kwargs)
        recorder.add("simulator.run", perf_counter() - started)
        recorder.records_replayed += len(workload)
        recorder.results.append(result)
        if recorder.layers:
            _fold_machine(self.machine, recorder)
        return result

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(Simulator, "__init__", init))
        stack.enter_context(patched(Simulator, "run", run))
        stack.enter_context(patched(
            runcache, "build_benchmark", recorder.build_benchmark))
        if recorder.layers:
            stack.enter_context(patched(
                runcache, "cache_key",
                recorder.timed("harness.key", runcache.cache_key)))
        yield


def instrument_disk(disk, recorder: Recorder) -> None:
    """Time one DiskCache instance's lookups and writes."""
    if recorder.layers:
        disk.load = recorder.timed("harness.lookup", disk.load)
        disk.store = recorder.timed("harness.persist", disk.store)


def _instrument_machine(machine, recorder: Recorder) -> None:
    """Count and time every access/miss entry point of one machine.

    ``load`` calls ``load_miss`` on an L1 miss, so time is taken at
    every level but only the outermost call adds to ``machine.inside``,
    the time the simulator spent in the machine.
    """
    depth = [0]
    totals = {"machine.access": [0, 0.0], "machine.miss": [0, 0.0],
              "machine.inside": [0, 0.0]}
    inside = totals["machine.inside"]
    # Miss seconds at the last reset_stats() (the warm-up boundary), so
    # the cost per external request covers the span RunResult counts.
    miss_at_reset = [0.0]

    def wrap(fn, cell):
        def wrapper(*args):
            depth[0] += 1
            started = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - started
                depth[0] -= 1
                cell[0] += 1
                cell[1] += elapsed
                if not depth[0]:
                    inside[1] += elapsed
        return wrapper

    for name in ACCESS_ENTRY_POINTS:
        setattr(machine, name,
                wrap(getattr(machine, name), totals["machine.access"]))
    for name in MISS_ENTRY_POINTS:
        setattr(machine, name,
                wrap(getattr(machine, name), totals["machine.miss"]))
    reset_stats = machine.reset_stats

    def reset() -> None:
        miss_at_reset[0] = totals["machine.miss"][1]
        reset_stats()

    machine.reset_stats = reset
    recorder.machines[id(machine)] = (totals, miss_at_reset)


def _fold_machine(machine, recorder: Recorder) -> None:
    """Move one machine's probe totals into the recorder."""
    totals, miss_at_reset = recorder.machines.pop(id(machine))
    for name, (calls, seconds) in totals.items():
        recorder.add(name, seconds, calls)
    recorder.miss_seconds_measured += (
        totals["machine.miss"][1] - miss_at_reset[0])
