"""The benchmark's four workloads, each one job a user runs.

Every job takes a :class:`Context` (seed, sizes, recorder and a fresh
scratch directory) and returns an :class:`Outcome`: one fingerprint per
cell or pipeline step, plus the simulated results the report needs.
A job that raises loses the fingerprints it had not produced yet, and
those units count as failed.

Why each workload is in the benchmark is recorded in BENCHMARK.json and
in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import mean
from typing import Callable, Dict, Optional, Tuple

from probes import Recorder, instrument_disk
from repro.harness.cache import DiskCache
from repro.harness.experiments import RunOptions, run_experiment
from repro.harness.runcache import RunCache
from repro.interconnect.topology import Topology
from repro.obs import SimTracer
from repro.obs.export import write_spans
from repro.system.config import SystemConfig
from repro.system.simulator import Simulator
from repro.telemetry import TelemetryRegistry
from repro.telemetry import export as telemetry_export
from repro.traces import profile_file, reader, sample_file
from repro.workloads.store import WorkloadStore, set_workload_store

#: Workload sizes in operations per processor. "full" is what the
#: benchmark measures; "tiny" is the smoke test's scale. The sampler's
#: error bounds need thousands of regions: at 4 x 25 000 records the
#: store-fraction bound broke on one seed of ten, at 4 x 62 500 it held
#: on all twelve seeds tried, so "tiny" keeps the smaller capture only
#: for its one seed.
SCALES: Dict[str, Dict[str, int]] = {
    "full": {"figs_ops": 2_500, "scale_ops": 300, "observed_ops": 8_000,
             "capture_ops": 62_500},
    "tiny": {"figs_ops": 300, "scale_ops": 40, "observed_ops": 500,
             "capture_ops": 25_000},
}

FIG_EXPERIMENTS = ("fig2", "fig7", "fig8", "fig10")
FIG_BENCHMARKS = ("tpc-w", "specjbb2000", "barnes", "specint2000rate")
FIG_REGIONS = (256, 512, 1024)
FIG_WARMUP = 0.4
SCALE_BENCHMARKS = ("tpc-w", "barnes")
SAMPLE_RATE = 4


@dataclass
class Context:
    seed: int
    sizes: Dict[str, int]
    recorder: Recorder
    workdir: Path


@dataclass
class Outcome:
    """What one job produced; ``fingerprints`` maps unit -> values."""

    fingerprints: Dict[str, Dict[str, int]] = field(default_factory=dict)
    runtime_reduction: Optional[float] = None
    broadcasts_avoided: Optional[float] = None
    sample_worst_err: Optional[float] = None
    trace_records: int = 0
    disk_hits: int = 0
    cells: int = 0
    spans: int = 0
    telemetry_samples: int = 0


def _topology(processors: int) -> Topology:
    """The scaling experiment's 16p and 64p machine shapes."""
    return Topology(cores_per_chip=2, chips_per_switch=2,
                    switches_per_board=2, boards=processors // 8)


def _config(processors: int, region: Optional[int]) -> SystemConfig:
    """Baseline (``region=None``) or CGCT with *region*-byte regions."""
    base = (SystemConfig.paper_baseline() if region is None
            else SystemConfig.paper_cgct(region))
    return replace(base, topology=_topology(processors))


def cell_name(result) -> str:
    config = result.config
    shape = (f"cgct{config.geometry.region_bytes}" if config.cgct_enabled
             else "baseline")
    return f"{result.workload}/{config.num_processors}p-{shape}"


def fingerprint(result) -> Dict[str, int]:
    """The simulated statistics a faster simulator must not change."""
    return {
        "cycles": result.cycles,
        "external": result.stats.total_external,
        "broadcasts": result.stats.total_broadcasts,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
    }


def _reduction_and_avoided(results, region: int):
    """Mean CGCT-vs-baseline run-time reduction and mean avoided share
    over the benchmarks that have both cells."""
    by_name = {cell_name(r): r for r in results}
    reductions, avoided = [], []
    for name, result in by_name.items():
        if not name.endswith(f"-cgct{region}"):
            continue
        avoided.append(result.fraction_avoided())
        base = by_name.get(name.replace(f"-cgct{region}", "-baseline"))
        if base is not None:
            reductions.append(result.runtime_reduction_over(base))
    return (mean(reductions) if reductions else None,
            mean(avoided) if avoided else None)


def _isolated_caches(workdir: Path, recorder: Recorder) -> DiskCache:
    """A fresh result store and workload store under *workdir*.

    ``cache_key`` folds in the code version, so a store shared between
    runs would turn a second run of the same code into pickle loads.
    An explicitly installed workload store also overrides
    ``$REPRO_WORKLOAD_CACHE``.
    """
    set_workload_store(WorkloadStore(workdir / "workloads"))
    disk = DiskCache(workdir / "results")
    instrument_disk(disk, recorder)
    return disk


class _SeededRunCache(RunCache):
    """RunCache whose traces come from the benchmark's seed (the
    experiments leave ``trace_seed`` at its default)."""

    def __init__(self, trace_seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self._trace_seed = trace_seed

    def run(self, benchmark, config, ops_per_processor, seed=0,
            warmup_fraction=0.4, trace_seed=None):
        return super().run(
            benchmark, config, ops_per_processor, seed=seed,
            warmup_fraction=warmup_fraction,
            trace_seed=self._trace_seed if trace_seed is None else trace_seed,
        )


# ----------------------------------------------------------------------
def paper_figs_4p(ctx: Context, out: Outcome) -> None:
    """Figures 2, 7, 8 and 10 through a fresh disk-backed RunCache."""
    disk = _isolated_caches(ctx.workdir, ctx.recorder)
    cache = _SeededRunCache(ctx.seed, disk=disk)
    options = RunOptions(
        ops_per_processor=ctx.sizes["figs_ops"], seeds=1,
        warmup_fraction=FIG_WARMUP, region_sizes=FIG_REGIONS,
        benchmarks=FIG_BENCHMARKS,
    )
    try:
        for experiment in FIG_EXPERIMENTS:
            if not run_experiment(experiment, options, cache).render():
                raise AssertionError(f"{experiment} rendered nothing")
    finally:
        out.disk_hits = disk.hits
        out.cells = len(cache)


def scale_64p(ctx: Context, out: Outcome) -> None:
    """tpc-w and barnes on the 64p baseline and CGCT, cell by cell."""
    _isolated_caches(ctx.workdir, ctx.recorder)
    for benchmark in SCALE_BENCHMARKS:
        workload = ctx.recorder.build_benchmark(
            benchmark, num_processors=64, seed=ctx.seed,
            ops_per_processor=ctx.sizes["scale_ops"])
        for region in (None, 512):
            Simulator(_config(64, region), seed=ctx.seed).run(workload)


def observed_16p(ctx: Context, out: Outcome) -> None:
    """tpc-w on 16p CGCT with telemetry and a sampled span tracer,
    both exported at the end."""
    _isolated_caches(ctx.workdir, ctx.recorder)
    workload = ctx.recorder.build_benchmark(
        "tpc-w", num_processors=16, seed=ctx.seed,
        ops_per_processor=ctx.sizes["observed_ops"])
    registry = TelemetryRegistry()
    tracer = SimTracer(sample=16)
    result = Simulator(_config(16, 512), seed=ctx.seed, telemetry=registry,
                       tracer=tracer).run(workload)
    with ctx.recorder.span("obs.export"):
        telemetry_export.save_json(registry, ctx.workdir / "telemetry.json")
        telemetry_export.save_csv(registry, ctx.workdir / "telemetry.csv")
        telemetry_export.save_prometheus(
            registry, ctx.workdir / "telemetry.prom")
        out.spans = write_spans(tracer.to_spans(),
                                ctx.workdir / "spans.jsonl")
    out.telemetry_samples = sum(
        len(metric.buckets) for metric in registry.metrics()
        if metric.kind == "series")
    # Folded into the cell's fingerprint by run_job().
    out.fingerprints[cell_name(result)] = {
        "spans": out.spans, "telemetry_samples": out.telemetry_samples}


def traces_1m(ctx: Context, out: Outcome) -> None:
    """The CI traces-smoke recipe in-process: capture tpc-w as packed
    binary, convert it to gzipped CSV, profile it, then sample it at
    rate 4 with the error bounds enforced."""
    full = ctx.workdir / "full.bin"
    with ctx.recorder.span("traces.capture"):
        workload = ctx.recorder.build_benchmark(
            "tpc-w", num_processors=4, seed=ctx.seed,
            ops_per_processor=ctx.sizes["capture_ops"])
        records = reader.save_workload(workload, full, "binary")
    out.trace_records = records
    out.fingerprints["capture"] = {"records": records}
    with ctx.recorder.span("traces.convert"):
        info = reader.detect_format(full)
        converted = reader.write_csv(
            ctx.workdir / "full.csv.gz", reader.read_events(full),
            info.num_processors)
    out.fingerprints["convert"] = {"records": converted}
    with ctx.recorder.span("traces.profile"):
        profile = profile_file(full)
    out.fingerprints["profile"] = {
        "accesses": profile.accesses,
        "oracle_unnecessary": profile.oracle.unnecessary,
        "oracle_total": profile.oracle.total,
        "regions": profile.regions_touched,
    }
    with ctx.recorder.span("traces.sample"):
        report = sample_file(full, ctx.workdir / "sampled.bin",
                             rate=SAMPLE_RATE)
    within = sum(1 for m in report["metrics"].values() if m["within"])
    out.fingerprints["sample"] = {
        "accesses": report["accesses"]["sampled"],
        "regions": report["regions"]["sampled"],
        "within": within,
        "outside": len(report["metrics"]) - within,
    }
    out.sample_worst_err = max(
        m["rel_error"] for m in report["metrics"].values()
        if m["kind"] == "relative")
    if not report["within_bounds"]:
        raise AssertionError(f"sample outside its error bounds: "
                             f"{report['metrics']}")


def run_job(workload: "Workload", ctx: Context, out: Outcome) -> Optional[str]:
    """Run one repetition of *workload*; the error text if it raised.

    Simulated cells are fingerprinted from every result the simulator
    returned, also when the job raised later on. A cell that ran zero
    cycles gets no fingerprint, so it counts as failed.
    """
    error = None
    try:
        workload.job(ctx, out)
    except Exception as exc:  # a failing job is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    for result in ctx.recorder.results:
        name = cell_name(result)
        if result.cycles > 0:
            out.fingerprints[name] = {**fingerprint(result),
                                      **out.fingerprints.get(name, {})}
    out.runtime_reduction, out.broadcasts_avoided = \
        _reduction_and_avoided(ctx.recorder.results, 512)
    return error


@dataclass(frozen=True)
class Workload:
    name: str
    job: Callable[[Context, Outcome], None]
    #: Every cell or pipeline step a repetition must fingerprint.
    units: Tuple[str, ...]
    simulates: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-figs-4p", paper_figs_4p, tuple(
        f"{b}/4p-{shape}" for b in FIG_BENCHMARKS
        for shape in ["baseline"] + [f"cgct{r}" for r in FIG_REGIONS])),
    Workload("scale-64p", scale_64p, tuple(
        f"{b}/64p-{shape}" for b in SCALE_BENCHMARKS
        for shape in ("baseline", "cgct512"))),
    Workload("observed-16p", observed_16p, ("tpc-w/16p-cgct512",)),
    Workload("traces-1m", traces_1m,
             ("capture", "convert", "profile", "sample"), simulates=False),
)}
