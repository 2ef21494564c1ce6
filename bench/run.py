#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 bench/run.py --workload scale-64p --seed 0 --seconds 25 --trace 0

One process, no workers and no threads. The workload's job runs as a
closed loop: one caller repeats it, each repetition with fresh result
and workload stores, until ``--seconds`` have passed (at least three
times). Every figure is the median over the repetitions.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics from the
traced ones and the tracing overhead between the two, and requires the
traced fingerprints to equal the untraced ones.

Either way every cell (or pipeline step) is checked against the
committed fingerprints in ``expected.json`` for the default seed, and
against the run's first repetition for any other seed. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn in the same process and
prefixes each metric with its workload's name (``peak_rss_mb`` is then
the process's peak so far).

``--update-expected`` rewrites ``expected.json`` for the default seed at
the chosen ``--scale``; use it only when a change to the model is meant
to move the simulated statistics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Declares the workloads and, with their units, the metrics printed:
#: ``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``.
DECLARED = ROOT / "BENCHMARK.json"

#: Seed the committed fingerprints are for. Seed 1 is held out: a claim
#: made while tuning on seed 0 must also hold on it.
DEFAULT_SEED = 0
MIN_REPETITIONS = 3


@dataclass
class Repetition:
    traced: bool
    job_s: float
    recorder: object
    outcome: object
    error: Optional[str]


def repeat_once(workload, seed: int, sizes: Dict[str, int], traced: bool,
                work_root: Path) -> Repetition:
    """Run the workload's job once with fresh stores under *work_root*."""
    from jobs import Context, Outcome, run_job
    from probes import Recorder, installed

    recorder = Recorder(layers=traced)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    outcome = Outcome()
    gc.collect()
    started = time.perf_counter()
    try:
        with installed(recorder):
            error = run_job(workload, Context(seed, sizes, recorder, workdir),
                            outcome)
    finally:
        job_s = time.perf_counter() - started
        shutil.rmtree(workdir, ignore_errors=True)
    return Repetition(traced, job_s, recorder, outcome, error)


def measure(workload, seed: int, sizes: Dict[str, int], seconds: float,
            trace: bool, work_root: Path) -> List[Repetition]:
    """Repeat the job until the next repetition would pass *seconds*.

    With *trace*, repetitions come in untraced/traced pairs and one pair
    is enough: per-layer metrics carry no bound.
    """
    plan = (False, True) if trace else (False,)
    minimum = len(plan) if trace else MIN_REPETITIONS
    done: List[Repetition] = []
    started = time.perf_counter()
    while True:
        for traced in plan:
            done.append(repeat_once(workload, seed, sizes, traced, work_root))
        elapsed = time.perf_counter() - started
        step = sum(r.job_s for r in done[-len(plan):])
        if len(done) >= minimum and elapsed + step > seconds:
            return done


# ----------------------------------------------------------------------
def repetition_metrics(rep: Repetition, workload, import_s: float) -> Dict:
    """Every metric of one repetition (end to end and per layer)."""
    seconds, calls = rep.recorder.seconds, rep.recorder.calls
    results, out = rep.recorder.results, rep.outcome
    if workload.simulates:
        setup = seconds["workloads.build"] + seconds["system.construct"]
        run_s = seconds["simulator.run"]
        throughput = rep.recorder.records_replayed / run_s if run_s else 0.0
    else:
        setup = seconds["traces.capture"]
        pipeline = (seconds["traces.convert"] + seconds["traces.profile"]
                    + seconds["traces.sample"])
        throughput = 3 * out.trace_records / pipeline if pipeline else 0.0
    l1 = sum(r.l1_hits for r in results)
    l2 = sum(r.l2_hits for r in results)
    l2_misses = sum(r.l2_misses for r in results)
    external = sum(r.stats.total_external for r in results)
    avoided = sum(r.stats.total_avoided for r in results)
    metrics = {
        "job_s": rep.job_s,
        "setup_s": import_s + setup,
        "accesses_per_s": throughput,
        "workloads.build_s": seconds["workloads.build"],
        "workloads.records": rep.recorder.records_built,
        "system.construct_s": seconds["system.construct"],
        "simulator.run_s": seconds["simulator.run"],
        "simulator.self_s": (seconds["simulator.run"]
                             - seconds["machine.inside"]),
        "machine.access_calls": calls["machine.access"],
        "machine.miss_calls": calls["machine.miss"],
        "machine.miss_s": seconds["machine.miss"],
        "machine.miss_us_per_external": (
            1e6 * rep.recorder.miss_seconds_measured / external
            if external else 0.0),
        "cache.l1_hits": l1,
        "cache.l2_hits": l2,
        "cache.l2_misses": l2_misses,
        "cache.l1_hit_frac": l1 / (l1 + l2 + l2_misses) if l1 else 0.0,
        "rca.external_requests": external,
        "rca.broadcasts": sum(r.stats.total_broadcasts for r in results),
        "rca.directs": sum(r.stats.total_directs for r in results),
        "rca.no_requests": sum(r.stats.total_no_requests for r in results),
        "rca.avoided_frac": avoided / external if external else 0.0,
        "rca.allocations": sum(r.rca_allocations for r in results),
        "rca.self_invalidations": sum(
            r.rca_self_invalidations for r in results),
        "interconnect.bus_queue_cycles": sum(
            r.bus_queue_cycles for r in results),
        "interconnect.broadcasts_per_window": (
            sum(r.traffic_average_per_window for r in results)
            / len(results) if results else 0.0),
        "harness.key_s": seconds["harness.key"],
        "harness.lookup_s": seconds["harness.lookup"],
        "harness.persist_s": seconds["harness.persist"],
        "harness.cells": out.cells,
        "harness.disk_hits": out.disk_hits,
        "obs.export_s": seconds["obs.export"],
        "obs.spans": out.spans,
        "obs.telemetry_samples": out.telemetry_samples,
        "traces.convert_s": seconds["traces.convert"],
        "traces.profile_s": seconds["traces.profile"],
        "traces.sample_s": seconds["traces.sample"],
        "traces.records": out.trace_records,
        "sim.runtime_reduction": out.runtime_reduction or 0.0,
        "sim.broadcasts_avoided": out.broadcasts_avoided or 0.0,
        "traces.sample_worst_err": out.sample_worst_err or 0.0,
    }
    return metrics


def medians(per_rep: List[Dict]) -> Dict[str, float]:
    """Each metric's median over the repetitions."""
    return {name: median(m[name] for m in per_rep) for name in per_rep[0]}


def check(reps: List[Repetition], units: Sequence[str],
          reference: Optional[Dict]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) over every unit of every repetition.

    A unit fails when its job raised before fingerprinting it, when its
    fingerprint differs from *reference* (the committed fingerprints, or
    the first repetition's), or when a disk-cache hit shows the run was
    not isolated.
    """
    if reference is None:
        reference = reps[0].outcome.fingerprints
    attempted = failed = 0
    messages = []
    for index, rep in enumerate(reps):
        kind = "traced" if rep.traced else "untraced"
        label = f"repetition {index} ({kind})"
        if rep.error:
            messages.append(f"{label}: {rep.error}")
        if rep.outcome.disk_hits:
            messages.append(f"{label}: {rep.outcome.disk_hits} disk-cache "
                            "hits; the result store was not fresh")
        for unit in units:
            attempted += 1
            got = rep.outcome.fingerprints.get(unit)
            want = reference.get(unit)
            if got is None or got != want or rep.outcome.disk_hits:
                failed += 1
                messages.append(f"{label}: {unit}: got {got}, want {want}")
    return attempted, failed, messages


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark on one workload, or on "
                    "every workload in turn with --workload all.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="workload sizes (tiny: the smoke test's)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the default seed's fingerprints")
    return parser.parse_args(argv)


def run_workload(args, workload, table: List[Dict], expected: Dict,
                 import_s: float):
    """Measure and check one workload: (attempted, failed, metrics).

    *table* is the declared metrics to report (name and unit each).

    With ``--update-expected`` the first repetition's fingerprints
    replace the committed ones in *expected*.
    """
    from jobs import SCALES, set_workload_store

    reference = None
    if args.seed == DEFAULT_SEED and not args.update_expected:
        reference = expected.get(args.scale, {}).get(workload.name)
        if reference is None:
            raise SystemExit(f"error: no committed fingerprints for "
                             f"{workload.name} at scale {args.scale}")
    work_root = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        reps = measure(workload, args.seed, SCALES[args.scale], args.seconds,
                       bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        set_workload_store(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.update_expected:
        reference = reps[0].outcome.fingerprints
        if reps[0].error or sorted(reference) != sorted(workload.units):
            raise SystemExit(f"error: cannot record {workload.name}'s "
                             f"fingerprints: {reps[0].error}")
        expected.setdefault(args.scale, {})[workload.name] = reference

    attempted, failed, messages = check(reps, workload.units, reference)
    per_rep = [repetition_metrics(r, workload, import_s) for r in reps]
    untraced = medians([m for m, r in zip(per_rep, reps) if not r.traced])
    untraced["peak_rss_mb"] = peak_rss_mb
    if args.trace:
        chosen = medians([m for m, r in zip(per_rep, reps) if r.traced])
        chosen["tracing.overhead"] = chosen["job_s"] / untraced["job_s"] - 1
    else:
        chosen = untraced
    report(args, workload, reps, untraced, chosen, table, attempted, failed,
           messages)
    return attempted, failed, {
        m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
        for m in table}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import jobs
    import_s = time.perf_counter() - started

    if args.workload == "all":
        workloads = list(jobs.WORKLOADS.values())
    elif args.workload in jobs.WORKLOADS:
        workloads = [jobs.WORKLOADS[args.workload]]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.update_expected and args.seed != DEFAULT_SEED:
        print("error: fingerprints are committed for the default seed "
              f"({DEFAULT_SEED}) only", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table = json.loads(DECLARED.read_text())[
        "per_layer" if args.trace else "end_to_end"]

    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        done, lost, values = run_workload(args, workload, table, expected,
                                          import_s)
        attempted += done
        failed += lost
        prefix = f"{workload.name}/" if args.workload == "all" else ""
        metrics.update({prefix + name: value
                        for name, value in values.items()})
    if args.update_expected:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(args, workload, reps, untraced, chosen, table, attempted, failed,
           messages) -> None:
    """Human-readable summary: every metric by name and unit."""
    traced = sum(r.traced for r in reps)
    print(f"# {workload.name}: seed {args.seed}, scale {args.scale}, "
          f"{len(reps) - traced} untraced + {traced} traced repetitions "
          f"(medians), closed loop, one caller")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of "
          f"{attempted} units)")
    rate = "sim_ops_per_s" if workload.simulates else "records_per_s"
    print(f"{rate} = {untraced['accesses_per_s']:.1f} 1/s")
    for name, label in (
            ("sim.runtime_reduction", "sim_runtime_reduction (simulated)"),
            ("sim.broadcasts_avoided", "sim_broadcasts_avoided (simulated)"),
            ("traces.sample_worst_err", "sample_worst_err")):
        if untraced[name]:
            print(f"{label} = {untraced[name]:.4f} ratio")
    for metric in table:
        print(f"{metric['name']} = {chosen[metric['name']]:.6g} "
              f"{metric['unit']}")
    for message in messages[:20]:
        print(f"! {message}")


if __name__ == "__main__":
    sys.exit(main())
