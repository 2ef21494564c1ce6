"""Fuzzing campaign: fan differential iterations out, log, checkpoint.

One campaign *iteration* is one trace id: the fuzzer builds an
adversarial workload per machine size (4/8/16 processors), and each is
replayed on its baseline and CGCT configuration — all six canonical
machine points — with the sanitizer attached, telemetry alternating
on/off by trace-id parity and the snoop paths alternating between the
bitmask fast paths and the walk references every two trace ids, so all
four telemetry × snoop pairs meet the golden model. Iterations are
independent, so they fan out
through the :class:`~repro.harness.supervisor.SupervisedPool` exactly
like experiment cells: per-task timeouts, crash requeue, checkpointed
completion (``--checkpoint``), and one JSON-lines run-log record per
iteration.

Failures are collected rather than fatal: the campaign finishes its
budget, shrinks each distinct failure to a minimal reproducer (when
``shrink=True``) and writes the diagnostics bundle + corpus file pair
via :mod:`repro.conformance.shrink`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.differential import DifferentialOutcome, run_differential
from repro.conformance.fuzz import fuzz_trace
from repro.conformance.shrink import shrink_trace, write_reproducer

#: How many distinct failing (trace, config) cells are shrunk per
#: campaign — shrinking is serial and a broken protocol fails almost
#: every iteration; a handful of minimal reproducers tells the story.
MAX_SHRINKS = 5


def campaign_config_names() -> List[str]:
    """The default campaign matrix: every perf config up to 32p.

    Tracks ``PERF_CONFIGS`` so new benchmark points are fuzzed
    automatically. The 64p machines are excluded from the *default*
    matrix only for iteration cost — pass them via ``config_names`` to
    fuzz them explicitly.
    """
    from repro.harness.perfbench import PERF_CONFIGS

    return [name for name, processors, _ in PERF_CONFIGS if processors <= 32]


@dataclass(frozen=True)
class IterationTask:
    """One campaign iteration, shaped for the supervised pool."""

    index: int
    seed: int
    ops: int
    config_names: Tuple[str, ...]
    telemetry: bool
    snoop: str


@dataclass
class CampaignResult:
    """Aggregate of a whole campaign."""

    iterations: int = 0
    cells: int = 0
    failures: List[DifferentialOutcome] = field(default_factory=list)
    reproducers: List[Tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    stopped_by_budget: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def run_iteration(
    trace_id: int,
    seed: int,
    ops: int,
    config_names: Sequence[str],
    telemetry: bool,
    bundle_dir: Optional[str] = None,
    snoop: str = "bitmask",
) -> List[DifferentialOutcome]:
    """Run one fuzzed trace id across every requested machine point.

    ``snoop`` picks the machines' snoop paths (see
    :class:`~repro.system.machine.Machine`).
    """
    from repro.harness.perfbench import bench_config

    configs = [(name, bench_config(name)) for name in config_names]
    traces: Dict[int, object] = {}
    outcomes = []
    for name, config in configs:
        nprocs = config.num_processors
        if nprocs not in traces:
            traces[nprocs] = fuzz_trace(
                trace_id, nprocs, ops_per_processor=ops, seed=seed
            )
        outcomes.append(run_differential(
            traces[nprocs], config, config_name=name, seed=seed,
            telemetry=telemetry, bundle_dir=bundle_dir, snoop=snoop,
        ))
    return outcomes


def _execute_task(task: IterationTask) -> List[dict]:
    """Worker-side entry: plain dicts cross the process boundary."""
    outcomes = run_iteration(
        task.index, task.seed, task.ops, task.config_names, task.telemetry,
        snoop=task.snoop,
    )
    return [
        {
            "workload": o.workload,
            "config_name": o.config_name,
            "seed": o.seed,
            "telemetry": o.telemetry,
            "accesses": o.accesses,
            "events": o.events,
            "mismatches": o.mismatches,
            "bundle_path": o.bundle_path,
        }
        for o in outcomes
    ]


def _rehydrate(payload: dict) -> DifferentialOutcome:
    outcome = DifferentialOutcome(
        workload=payload["workload"],
        config_name=payload["config_name"],
        seed=payload["seed"],
        telemetry=payload["telemetry"],
    )
    outcome.accesses = payload["accesses"]
    outcome.events = payload["events"]
    outcome.mismatches = list(payload["mismatches"])
    outcome.bundle_path = payload["bundle_path"]
    return outcome


def run_campaign(
    iterations: int,
    seed: int = 0,
    ops: int = 48,
    workers: int = 0,
    time_budget: Optional[float] = None,
    shrink: bool = False,
    config_names: Optional[Sequence[str]] = None,
    bundle_dir: str = "diagnostics",
    runlog=None,
    checkpoint=None,
    task_timeout: Optional[float] = None,
    progress=None,
) -> CampaignResult:
    """Run *iterations* trace ids; see the module docstring.

    ``progress`` is an optional ``callable(str)`` for per-failure /
    per-batch reporting (the CLI passes ``print``).
    """
    started = time.monotonic()
    names = tuple(config_names or campaign_config_names())
    tasks = [
        IterationTask(
            index=i, seed=seed, ops=ops, config_names=names,
            telemetry=bool(i % 2),
            snoop="walk" if i % 4 >= 2 else "bitmask",
        )
        for i in range(iterations)
    ]
    completed: set = set()
    if checkpoint is not None:
        keys = [
            f"conformance:{seed}:{ops}:{','.join(names)}:{t.index}"
            for t in tasks
        ]
        completed = checkpoint.begin(keys)
    result = CampaignResult()

    def out_of_budget() -> bool:
        return (
            time_budget is not None
            and time.monotonic() - started >= time_budget
        )

    def absorb(task: IterationTask, payloads: List[dict]) -> None:
        result.iterations += 1
        outcomes = [_rehydrate(p) for p in payloads]
        result.cells += len(outcomes)
        failed = [o for o in outcomes if not o.ok]
        result.failures.extend(failed)
        if runlog is not None:
            runlog.record(
                "conformance", trace_id=task.index, seed=seed, ops=ops,
                telemetry=task.telemetry, snoop=task.snoop,
                status="fail" if failed else "ok",
                cells=len(outcomes),
                mismatches=[m for o in failed for m in o.mismatches],
                configs=[o.config_name for o in failed] or None,
            )
        if checkpoint is not None:
            checkpoint.mark_done(
                task.index,
                f"conformance:{seed}:{ops}:{','.join(names)}:{task.index}",
                cache="-",
            )
        if failed and progress is not None:
            for outcome in failed:
                progress(f"FAIL {outcome.describe()}")
                for mismatch in outcome.mismatches[:3]:
                    progress(f"     {mismatch}")

    def handle_failure(task: IterationTask, failure) -> Optional[float]:
        if failure.kind == "exception":
            # The harness itself broke on this iteration — surface it as
            # a failure rather than retrying a deterministic error.
            broken = DifferentialOutcome(
                workload=f"fuzz-{task.index}", config_name="*",
                seed=seed, telemetry=task.telemetry,
            )
            broken.mismatches.append(f"harness error: {failure.describe()}")
            result.iterations += 1
            result.failures.append(broken)
            if progress is not None:
                progress(f"FAIL {broken.describe()}")
            return None
        return 0.0  # crash/timeout: requeue (the breaker bounds this)

    pending = [t for t in tasks if t.index not in completed]
    result.iterations += len(tasks) - len(pending)

    if workers and workers > 1:
        from repro.harness.supervisor import SupervisedPool

        batch_size = max(4 * workers, 16)
        cursor = 0
        while cursor < len(pending):
            if out_of_budget():
                result.stopped_by_budget = True
                break
            batch = pending[cursor:cursor + batch_size]
            cursor += len(batch)
            pool = SupervisedPool(
                workers=workers, execute=_execute_task,
                task_timeout=task_timeout,
            )
            _, unfinished = pool.run(
                batch, on_outcome=absorb, on_failure=handle_failure,
            )
            for task in unfinished:
                # Breaker tripped: finish the stragglers serially.
                absorb(task, _execute_task(task))
    else:
        for task in pending:
            if out_of_budget():
                result.stopped_by_budget = True
                break
            absorb(task, _execute_task(task))

    if shrink and result.failures:
        _shrink_failures(result, seed, ops, names, bundle_dir, progress)

    if checkpoint is not None and not result.stopped_by_budget:
        checkpoint.finish()
    result.elapsed = time.monotonic() - started
    return result


def _shrink_failures(
    result: CampaignResult, seed: int, ops: int,
    names: Tuple[str, ...], bundle_dir: str, progress,
) -> None:
    """Minimize the first few distinct failing cells and write bundles."""
    from repro.harness.perfbench import bench_config

    seen: set = set()
    for outcome in result.failures:
        if len(result.reproducers) >= MAX_SHRINKS:
            break
        # workload names look like "fuzz-17"; one shrink per (trace, config)
        key = (outcome.workload, outcome.config_name)
        if key in seen:
            continue
        seen.add(key)
        try:
            trace_id = int(outcome.workload.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            continue
        config = bench_config(outcome.config_name)
        workload = fuzz_trace(
            trace_id, config.num_processors, ops_per_processor=ops, seed=seed
        )

        def failing(candidate) -> bool:
            return not run_differential(
                candidate, config, config_name=outcome.config_name,
                seed=seed, telemetry=False,
            ).ok

        minimized, evals = shrink_trace(workload, failing)
        final = run_differential(
            minimized, config, config_name=outcome.config_name, seed=seed,
        )
        bundle, corpus = write_reproducer(
            minimized, final, bundle_dir, shrink_evals=evals,
        )
        result.reproducers.append((str(bundle), str(corpus)))
        if progress is not None:
            size = sum(len(t) for t in minimized.per_processor)
            progress(
                f"[shrunk {outcome.workload}/{outcome.config_name} to "
                f"{size} accesses in {evals} evaluations → {corpus}]"
            )
