"""Heap scheduler ≡ linear scheduler, bit for bit.

The run loop keeps runnable processors in a heap keyed
``(next_time, proc_id)``. The original O(P) ``min()`` scan is kept as
``scheduler="linear"`` precisely so these tests can assert the two
orderings are indistinguishable — same cycles, same stats, same latency
distributions, same telemetry, same traced transactions — on hand-built
traces, on randomized traces, at 16 processors where tie-breaks
actually matter, and in every observation mode the simulator supports:
each mode is a hook on both loops, so each has a real reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.topology import Topology
from repro.obs.simtrace import SimTracer
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.validate.sanitizer import CoherenceSanitizer
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import loads, make_config, multitrace


def run_with(scheduler, config, workload, seed=0, telemetry=False,
             tracer=None, sanitizer=None, step_observer=None,
             snoop="bitmask", warmup_fraction=0.0):
    registry = TelemetryRegistry(interval=5_000) if telemetry else None
    simulator = Simulator(
        config, seed=seed, telemetry=registry, scheduler=scheduler,
        sanitizer=sanitizer, step_observer=step_observer, snoop=snoop,
        tracer=tracer,
    )
    result = simulator.run(workload, warmup_fraction=warmup_fraction)
    return simulator, result, registry


def fingerprint(simulator, result, registry=None):
    """Everything observable about one run, as a comparable dict."""
    print_ = {
        "per_processor_cycles": result.per_processor_cycles,
        "per_processor_stalls": result.per_processor_stalls,
        "per_processor_gaps": result.per_processor_gaps,
        "stats": result.stats,
        "broadcasts": result.broadcasts,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "l2_misses": result.l2_misses,
        "demand_latency_mean": result.demand_latency_mean,
        "bus_queue_cycles": result.bus_queue_cycles,
        "rca_allocations": result.rca_allocations,
        "rca_self_invalidations": result.rca_self_invalidations,
        "request_paths": dict(simulator.machine.request_paths),
        "path_latency": {
            key: (s.count, s.mean, s.minimum, s.maximum)
            for key, s in simulator.machine.path_latency.items()
        },
    }
    if registry is not None:
        print_["telemetry"] = registry.to_dict()
    return print_


def assert_equivalent(config, workload, seed=0, telemetry=False,
                      snoop="bitmask", warmup_fraction=0.0):
    """Run both schedulers and compare everything observable."""
    heap = run_with("heap", config, workload, seed, telemetry,
                    snoop=snoop, warmup_fraction=warmup_fraction)
    linear = run_with("linear", config, workload, seed, telemetry,
                      snoop=snoop, warmup_fraction=warmup_fraction)
    assert fingerprint(*heap) == fingerprint(*linear)


def contended_workload(procs=4, lines=24):
    """Every processor walks the same lines with staggered gaps, so grant
    order constantly interleaves and exercises the tie-break."""
    per_proc = []
    for proc in range(procs):
        addresses = [0x40000 + i * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=3 + proc))
    return multitrace(per_proc)


def private_workload(procs=4, lines=48):
    """Disjoint working sets: long runs of L1 hits in which one
    processor stays the earliest for many steps in a row."""
    per_proc = []
    for proc in range(procs):
        base = 0x100000 * (proc + 1)
        addresses = [base + (i % 8) * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=1))
    return multitrace(per_proc)


class TestSchedulerEquivalence:
    def test_contended_trace(self):
        assert_equivalent(make_config(cgct=True), contended_workload())

    def test_private_working_sets(self):
        assert_equivalent(make_config(cgct=True), private_workload())

    def test_baseline_machine(self):
        assert_equivalent(make_config(cgct=False), contended_workload())
        assert_equivalent(make_config(cgct=False), private_workload())

    def test_with_telemetry(self):
        # Both loops sample when the next issue crosses a boundary; the
        # registries must see the identical interleaving of samples and
        # steps.
        assert_equivalent(
            make_config(cgct=True), contended_workload(), telemetry=True
        )
        assert_equivalent(
            make_config(cgct=True), private_workload(), telemetry=True
        )

    def test_warmup_with_telemetry(self):
        # A warmup replays a partial target on every processor, then
        # restarts sampling at the warmup clock: both the partial run
        # and the restarted sampling boundary must match the reference.
        for workload in (contended_workload(), private_workload()):
            assert_equivalent(
                make_config(cgct=True), workload, telemetry=True,
                warmup_fraction=0.4,
            )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws in both
        # schedulers prove the event *order* (which drives RNG consumption
        # order) is the same, not just the totals.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, contended_workload(), seed=seed)
            assert_equivalent(config, private_workload(), seed=seed)

    def test_simultaneous_ready_times_break_by_proc_id(self):
        # All processors become ready at exactly the same cycle: the only
        # thing ordering them is the proc-id tie-break.
        per_proc = [[(TraceOp.LOAD, 0x8000, 10)] * 6 for _ in range(4)]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc))

    def test_snoop_walk_machine(self):
        assert_equivalent(
            make_config(cgct=True), private_workload(), snoop="walk"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([TraceOp.LOAD, TraceOp.STORE,
                                     TraceOp.IFETCH, TraceOp.DCBZ]),
                    st.integers(min_value=0, max_value=0x7FFF).map(
                        lambda a: a * 64
                    ),
                    st.integers(min_value=0, max_value=12),
                ),
                min_size=1,
                max_size=30,
            ),
            min_size=4,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=7),
        cgct=st.booleans(),
    )
    def test_randomized_traces(self, data, seed, cgct):
        config = make_config(cgct=cgct, perturbation=8)
        assert_equivalent(config, multitrace(data), seed=seed)


class TestSchedulerObservers:
    """Modes that hook individual steps must see the same order under
    both schedulers."""

    def test_tracer_mode(self):
        config = make_config(cgct=True)
        workload = private_workload()
        heap_tracer, linear_tracer = SimTracer(), SimTracer()
        heap = run_with("heap", config, workload, tracer=heap_tracer)
        linear = run_with("linear", config, workload, tracer=linear_tracer)
        assert fingerprint(*heap) == fingerprint(*linear)
        assert heap_tracer.accesses == linear_tracer.accesses
        assert heap_tracer.recorded == linear_tracer.recorded
        heap_records = [heap_tracer.transaction_record(t)
                        for t in heap_tracer.transactions]
        linear_records = [linear_tracer.transaction_record(t)
                          for t in linear_tracer.transactions]
        assert heap_records == linear_records

    def test_sanitizer_mode(self):
        # The audit cadence must not disturb results under either loop.
        config = make_config(cgct=True)
        workload = contended_workload()
        heap = run_with(
            "heap", config, workload,
            sanitizer=CoherenceSanitizer(mode="deep", bundle_dir=None))
        linear = run_with(
            "linear", config, workload,
            sanitizer=CoherenceSanitizer(mode="deep", bundle_dir=None))
        assert fingerprint(*heap) == fingerprint(*linear)

    def test_step_observer_sees_reference_pid_order(self):
        config = make_config(cgct=True)
        workload = private_workload()
        heap_pids, linear_pids = [], []
        heap = run_with("heap", config, workload,
                        step_observer=heap_pids.append)
        linear = run_with("linear", config, workload,
                          step_observer=linear_pids.append)
        assert heap_pids == linear_pids
        assert len(heap_pids) == len(workload)
        assert fingerprint(*heap) == fingerprint(*linear)


class TestSixteenProcessorDeterminism:
    """Equivalence and serial determinism of the 16p scaling machine;
    CI selects this class by name."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "barnes", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_heap_equals_linear_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3)

    def test_heap_equals_linear_at_16p_baseline(self):
        config = make_config(cgct=False, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3)

    def test_heap_equals_linear_at_16p_with_telemetry(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, telemetry=True)

    def test_repeat_runs_identical_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        workload = self.workload()
        _, a, _ = run_with("heap", config, workload, seed=3)
        _, b, _ = run_with("heap", config, workload, seed=3)
        assert a.per_processor_cycles == b.per_processor_cycles
        assert a.stats == b.stats
        assert a.broadcasts == b.broadcasts
