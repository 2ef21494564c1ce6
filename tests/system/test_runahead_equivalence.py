"""Unobserved run ≡ run with a step observer attached, bit for bit.

The production run loop is one heap pop → ``step()`` → push; telemetry,
tracer, sanitizer and step observer are ``is not None`` hooks on that
same loop, so watching a run must not change which code runs in it.
These tests attach a step observer and assert that nothing observable
moves — same cycles, same stats, same latencies, same telemetry — and
that the observer is called exactly once per trace operation.

The class and test names date from when the heap loop ran processors
ahead in streaks and observed runs took a separate one-step-per-pop
path; the cases are the ones that exercised that split (the
heap-vs-linear reference comparisons live in
``test_scheduler_equivalence.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.topology import Topology
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import make_config, multitrace
from tests.system.test_scheduler_equivalence import (
    contended_workload,
    fingerprint,
    private_workload,
    run_with,
)


def assert_observer_invisible(config, workload, seed=0, telemetry=False):
    """Run bare and with a step observer; compare everything observable."""
    bare = run_with("heap", config, workload, seed, telemetry)
    pids = []
    observed = run_with("heap", config, workload, seed, telemetry,
                        step_observer=pids.append)
    assert fingerprint(*bare) == fingerprint(*observed)
    assert len(pids) == len(workload)


class TestRunaheadEquivalence:
    def test_contended_trace(self):
        assert_observer_invisible(make_config(cgct=True),
                                  contended_workload())

    def test_baseline_machine(self):
        assert_observer_invisible(make_config(cgct=False),
                                  contended_workload())
        assert_observer_invisible(make_config(cgct=False),
                                  private_workload())

    def test_with_telemetry(self):
        # The observer hook runs after the sampling check: the registries
        # must see the identical interleaving of samples and steps.
        assert_observer_invisible(
            make_config(cgct=True), private_workload(), telemetry=True
        )
        assert_observer_invisible(
            make_config(cgct=True), contended_workload(), telemetry=True
        )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws prove
        # the step *order* (which drives RNG consumption) is unchanged.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_observer_invisible(config, private_workload(), seed=seed)

    def test_simultaneous_ready_times(self):
        # Equal-time ties are broken by proc id with or without a hook.
        per_proc = [[(TraceOp.LOAD, 0x8000, 10)] * 6 for _ in range(4)]
        assert_observer_invisible(make_config(cgct=True),
                                  multitrace(per_proc))

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
        assert_observer_invisible(config, multitrace(data), seed=seed)


class TestSixteenProcessorRunahead:
    """The observer hook on the 16-processor scaling machine."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "barnes", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_streak_equals_off_at_16p_cgct(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_observer_invisible(config, self.workload(), seed=3)

    def test_streak_equals_off_at_16p_baseline(self):
        config = make_config(cgct=False, topology=self.TOPOLOGY)
        assert_observer_invisible(config, self.workload(), seed=3)

    def test_streak_equals_off_at_16p_with_telemetry(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_observer_invisible(config, self.workload(), seed=3,
                                  telemetry=True)
