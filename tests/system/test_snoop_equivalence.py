"""Bitmask snoop paths ≡ the walk references, bit for bit.

``snoop="bitmask"`` runs both snoop phases of a broadcast on fast paths:
phase 1 iterates the maintained holder bitmask — O(holders) per
broadcast instead of O(P) — with the skipped tag probes reconstructed
from per-processor broadcast totals, and phase 2 applies the region
snoop per (state, empty) class over maintained class masks.
``snoop="walk"`` runs the references: the per-peer phase-1 loop and one
``node.snoop_region`` per tracker. These tests assert the two are
indistinguishable: same cycles, same stats, same per-node snoop
counters, same telemetry (the region-transition matrix included) — on
hand-built traces, on randomized traces, on every benchmark ×
perf-config × seed cell of the matrix, and at 16 processors where
holder sets are widest. The same toggle picks the fill: bitmask
machines install lines with a fused in-place update, walk machines run
``node.fill_line``, and TestFusedFillEquivalence holds the two equal
under fill pressure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.perfbench import PERF_CONFIGS, bench_config
from repro.interconnect.topology import Topology
from repro.system.machine import Machine, OracleCategory
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import BENCHMARKS, build_benchmark
from repro.workloads.trace import TraceOp

from tests.conftest import loads, make_config, multitrace


def run_with(snoop, config, workload, seed=0, telemetry=False):
    registry = TelemetryRegistry(interval=5_000) if telemetry else None
    simulator = Simulator(config, seed=seed, telemetry=registry, snoop=snoop)
    result = simulator.run(workload)
    return simulator, result, registry


def fingerprint(simulator, result, registry):
    """Everything observable about one run, as a comparable value."""
    machine = simulator.machine
    fp = {
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
        "request_paths": machine.request_paths,
        "path_latency": {
            key: (s.count, s.mean, s.minimum, s.maximum)
            for key, s in machine.path_latency.items()
        },
        # The sharpest probe of the deferred accounting: per-node snoop
        # counters must match the walk's live counts exactly.
        "snoop_probes": [n.l2.snoop_probes for n in machine.nodes],
        "snoop_hits": [n.l2.snoop_hits for n in machine.nodes],
    }
    if registry is not None:
        fp["telemetry"] = registry.to_dict()
    return fp


def assert_equivalent(config, workload, seed=0, telemetry=False):
    """Run both snoop paths and compare everything observable."""
    walk = fingerprint(*run_with("walk", config, workload, seed, telemetry))
    fast = fingerprint(*run_with("bitmask", config, workload, seed, telemetry))
    assert walk == fast


def contended_workload(procs=4, lines=24):
    """Every processor walks the same lines with staggered gaps, so the
    holder sets grow, shrink, and constantly change shape."""
    per_proc = []
    for proc in range(procs):
        addresses = [0x40000 + i * 64 for i in range(lines)]
        per_proc.append(loads(addresses, gap=3 + proc))
    return multitrace(per_proc)


class TestSnoopEquivalence:
    def test_contended_trace(self):
        assert_equivalent(make_config(cgct=True), contended_workload())

    def test_baseline_machine(self):
        assert_equivalent(make_config(cgct=False), contended_workload())

    def test_with_telemetry_aggregates(self):
        assert_equivalent(
            make_config(cgct=True), contended_workload(), telemetry=True
        )
        assert_equivalent(
            make_config(cgct=False), contended_workload(), telemetry=True
        )

    def test_with_timing_perturbation(self):
        # Perturbation draws from the per-run RNG; identical draws in
        # both snoop paths prove the fast path issues the same requests
        # in the same order, not just the same totals.
        config = make_config(cgct=True, perturbation=20)
        for seed in (0, 1, 2):
            assert_equivalent(config, contended_workload(), seed=seed)

    def test_stores_and_dcb_ops_churn_holder_sets(self):
        # Upgrades, DCBZ/DCBF/DCBI and eviction pressure exercise every
        # way a holder bit can be set and cleared mid-run.
        line = 0x40000
        per_proc = [
            [(TraceOp.STORE, line + i * 64, 2) for i in range(16)]
            + [(TraceOp.DCBF, line + i * 64, 1) for i in range(8)],
            [(TraceOp.LOAD, line + i * 64, 3) for i in range(16)]
            + [(TraceOp.DCBZ, line + 0x1000 + i * 64, 1) for i in range(8)],
            [(TraceOp.STORE, line + i * 64, 5) for i in range(16)]
            + [(TraceOp.DCBI, line + i * 64, 2) for i in range(4)],
            [(TraceOp.LOAD, line + 0x1000 + i * 64, 4) for i in range(16)],
        ]
        assert_equivalent(make_config(cgct=True), multitrace(per_proc))
        assert_equivalent(make_config(cgct=False), multitrace(per_proc))

    def test_filtered_machines_are_unaffected_by_the_toggle(self):
        # RegionScout/Jetty machines always run the general phase-1
        # loop, so without CGCT the toggle is inert. With CGCT + Jetty it
        # still picks phase 2: the bitmask side keeps its class masks
        # through the stacked-filter residency closures.
        for overrides in (
            dict(cgct=False, regionscout_enabled=True),
            dict(cgct=False, jetty_enabled=True),
        ):
            config = make_config(**overrides)
            assert_equivalent(config, contended_workload())
        config = make_config(cgct=True, jetty_enabled=True)
        assert_equivalent(config, contended_workload(), telemetry=True)
        assert Machine(config, snoop="bitmask")._inline_region_snoop

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        [TraceOp.LOAD, TraceOp.STORE, TraceOp.DCBZ]
                    ),
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


#: The six pre-fast-path perf configs: the matrix the issue pins down.
MATRIX_CONFIGS = [
    name for name, processors, _ in PERF_CONFIGS if processors <= 16
]
#: Ops per processor, scaled down with machine size to keep the full
#: 9 workloads × 6 configs × 3 seeds matrix inside a test budget.
MATRIX_OPS = {4: 150, 8: 100, 16: 60}


class TestBenchmarkMatrix:
    """9 workloads × 6 configs × 3 seeds, both snoop paths."""

    @pytest.mark.parametrize("workload", sorted(BENCHMARKS))
    def test_workload_cells(self, workload):
        assert len(MATRIX_CONFIGS) == 6
        for config_name in MATRIX_CONFIGS:
            config = bench_config(config_name)
            procs = config.num_processors
            for seed in (0, 1, 2):
                trace = build_benchmark(
                    workload, num_processors=procs,
                    ops_per_processor=MATRIX_OPS[procs], seed=seed,
                )
                assert_equivalent(config, trace, seed=seed)


class TestSixteenProcessorHolderSets:
    """16 processors: wide holder masks, both paths, telemetry on."""

    TOPOLOGY = Topology(
        cores_per_chip=2, chips_per_switch=2, switches_per_board=2, boards=2
    )

    def workload(self):
        return build_benchmark(
            "ocean", num_processors=16, ops_per_processor=300, seed=0
        )

    def test_bitmask_equals_walk_at_16p(self):
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        assert_equivalent(config, self.workload(), seed=3, telemetry=True)

    def test_warmup_reset_keeps_probe_accounting_exact(self):
        # reset_stats() mid-run (the warm-up path) re-bases the deferred
        # probe accounting; the measured portion must still match.
        config = make_config(cgct=True, topology=self.TOPOLOGY)
        results = {}
        for snoop in ("walk", "bitmask"):
            sim = Simulator(config, seed=0, snoop=snoop)
            run = sim.run(self.workload(), warmup_fraction=0.3)
            results[snoop] = (
                run.per_processor_cycles,
                run.stats,
                [n.l2.snoop_probes for n in sim.machine.nodes],
                [n.l2.snoop_hits for n in sim.machine.nodes],
            )
        assert results["walk"] == results["bitmask"]


def audit_masks(machine):
    """Assert the maintained class and tracker masks equal a brute-force
    walk of every set of every RCA; return the walk's (classes, trackers).
    """
    classes = {}
    trackers = {}
    for node in machine.nodes:
        node_bit = 1 << node.proc_id
        for entries in node.rca._sets:
            for entry in entries.values():
                c = (entry.state.index << 1) | (entry.line_count == 0)
                cls = classes.setdefault(entry.region, {})
                cls[c] = cls.get(c, 0) | node_bit
                trackers[entry.region] = (
                    trackers.get(entry.region, 0) | node_bit
                )
    assert machine._region_classes == classes
    assert machine._region_trackers == trackers
    return classes, trackers


class TestInlineRegionSnoopEquivalence:
    """Class-mask phase-2 snoops ≡ per-tracker ``node.snoop_region``.

    A bitmask machine runs phase-2 region snoops inline over the
    per-region class masks; a walk machine runs the canonical
    ``node.snoop_region`` for every tracker. Telemetry is on for both:
    it only records, so the bitmask side stays on the inline path and
    its transition matrix must match the walk's cell for cell. Running
    the same trace both ways differentially tests the entire class-mask
    machinery — mask maintenance across allocations, evictions,
    self-invalidations, line-count crossings and external transitions,
    and the transitions it records — against the reference.
    """

    @staticmethod
    def _compare(config, workload, seed=0):
        walk = run_with("walk", config, workload, seed, telemetry=True)
        fast = run_with("bitmask", config, workload, seed, telemetry=True)
        # Guard the premise: telemetry must not push the bitmask machine
        # off the inline path — otherwise this test silently compares
        # the walk to itself.
        assert fast[0].machine._inline_region_snoop
        assert not walk[0].machine._inline_region_snoop
        assert fingerprint(*walk) == fingerprint(*fast)
        audit_masks(fast[0].machine)
        return fast

    def test_contended_trace(self):
        _sim, _run, registry = self._compare(
            make_config(cgct=True), contended_workload()
        )
        # The inline phase 2 really recorded external transitions.
        cells = registry.get("rca.transitions").counts
        assert any(event.startswith("external.") for _, event, _ in cells)

    def test_with_timing_perturbation(self):
        config = make_config(cgct=True, perturbation=16)
        for seed in (0, 1, 2):
            self._compare(config, contended_workload(), seed=seed)

    def test_rca_pressure_exercises_eviction_and_self_invalidation(self):
        # A tiny RCA forces region evictions (fast-path bypass falls
        # back to the two-step conversation) and the line churn drives
        # empty↔non-empty crossings and self-invalidations.
        config = make_config(cgct=True, rca_sets=4, l2_bytes=16 * 1024)
        self._compare(config, contended_workload(procs=4, lines=48))

    def test_hint_visibility_variants(self):
        # The inline path computes exclusivity hints in closed form per
        # (request kind, combined response, visibility); every variant
        # must match the reference hint computation observably.
        for overrides in (
            dict(line_response_visible=False),
            dict(two_bit_response=False),
            dict(line_response_visible=False, two_bit_response=False),
            dict(owner_prediction=True),
        ):
            config = make_config(cgct=True, **overrides)
            self._compare(config, contended_workload())

    def test_single_node_region_snoops_keep_masks_exact(self):
        # The owner-prediction probe and the region-state prefetch snoop
        # single nodes through node.snoop_region; the bitmask side must
        # mirror their class changes into the masks.
        for overrides in (
            dict(region_state_prefetch=True),
            dict(owner_prediction=True, region_state_prefetch=True),
        ):
            config = make_config(cgct=True, **overrides)
            self._compare(config, contended_workload(procs=4, lines=48))
            trace = build_benchmark(
                "tpc-w", num_processors=4, ops_per_processor=400, seed=0
            )
            self._compare(config, trace)

    def test_benchmark_trace_at_16p(self):
        config = make_config(
            cgct=True,
            topology=TestSixteenProcessorHolderSets.TOPOLOGY,
        )
        trace = build_benchmark(
            "ocean", num_processors=16, ops_per_processor=250, seed=0
        )
        self._compare(config, trace, seed=1)

    def test_benchmark_trace_at_32p(self):
        config = make_config(
            cgct=True,
            topology=Topology(cores_per_chip=2, chips_per_switch=2,
                              switches_per_board=2, boards=4),
        )
        trace = build_benchmark(
            "barnes", num_processors=32, ops_per_processor=150, seed=0
        )
        self._compare(config, trace, seed=2)

    def test_class_masks_audit_against_arrays(self):
        # The class masks start empty and are never re-derived, so after
        # a run under RCA pressure they must agree exactly with a
        # brute-force walk of every set of every RCA — the
        # eager-maintenance invariant behind the inline snoop loop.
        # (Barnes with prefetching at 4p/16p and the fresh machine are
        # audited in test_region_class_rebuild.py.)
        fast_sim, _run, _registry = self._compare(
            make_config(cgct=True, rca_sets=8), contended_workload(lines=40)
        )
        classes, _trackers = audit_masks(fast_sim.machine)
        assert classes, "the run tracked no regions"

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        [TraceOp.LOAD, TraceOp.STORE, TraceOp.DCBZ,
                         TraceOp.DCBF]
                    ),
                    st.integers(min_value=0, max_value=0xFFF).map(
                        lambda a: a * 64
                    ),
                    st.integers(min_value=0, max_value=9),
                ),
                min_size=1,
                max_size=25,
            ),
            min_size=4,
            max_size=4,
        ),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_randomized_traces(self, data, seed):
        config = make_config(cgct=True, rca_sets=8, perturbation=6)
        self._compare(config, multitrace(data), seed=seed)


def streaming_workload(procs=4, lines=160):
    """Each processor loads and stores through a run of lines that
    overlaps its neighbour's, ascending on even processors and
    descending on odd ones: prefetch streams in both directions, shared
    regions, and a dirty victim on most fills of a small L2."""
    per_proc = []
    for proc in range(procs):
        base = 0x80000 + proc * (lines // 2) * 64
        addresses = [base + i * 64 for i in range(lines)]
        if proc % 2:
            addresses.reverse()
        per_proc.append([
            (TraceOp.STORE if i % 3 else TraceOp.LOAD, address, 2 + proc)
            for i, address in enumerate(addresses)
        ])
    return multitrace(per_proc)


def moments(stat):
    """A RunningStat's moments and percentiles, bit for bit."""
    return (
        stat.count, stat.mean, stat.minimum, stat.maximum, stat.variance,
        [stat.percentile(p) for p in (0, 10, 25, 50, 75, 90, 99, 100)],
    )


def fill_state(machine):
    """Everything the fused fill writes, and the latency moments the
    external-request tail feeds."""
    return {
        "l2": [(n.l2.fills, n.l2.evictions, n.l2.writebacks)
               for n in machine.nodes],
        "rca_allocations": [n.rca.allocations for n in machine.nodes
                            if n.rca is not None],
        "line_counts": [
            sorted((e.region, e.state, e.line_count) for e in n.rca.entries())
            for n in machine.nodes if n.rca is not None
        ],
        "holders": dict(machine._line_holders),
        "trackers": dict(machine._region_trackers),
        "path_latency": {key: moments(stat)
                         for key, stat in machine.path_latency.items()},
        "demand_latency": moments(machine.demand_latency),
    }


class TestFusedFillEquivalence:
    """The fused L2 fill ≡ ``node.fill_line`` / ``L2.fill``, bit for bit.

    A bitmask machine installs a line with one in-place update of the L2
    set, the holder bitmask, the routing entry's line count and the
    class masks; a walk machine runs ``node.fill_line`` and the
    residency callbacks. A small L2 with prefetching on makes most fills
    evict a dirty victim; an RCA smaller than the L2 instead forces
    lines out with their regions. The write-backs are routed on the
    CGCT machines and broadcast on the baseline one.
    """

    PRESSURE = dict(l2_bytes=4 * 1024, prefetch=True,
                    prefetch_region_filter=True, perturbation=12)

    def _compare(self, config, workload, seed):
        walk = run_with("walk", config, workload, seed, telemetry=True)
        fast = run_with("bitmask", config, workload, seed, telemetry=True)
        walk_machine, fast_machine = walk[0].machine, fast[0].machine
        assert fast_machine._bitmask_snoop
        assert not walk_machine._bitmask_snoop
        assert fingerprint(*walk) == fingerprint(*fast)
        assert fill_state(walk_machine) == fill_state(fast_machine)
        walk_machine.check_coherence_invariants()
        fast_machine.check_coherence_invariants()
        return fast_machine

    @staticmethod
    def _victims(machine):
        """(fill victims, lines forced out with their regions)."""
        forced = sum(n.l2.region_forced_evictions for n in machine.nodes)
        return sum(n.l2.evictions for n in machine.nodes) - forced, forced

    def test_cgct_fill_victims_route_write_backs(self):
        # The RCA covers more lines than the L2: victims leave through
        # the fill, and regions are evicted once the stream drains them.
        config = make_config(cgct=True, rca_sets=8, **self.PRESSURE)
        for seed in (0, 1):
            machine = self._compare(config, streaming_workload(), seed)
            assert self._victims(machine)[0] > 0
            assert machine.stats.directs[OracleCategory.WRITEBACK] > 0
            assert sum(n.rca.evictions for n in machine.nodes) > 0
            assert machine.prefetches_filtered > 0
            audit_masks(machine)

    def test_cgct_region_evictions_force_lines_out(self):
        # The RCA covers fewer lines than the L2: region evictions force
        # resident (often dirty) lines out before the fill needs a way.
        config = make_config(cgct=True, rca_sets=4, **self.PRESSURE)
        machine = self._compare(config, streaming_workload(), seed=0)
        assert self._victims(machine)[1] > 0
        assert machine.stats.directs[OracleCategory.WRITEBACK] > 0
        audit_masks(machine)

    def test_baseline_fill_victims_broadcast_write_backs(self):
        config = make_config(cgct=False, **self.PRESSURE)
        machine = self._compare(config, streaming_workload(), seed=0)
        assert self._victims(machine)[0] > 0
        assert machine.stats.broadcasts[OracleCategory.WRITEBACK] > 0

    def test_benchmark_trace_under_pressure(self):
        config = make_config(cgct=True, rca_sets=8, **self.PRESSURE)
        trace = build_benchmark(
            "tpc-w", num_processors=4, ops_per_processor=600, seed=0
        )
        machine = self._compare(config, trace, seed=2)
        assert self._victims(machine)[0] > 0
