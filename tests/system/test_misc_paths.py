"""Odds and ends: error hierarchy, less-travelled node/machine paths."""

import random

import pytest

from repro.coherence.line_states import L1State, LineState
from repro.coherence.requests import RequestType
from repro.common.errors import (
    CGCTError,
    ConfigurationError,
    ProtocolError,
    SimulationError,
)
from repro.common.rng import derive_seed
from repro.system.machine import Machine
from repro.system.node import ProcessorNode

from tests.conftest import make_config


class TestErrorHierarchy:
    def test_all_derive_from_cgct_error(self):
        for exc in (ConfigurationError, ProtocolError, SimulationError):
            assert issubclass(exc, CGCTError)

    def test_catchable_as_library_errors(self):
        with pytest.raises(CGCTError):
            raise ProtocolError("x")


class TestNodeOddPaths:
    def test_route_writeback_without_rca_is_unrouted(self):
        node = ProcessorNode(0, make_config(cgct=False))
        wb = node.route_writeback_for_line(42)
        assert wb.home_mc is None

    def test_route_writeback_untracked_region_is_unrouted(self):
        node = ProcessorNode(0, make_config(cgct=True, rca_sets=64))
        wb = node.route_writeback_for_line(42)
        assert wb.home_mc is None

    def test_probe_region_response_is_pure(self):
        from repro.rca.states import RegionState

        node = ProcessorNode(0, make_config(cgct=True, rca_sets=64))
        node.rca.insert(5, RegionState.DIRTY_INVALID, home_mc=0)
        address = 5 * 512
        node.fill_line(address, LineState.MODIFIED)
        before = node.rca.probe(5).state
        response = node.probe_region_response(5)
        assert response.dirty
        assert node.rca.probe(5).state is before  # no downgrade

    def test_probe_region_response_empty_region(self):
        from repro.rca.states import RegionState

        node = ProcessorNode(0, make_config(cgct=True, rca_sets=64))
        node.rca.insert(5, RegionState.DIRTY_INVALID, home_mc=0)
        response = node.probe_region_response(5)
        assert not response.cached
        assert node.rca.probe(5) is not None  # not self-invalidated


class TestJitter:
    @pytest.mark.parametrize("magnitude", [1, 2, 7, 8, 20, 31, 32, 100])
    def test_jitter_draws_the_randint_stream(self, magnitude):
        # The machine reads getrandbits directly; the jitter it charges
        # must still be the stream randint(0, magnitude) would draw. Each
        # load is a cold miss on an idle machine, so its latency is the
        # unjittered machine's plus exactly one draw.
        plain = Machine(make_config(cgct=False, perturbation=0), seed=3)
        jittered = Machine(make_config(cgct=False, perturbation=magnitude),
                           seed=3)
        expected = random.Random(derive_seed(3, "perturbation"))
        for i in range(200):
            address = 0x100000 + i * 4096
            now = i * 1_000_000
            drawn = jittered.load(0, address, now) - plain.load(0, address, now)
            assert drawn == expected.randint(0, magnitude)


class TestMachineOddPaths:
    def test_dcbf_invalidates_instruction_copies_too(self):
        machine = Machine(make_config(cgct=False))
        machine.ifetch(0, 0x1000, now=0)
        line = machine.geometry.line_of(0x1000)
        assert machine.nodes[0].l1i.state_of(0x1000) is L1State.SHARED
        machine.dcbf(0, 0x1000, now=1000)
        assert machine.nodes[0].l1i.state_of(0x1000) is L1State.INVALID
        assert machine.nodes[0].l2.peek(line) is None

    def test_dcbz_full_line_after_partial_sharing(self):
        machine = Machine(make_config(cgct=False))
        machine.load(0, 0x1000, now=0)
        machine.load(1, 0x1000, now=1000)   # both share
        machine.dcbz(0, 0x1000, now=2000)   # proc 0 zeroes: invalidate proc 1
        assert machine.nodes[1].l2.peek(machine.geometry.line_of(0x1000)) is None
        entry = machine.nodes[0].l2.peek(machine.geometry.line_of(0x1000))
        assert entry.state is LineState.MODIFIED

    def test_ifetch_after_l1i_eviction_hits_l2(self):
        machine = Machine(make_config(cgct=False, l1_bytes=1024))
        # 1 KB 4-way L1I = 4 sets: five conflicting code lines evict.
        stride = 4 * 64
        for i in range(5):
            machine.ifetch(0, 0x8000 + i * stride, now=i * 1000)
        latency = machine.ifetch(0, 0x8000, now=10_000)
        assert latency == 12  # L2 hit, L1I refill

    def test_upgrade_after_remote_ifetch_share(self):
        machine = Machine(make_config(cgct=False))
        machine.load(0, 0x2000, now=0)       # E at proc 0
        machine.ifetch(1, 0x2000, now=1000)  # code/data aliasing: now shared
        machine.store(0, 0x2000, now=2000)
        # Proc 0's copy was demoted to S: store needs an upgrade broadcast.
        from repro.system.machine import RequestPath

        assert machine.request_paths[
            RequestType.UPGRADE, RequestPath.BROADCAST] == 1
        machine.check_coherence_invariants()

    def test_simulator_skips_validation_when_asked(self):
        from repro.system.simulator import Simulator
        from tests.conftest import loads, multitrace

        workload = multitrace([loads([0x100])] * 4)
        result = Simulator(make_config(cgct=False)).run(workload,
                                                        validate=False)
        assert result.cycles > 0


class TestMinimalTopology:
    def test_two_processor_machine(self):
        from repro.interconnect.topology import Topology

        machine = Machine(make_config(
            cgct=True, rca_sets=64,
            topology=Topology(cores_per_chip=2, chips_per_switch=1,
                              switches_per_board=1, boards=1),
        ))
        assert len(machine.nodes) == 2
        machine.load(0, 0x1000, now=0)
        machine.store(1, 0x1000, now=1000)
        machine.load(0, 0x1000, now=2000)
        machine.check_coherence_invariants()

    def test_single_processor_machine_never_shares(self):
        from repro.interconnect.topology import Topology

        machine = Machine(make_config(
            cgct=True, rca_sets=64,
            topology=Topology(cores_per_chip=1, chips_per_switch=1,
                              switches_per_board=1, boards=1),
        ))
        machine.load(0, 0x1000, now=0)
        machine.load(0, 0x1040, now=1000)
        # With no other processors, the oracle marks everything
        # unnecessary and CGCT converts everything after the first touch.
        assert machine.stats.total_unnecessary == machine.stats.total_broadcasts
        assert machine.stats.total_directs == 1
