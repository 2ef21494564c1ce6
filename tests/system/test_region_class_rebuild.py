"""The phase-2 class masks always equal a walk of the RCA arrays.

A machine builds its per-region class masks empty at construction and
never re-derives them: every allocation, eviction, line-count crossing
and external transition updates them in place. These tests compare
the maintained masks, after real CGCT runs, with a brute-force walk of
every set of every RCA.
"""

import pytest

from repro.interconnect.topology import Topology
from repro.system.machine import Machine
from repro.system.simulator import Simulator
from repro.telemetry.registry import TelemetryRegistry
from repro.workloads.benchmarks import build_benchmark

from tests.conftest import make_config

SHAPES = {
    4: Topology(),
    16: Topology(cores_per_chip=2, chips_per_switch=2,
                 switches_per_board=2, boards=2),
}


def brute_force_classes(machine):
    """region -> {class: pid mask}, from every entry of every RCA."""
    classes = {}
    for node in machine.nodes:
        for entries in node.rca._sets:
            for entry in entries.values():
                c = (entry.state.index << 1) | (entry.line_count == 0)
                cls = classes.setdefault(entry.region, {})
                cls[c] = cls.get(c, 0) | (1 << node.proc_id)
    return classes


@pytest.mark.parametrize("processors", sorted(SHAPES))
def test_rebuild_matches_brute_force_walk(processors):
    # At 16p telemetry is attached too: it only records, so the machine
    # stays on the inline path and must keep its masks exact.
    registry = TelemetryRegistry(interval=5_000) if processors == 16 else None
    config = make_config(prefetch=True, topology=SHAPES[processors])
    simulator = Simulator(config, telemetry=registry)
    simulator.run(build_benchmark("barnes", num_processors=processors,
                                  ops_per_processor=1_500))
    machine = simulator.machine
    expected = brute_force_classes(machine)
    assert expected, "the run tracked no regions"
    assert machine._inline_region_snoop
    assert machine._region_classes == expected
    trackers = {}
    for region, masks in expected.items():
        for mask in masks.values():
            trackers[region] = trackers.get(region, 0) | mask
    assert machine._region_trackers == trackers


def test_fresh_machine_has_no_class_masks():
    machine = Machine(make_config(prefetch=True, topology=SHAPES[16]))
    assert machine._inline_region_snoop
    assert machine._region_trackers == {}
    assert machine._region_classes == {}
