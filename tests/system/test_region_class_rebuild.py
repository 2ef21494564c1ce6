"""Rebuilding the phase-2 class masks from the tracker masks is exact.

``Machine._refresh_region_snoop_tables`` derives the per-region class
masks from ``_region_trackers`` (the regions some RCA holds) instead of
walking every RCA set. These tests compare that rebuild, after real
CGCT runs, with a brute-force walk of every set of every RCA.
"""

import pytest

from repro.interconnect.topology import Topology
from repro.system.machine import Machine
from repro.system.simulator import Simulator
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
    config = make_config(prefetch=True, topology=SHAPES[processors])
    simulator = Simulator(config)
    simulator.run(build_benchmark("barnes", num_processors=processors,
                                  ops_per_processor=1_500))
    machine = simulator.machine
    expected = brute_force_classes(machine)
    assert expected, "the run tracked no regions"
    assert machine._region_classes == expected
    machine._refresh_region_snoop_tables()
    assert machine._inline_region_snoop
    assert machine._region_classes == expected


def test_fresh_machine_has_no_class_masks():
    machine = Machine(make_config(prefetch=True, topology=SHAPES[16]))
    assert machine._inline_region_snoop
    assert machine._region_trackers == {}
    assert machine._region_classes == {}
