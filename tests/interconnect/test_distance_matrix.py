"""The memoised distance matrix agrees with the pairwise definitions."""

import pytest

from repro.interconnect.topology import Topology

SHAPES = [
    Topology(),
    Topology(cores_per_chip=2, chips_per_switch=2, switches_per_board=2,
             boards=2),
    Topology(cores_per_chip=2, chips_per_switch=2, switches_per_board=2,
             boards=8),
    Topology(cores_per_chip=1, chips_per_switch=3, switches_per_board=2,
             boards=2),
]


@pytest.mark.parametrize("topology", SHAPES)
def test_matrix_matches_distance_and_processor_distance(topology):
    matrix = topology.distance_matrix()
    assert len(matrix) == topology.num_processors
    for p in range(topology.num_processors):
        assert len(matrix[p]) == topology.num_chips
        for chip in range(topology.num_chips):
            assert matrix[p][chip] is topology.distance(p, chip)
        for r in range(topology.num_processors):
            assert matrix[p][topology.chip_of(r)] is \
                topology.processor_distance(p, r)


def test_equal_topologies_share_one_matrix():
    a = Topology(boards=2)
    b = Topology(boards=2)
    assert a is not b
    assert a.distance_matrix() is b.distance_matrix()
    assert isinstance(a.distance_matrix(), tuple)
