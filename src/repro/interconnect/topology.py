"""Machine topology and distance classes.

The evaluated system (Table 3) is Sun Fireplane-like: two processor cores
per chip, two chips per data switch, data switches on boards, boards
joined by a global interconnect. Each chip carries one memory controller
(UltraSparc-IV-style), so "chip" and "memory controller" share an index
space. The distance between a requesting processor and the home memory
controller picks the critical-word transfer and direct-request latencies
(Table 3 / Figure 6).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigurationError


class Distance(enum.IntEnum):
    """How far a memory controller is from a requesting processor.

    Ordered: larger values are farther (useful for monotonicity checks).
    """

    OWN_CHIP = 0
    SAME_SWITCH = 1
    SAME_BOARD = 2
    REMOTE = 3


@dataclass(frozen=True)
class Topology:
    """Physical hierarchy of the multiprocessor.

    Defaults reproduce the paper's 4-processor system: 2 cores per chip
    and 2 chips per data switch, one switch on one board.
    """

    cores_per_chip: int = 2
    chips_per_switch: int = 2
    switches_per_board: int = 1
    boards: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("cores_per_chip", self.cores_per_chip),
            ("chips_per_switch", self.chips_per_switch),
            ("switches_per_board", self.switches_per_board),
            ("boards", self.boards),
        ):
            if value <= 0:
                raise ConfigurationError(f"{label} must be positive, got {value}")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        """Total processors in the machine."""
        return (
            self.cores_per_chip
            * self.chips_per_switch
            * self.switches_per_board
            * self.boards
        )

    @property
    def num_chips(self) -> int:
        """Total processor chips."""
        return self.chips_per_switch * self.switches_per_board * self.boards

    @property
    def num_switches(self) -> int:
        """Total data switches."""
        return self.switches_per_board * self.boards

    @property
    def num_memory_controllers(self) -> int:
        """One memory controller per processor chip."""
        return self.num_chips

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def chip_of(self, processor: int) -> int:
        """Chip index hosting the given processor."""
        self._check_processor(processor)
        return processor // self.cores_per_chip

    def switch_of_chip(self, chip: int) -> int:
        """Data-switch index hosting the given chip."""
        self._check_chip(chip)
        return chip // self.chips_per_switch

    def board_of_chip(self, chip: int) -> int:
        """Board index hosting the given chip."""
        return self.switch_of_chip(chip) // self.switches_per_board

    def processors_on_chip(self, chip: int) -> range:
        """Processor IDs located on the given chip."""
        self._check_chip(chip)
        first = chip * self.cores_per_chip
        return range(first, first + self.cores_per_chip)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def distance(self, processor: int, controller_chip: int) -> Distance:
        """Distance class from *processor* to the MC on *controller_chip*."""
        home_chip = self.chip_of(processor)
        self._check_chip(controller_chip)
        if home_chip == controller_chip:
            return Distance.OWN_CHIP
        if self.switch_of_chip(home_chip) == self.switch_of_chip(controller_chip):
            return Distance.SAME_SWITCH
        if self.board_of_chip(home_chip) == self.board_of_chip(controller_chip):
            return Distance.SAME_BOARD
        return Distance.REMOTE

    def processor_distance(self, requestor: int, responder: int) -> Distance:
        """Distance class between two processors (cache-to-cache transfers)."""
        return self.distance(requestor, self.chip_of(responder))

    @functools.lru_cache(maxsize=None)
    def distance_matrix(self) -> Tuple[Tuple[Distance, ...], ...]:
        """:meth:`distance` for every (processor, controller chip) pair.

        Indexed ``[processor][chip]``; ``[requestor][chip_of(responder)]``
        is :meth:`processor_distance`. The topology is frozen and
        hashable, so the matrix is computed once per distinct shape.
        """
        chips = range(self.num_chips)
        return tuple(
            tuple(self.distance(p, c) for c in chips)
            for p in range(self.num_processors)
        )

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_processor(self, processor: int) -> None:
        if not 0 <= processor < self.num_processors:
            raise ValueError(
                f"processor {processor} out of range 0..{self.num_processors - 1}"
            )

    def _check_chip(self, chip: int) -> None:
        if not 0 <= chip < self.num_chips:
            raise ValueError(f"chip {chip} out of range 0..{self.num_chips - 1}")
