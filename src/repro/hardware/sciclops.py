"""Simulated Hudson SciClops microplate crane.

The sciclops stores fresh microplates in towers and stages one at its
exchange location where the pf400 can pick it up (paper Figure 1).
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.base import ActionHandle, DeviceError, SimulatedDevice
from repro.hardware.deck import Workdeck
from repro.hardware.labware import Plate, PlateStack

__all__ = ["SciclopsDevice"]


class SciclopsDevice(SimulatedDevice):
    """Plate crane with one or more storage towers.

    Actions
    -------
    ``get_plate``
        Take a fresh plate from a storage tower and place it at the module's
        exchange location on the workcell deck.
    ``status``
        Report how many plates remain.
    """

    module_type = "sciclops"

    def __init__(
        self,
        deck: Workdeck,
        *,
        exchange_location: str = "sciclops.exchange",
        towers: int = 2,
        plates_per_tower: int = 20,
        name: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(name=name, **kwargs)
        if towers < 1:
            raise ValueError(f"towers must be >= 1, got {towers}")
        self.deck = deck
        self.exchange_location = exchange_location
        self.towers = [PlateStack(capacity=plates_per_tower, prefix=f"{self.name}-t{i}") for i in range(towers)]
        if not deck.has_location(exchange_location):
            deck.add_location(exchange_location)

    @property
    def plates_remaining(self) -> int:
        """Fresh plates left across all towers."""
        return sum(tower.remaining for tower in self.towers)

    def submit_get_plate(self) -> ActionHandle:
        """Submit a plate fetch; the plate reaches the exchange at completion."""
        if self.deck.is_occupied(self.exchange_location):
            raise DeviceError(
                f"{self.name}: exchange location {self.exchange_location!r} is occupied"
            )
        tower = next((t for t in self.towers if not t.is_empty), None)
        if tower is None:
            raise DeviceError(f"{self.name}: all plate storage towers are empty")
        record = self._execute("get_plate", tower_remaining=tower.remaining)

        def finish() -> Plate:
            plate = tower.pop()
            self.deck.place(plate, self.exchange_location)
            return plate

        return self._submitted(record, finish)

    def submit_status(self) -> ActionHandle:
        """Submit an inventory report (no state change at completion)."""
        return self._submitted(
            self._execute("status", plates_remaining=self.plates_remaining)
        )
