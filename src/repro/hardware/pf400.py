"""Simulated Precise Automation PF400 manipulator arm.

The pf400 is the workcell's central transport: a rail-mounted arm that picks
microplates up from one location and places them at another (paper
Section 2.2).  In the colour-picker application it shuttles the active plate
between the camera stage and the OT-2 deck twice per iteration.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.base import ActionHandle, DeviceError, SimulatedDevice
from repro.hardware.deck import LocationError, Workdeck
from repro.hardware.labware import Plate

__all__ = ["Pf400Device"]


class Pf400Device(SimulatedDevice):
    """Rail-mounted plate manipulator.

    Actions
    -------
    ``transfer``
        Move the plate at ``source`` to ``target``.
    ``move_home``
        Return the arm to its parked position (used after error recovery).
    """

    module_type = "pf400"

    def __init__(self, deck: Workdeck, *, name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.deck = deck
        self.transfers_completed = 0

    def submit_transfer(self, source: str, target: str) -> ActionHandle:
        """Submit a plate move; the deck mutates when the handle completes.

        The deck is validated *before* time is charged: asking the arm to move
        a plate that is not there is a programming error, not a robot fault.
        """
        if not self.deck.has_location(source):
            raise LocationError(f"unknown source location {source!r}")
        if not self.deck.has_location(target):
            raise LocationError(f"unknown target location {target!r}")
        if not self.deck.is_occupied(source):
            raise DeviceError(f"{self.name}: no plate at {source!r} to transfer")
        if target != self.deck.trash_location and self.deck.is_occupied(target):
            raise DeviceError(f"{self.name}: target location {target!r} is occupied")
        record = self._execute("transfer", source=source, target=target)

        def finish() -> Plate:
            plate = self.deck.move(source, target)
            self.transfers_completed += 1
            return plate

        return self._submitted(record, finish)

    def submit_move_home(self) -> ActionHandle:
        """Submit a park command (no deck change at completion)."""
        return self._submitted(self._execute("move_home"))
