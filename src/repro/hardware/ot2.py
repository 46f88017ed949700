"""Simulated Opentrons OT-2 liquid handler.

The OT-2 holds four dye reservoirs and a tip rack; given a pipetting protocol
(one entry per well: which dyes, how much of each) it dispenses and mixes the
liquids in the plate on its deck (paper Section 2.2/2.3).  The protocol object
is generated by :mod:`repro.core.protocol` from the solver's proposed volumes,
mirroring the paper's generated OT-2 protocol files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.color.mixing import DyeSet
from repro.hardware.base import ActionHandle, ActionRecord, DeviceError, SimulatedDevice
from repro.hardware.deck import Workdeck
from repro.hardware.labware import LabwareError, Reservoir, TipRack

__all__ = ["ProtocolStep", "PipettingProtocol", "Ot2Device"]


@dataclass(frozen=True)
class ProtocolStep:
    """Dispense instructions for a single well."""

    well: str
    volumes_ul: Dict[str, float]

    def total_volume(self) -> float:
        """Total liquid dispensed into the well by this step (µl)."""
        return float(sum(self.volumes_ul.values()))


@dataclass
class PipettingProtocol:
    """An ordered list of per-well dispense steps plus bookkeeping metadata."""

    name: str
    steps: List[ProtocolStep] = field(default_factory=list)
    mix_cycles: int = 3

    @property
    def n_wells(self) -> int:
        """Number of wells this protocol fills."""
        return len(self.steps)

    def total_volume_by_liquid(self) -> Dict[str, float]:
        """Total volume of each liquid the protocol will consume (µl)."""
        totals: Dict[str, float] = {}
        for step in self.steps:
            for liquid, volume in step.volumes_ul.items():
                totals[liquid] = totals.get(liquid, 0.0) + volume
        return totals

    def to_dict(self) -> Dict:
        """JSON-serialisable form (stored in run records, like the paper's protocol files)."""
        return {
            "name": self.name,
            "mix_cycles": self.mix_cycles,
            "steps": [
                {"well": step.well, "volumes_ul": dict(step.volumes_ul)} for step in self.steps
            ],
        }


class Ot2Device(SimulatedDevice):
    """Automatic pipetting robot with dye reservoirs and a tip rack.

    Actions
    -------
    ``run_protocol``
        Execute a :class:`PipettingProtocol` against the plate on the deck.
    ``replace_tips``
        Swap in a fresh tip rack.
    """

    module_type = "ot2"

    def __init__(
        self,
        deck: Workdeck,
        *,
        deck_location: str = "ot2.deck",
        dye_set: Optional[DyeSet] = None,
        reservoir_capacity_ul: float = 20_000.0,
        tips_per_rack: int = 96,
        tips_per_well: int = 1,
        name: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(name=name, **kwargs)
        self.deck = deck
        self.deck_location = deck_location
        self.dye_set = dye_set if dye_set is not None else DyeSet.cmyk()
        self.reservoirs: Dict[str, Reservoir] = {
            dye: Reservoir(liquid=dye, capacity_ul=reservoir_capacity_ul, volume_ul=0.0)
            for dye in self.dye_set.names
        }
        self.tip_rack = TipRack(capacity=tips_per_rack)
        self.tips_per_well = tips_per_well
        self.protocols_run = 0
        self.wells_filled = 0
        if not deck.has_location(deck_location):
            deck.add_location(deck_location)

    # ------------------------------------------------------------------
    # Reservoir state
    # ------------------------------------------------------------------
    def reservoir_levels(self) -> Dict[str, float]:
        """Current volume of each dye reservoir (µl)."""
        return {dye: reservoir.volume_ul for dye, reservoir in self.reservoirs.items()}

    def reservoirs_low(self, threshold_fraction: float = 0.15) -> List[str]:
        """Names of reservoirs whose fill fraction is at or below ``threshold_fraction``."""
        return [
            dye
            for dye, reservoir in self.reservoirs.items()
            if reservoir.fill_fraction <= threshold_fraction
        ]

    def can_run(self, protocol: PipettingProtocol) -> bool:
        """Check liquid and tip inventory without charging any time."""
        needed = protocol.total_volume_by_liquid()
        for liquid, volume in needed.items():
            reservoir = self.reservoirs.get(liquid)
            if reservoir is None or reservoir.volume_ul + 1e-9 < volume:
                return False
        return self.tip_rack.remaining >= protocol.n_wells * self.tips_per_well

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def submit_run_protocol(self, protocol: PipettingProtocol) -> ActionHandle:
        """Submit a protocol run; wells fill and reservoirs draw at completion.

        The plate must already be on the OT-2 deck (the pf400 puts it there).
        Raises :class:`DeviceError` when inventory is insufficient -- the
        application is expected to run the barty replenish workflow first.
        """
        plate = self.deck.plate_at(self.deck_location)
        if plate is None:
            raise DeviceError(f"{self.name}: no plate on deck location {self.deck_location!r}")
        if protocol.n_wells == 0:
            raise DeviceError(f"{self.name}: protocol {protocol.name!r} has no steps")

        unknown = [
            liquid
            for step in protocol.steps
            for liquid in step.volumes_ul
            if liquid not in self.reservoirs
        ]
        if unknown:
            raise DeviceError(f"{self.name}: protocol references unknown liquids {sorted(set(unknown))}")

        needed = protocol.total_volume_by_liquid()
        short = {
            liquid: (volume, self.reservoirs[liquid].volume_ul)
            for liquid, volume in needed.items()
            if self.reservoirs[liquid].volume_ul + 1e-9 < volume
        }
        if short:
            raise DeviceError(
                f"{self.name}: insufficient reservoir volume for {sorted(short)} "
                f"(needed vs available: {short})"
            )
        tips_needed = protocol.n_wells * self.tips_per_well
        if self.tip_rack.remaining < tips_needed:
            raise DeviceError(
                f"{self.name}: not enough pipette tips ({self.tip_rack.remaining} remaining, "
                f"{tips_needed} needed)"
            )

        # Time is charged per-well (the paper's synthesis time scales with the
        # number of colours mixed in the batch).
        record = self._execute(
            "run_protocol",
            units=protocol.n_wells,
            protocol=protocol.name,
            wells=[step.well for step in protocol.steps],
        )

        def finish() -> ActionRecord:
            for step in protocol.steps:
                well = plate.well(step.well)
                if not well.is_empty:
                    raise DeviceError(
                        f"{self.name}: well {step.well} on plate {plate.barcode} already contains liquid"
                    )
                for liquid, volume in step.volumes_ul.items():
                    if volume < 0:
                        raise DeviceError(f"{self.name}: negative dispense volume for {liquid}")
                    if volume == 0.0:
                        continue
                    try:
                        self.reservoirs[liquid].draw(volume)
                        well.add(liquid, volume)
                    except LabwareError as exc:
                        raise DeviceError(str(exc)) from exc
                self.tip_rack.use(self.tips_per_well)
                self.wells_filled += 1
            self.protocols_run += 1
            return record

        return self._submitted(record, finish)

    def submit_replace_tips(self) -> ActionHandle:
        """Submit a tip-rack swap; the fresh rack is in place at completion."""
        record = self._execute("replace_tips")

        def finish() -> ActionRecord:
            self.tip_rack.refill()
            return record

        return self._submitted(record, finish)
