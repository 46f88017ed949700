"""Simulated "barty" liquid replenisher.

Barty is the RPL-built robot with four peristaltic pumps that moves dye from
large bulk storage vessels into the OT-2's deck reservoirs, letting
experiments run for extended periods without human refills (paper
Section 2.2).  It is the device the paper's extension adds relative to the
earlier colour-picker publication.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.hardware.base import ActionHandle, ActionRecord, DeviceError, SimulatedDevice
from repro.hardware.labware import Reservoir
from repro.hardware.ot2 import Ot2Device
from repro.utils.validation import check_positive

__all__ = ["BartyDevice"]


class BartyDevice(SimulatedDevice):
    """Peristaltic-pump liquid replenisher.

    Actions
    -------
    ``fill_colors``
        Fill the target OT-2's reservoirs to capacity from bulk storage.
    ``drain_colors``
        Empty the target OT-2's reservoirs (when a plate/experiment is finished).
    ``refill_colors``
        Drain-and-fill of the reservoirs that have run low.
    """

    module_type = "barty"

    def __init__(
        self,
        ot2: Ot2Device,
        *,
        bulk_capacity_ul: float = 500_000.0,
        name: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(name=name, **kwargs)
        check_positive("bulk_capacity_ul", bulk_capacity_ul)
        self.ot2 = ot2
        self.bulk_supply: Dict[str, Reservoir] = {
            dye: Reservoir(liquid=dye, capacity_ul=bulk_capacity_ul, volume_ul=bulk_capacity_ul)
            for dye in ot2.dye_set.names
        }
        self.liquid_dispensed_ul = 0.0
        self.liquid_drained_ul = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _select(self, colors: Optional[Iterable[str]]) -> List[str]:
        if colors is None:
            return list(self.ot2.reservoirs)
        names = list(colors)
        unknown = [c for c in names if c not in self.ot2.reservoirs]
        if unknown:
            raise DeviceError(f"{self.name}: unknown reservoir colours {unknown}")
        return names

    def _pump_fill(self, colors: List[str]) -> float:
        moved = 0.0
        for dye in colors:
            reservoir = self.ot2.reservoirs[dye]
            wanted = reservoir.capacity_ul - reservoir.volume_ul
            available = self.bulk_supply[dye].volume_ul
            transfer = min(wanted, available)
            if wanted > available:
                raise DeviceError(
                    f"{self.name}: bulk supply of {dye} exhausted "
                    f"({available:.0f} µl left, {wanted:.0f} µl needed)"
                )
            if transfer > 0:
                self.bulk_supply[dye].draw(transfer)
                reservoir.fill(transfer)
                moved += transfer
        self.liquid_dispensed_ul += moved
        return moved

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def submit_fill_colors(self, colors: Optional[Iterable[str]] = None) -> ActionHandle:
        """Submit a fill; the liquid reaches the reservoirs at completion."""
        selected = self._select(colors)
        record = self._execute("fill_colors", units=len(selected), colors=selected)

        def finish() -> ActionRecord:
            record.details["volume_moved_ul"] = self._pump_fill(selected)
            return record

        return self._submitted(record, finish)

    def submit_drain_colors(self, colors: Optional[Iterable[str]] = None) -> ActionHandle:
        """Submit a drain; the reservoirs empty at completion."""
        selected = self._select(colors)
        record = self._execute("drain_colors", units=len(selected), colors=selected)

        def finish() -> ActionRecord:
            removed = sum(self.ot2.reservoirs[dye].drain() for dye in selected)
            self.liquid_drained_ul += removed
            record.details["volume_drained_ul"] = removed
            return record

        return self._submitted(record, finish)

    def submit_refill_colors(
        self, colors: Optional[Iterable[str]] = None, low_threshold: float = 0.15
    ) -> ActionHandle:
        """Submit a refill of reservoirs at or below ``low_threshold`` of capacity.

        When ``colors`` is given only those reservoirs are considered.  The
        command is still issued (and charged time) even if nothing needs
        refilling, matching how the application's replenish workflow behaves.
        The set of low reservoirs is fixed at submission, when the pumps are
        configured; the liquid moves at completion.
        """
        candidates = self._select(colors)
        low = [dye for dye in candidates if self.ot2.reservoirs[dye].fill_fraction <= low_threshold]
        record = self._execute("refill_colors", units=max(len(low), 1), colors=low)

        def finish() -> ActionRecord:
            record.details["volume_moved_ul"] = self._pump_fill(low) if low else 0.0
            return record

        return self._submitted(record, finish)

    def bulk_levels(self) -> Dict[str, float]:
        """Remaining bulk supply of each dye (µl)."""
        return {dye: reservoir.volume_ul for dye, reservoir in self.bulk_supply.items()}
