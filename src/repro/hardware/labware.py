"""Labware: microplates, wells, reservoirs, tip racks and storage towers.

The colour-picker application works with standard SBS 96-well microplates
(8 rows A-H by 12 columns).  Labware objects are pure state containers -- the
simulated devices mutate them and the camera reads them; they never touch the
clock or the random streams themselves.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "LabwareError",
    "well_name",
    "well_names",
    "parse_well_name",
    "Well",
    "Plate",
    "Reservoir",
    "TipRack",
    "PlateStack",
]

_ROW_LETTERS = "ABCDEFGHIJKLMNOP"


class LabwareError(RuntimeError):
    """Raised for physically impossible labware operations (overfilling, etc.)."""


def well_name(row: int, col: int) -> str:
    """Return the conventional name ('A1', 'H12', ...) for 0-based row/column."""
    if not 0 <= row < len(_ROW_LETTERS):
        raise ValueError(f"row must be in [0, {len(_ROW_LETTERS)}), got {row}")
    if col < 0:
        raise ValueError(f"col must be >= 0, got {col}")
    return f"{_ROW_LETTERS[row]}{col + 1}"


def parse_well_name(name: str) -> Tuple[int, int]:
    """Parse 'C7' into 0-based ``(row, col)``."""
    name = name.strip().upper()
    if len(name) < 2 or name[0] not in _ROW_LETTERS or not name[1:].isdigit():
        raise ValueError(f"malformed well name {name!r}")
    return _ROW_LETTERS.index(name[0]), int(name[1:]) - 1


@functools.lru_cache(maxsize=None)
def _layout(rows: int, cols: int) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """Row-major well names of a ``rows x cols`` plate and each name's index."""
    names = tuple(well_name(r, c) for r in range(rows) for c in range(cols))
    return names, {name: index for index, name in enumerate(names)}


def well_names(rows: int, cols: int) -> List[str]:
    """All well names of a ``rows x cols`` plate in row-major order."""
    return list(_layout(rows, cols)[0])


@dataclass
class Well:
    """One well of a microplate.

    Contents are tracked as a mapping from liquid name (dye or diluent) to
    volume in µl.  The well does not know what colour it is -- that is the
    camera's job, via the mixing model.  Change the contents only through
    :meth:`add` and :meth:`empty`: they keep the owning plate's occupancy
    current.
    """

    name: str
    capacity_ul: float = 360.0
    contents: Dict[str, float] = field(default_factory=dict)
    # Not dataclass fields: the plate whose occupancy this well reports to
    # and the well's row-major index on it, set by Plate.well (None for a
    # standalone well).
    _plate = None
    _index = -1

    @property
    def volume(self) -> float:
        """Total liquid volume currently in the well (µl)."""
        return float(sum(self.contents.values()))

    @property
    def is_empty(self) -> bool:
        """True when nothing has been dispensed into the well."""
        return self.volume <= 0.0

    def add(self, liquid: str, volume_ul: float) -> None:
        """Dispense ``volume_ul`` of ``liquid`` into the well."""
        check_non_negative("volume_ul", volume_ul)
        volume = self.volume
        if volume + volume_ul > self.capacity_ul + 1e-9:
            raise LabwareError(
                f"well {self.name}: adding {volume_ul:.1f} µl would exceed capacity "
                f"({volume:.1f}/{self.capacity_ul:.1f} µl)"
            )
        self.contents[liquid] = self.contents.get(liquid, 0.0) + float(volume_ul)
        if volume <= 0.0 < volume_ul and self._plate is not None:
            self._plate._occupy(self._index)

    def dye_volumes(self, dye_names: Sequence[str]) -> np.ndarray:
        """Return the volumes of the named dyes as an array (µl)."""
        return np.array([self.contents.get(name, 0.0) for name in dye_names], dtype=np.float64)

    def empty(self) -> None:
        """Remove all liquid (used when a plate is trashed and reused in tests)."""
        self.contents.clear()
        if self._plate is not None:
            self._plate._vacate(self._index)


@dataclass(eq=False)
class Plate:
    """An SBS microplate with ``rows x cols`` wells.

    A :class:`Well` is created on its first :meth:`well` lookup, so
    :attr:`wells` holds only the wells touched so far.  The plate keeps
    which wells hold liquid itself (the wells report every change), so
    :attr:`remaining_capacity` is O(1) and :meth:`next_empty_wells` scans
    from the first empty well.  ``barcode`` identifies the plate in run
    records and portal publications; equality is identity.
    """

    barcode: str
    rows: int = 8
    cols: int = 12
    well_capacity_ul: float = 360.0
    wells: Dict[str, Well] = field(default_factory=dict, init=False)

    def __post_init__(self):
        check_positive("rows", self.rows)
        check_positive("cols", self.cols)
        check_positive("well_capacity_ul", self.well_capacity_ul)
        self._names, self._index = _layout(self.rows, self.cols)
        #: 1 per well holding liquid, in row-major order, and their count.
        self._used = bytearray(len(self._names))
        self._n_used = 0
        #: Every well before this index holds liquid.
        self._first_empty = 0

    @property
    def n_wells(self) -> int:
        """Total number of wells on the plate."""
        return self.rows * self.cols

    @property
    def used_wells(self) -> List[str]:
        """Names of wells that contain liquid, in row-major order."""
        return [name for name, used in zip(self._names, self._used) if used]

    @property
    def empty_wells(self) -> List[str]:
        """Names of wells that are still empty, in row-major order."""
        return [name for name, used in zip(self._names, self._used) if not used]

    @property
    def remaining_capacity(self) -> int:
        """Number of wells that can still receive a sample."""
        return len(self._names) - self._n_used

    @property
    def is_full(self) -> bool:
        """True once every well has been used."""
        return self.remaining_capacity == 0

    def well(self, name: str) -> Well:
        """Return the well called ``name`` (KeyError with plate context otherwise)."""
        well = self.wells.get(name)
        if well is None:
            index = self._index.get(name)
            if index is None:
                raise KeyError(f"plate {self.barcode}: no well named {name!r}")
            well = self.wells[name] = Well(name=name, capacity_ul=self.well_capacity_ul)
            well._plate = self
            well._index = index
        return well

    def next_empty_wells(self, count: int) -> List[str]:
        """Return the next ``count`` empty wells in row-major order.

        Raises :class:`LabwareError` if fewer than ``count`` remain.
        """
        check_positive("count", count)
        remaining = self.remaining_capacity
        if remaining < count:
            raise LabwareError(
                f"plate {self.barcode}: requested {count} empty wells, only {remaining} remain"
            )
        used = self._used
        index = self._first_empty
        while used[index]:
            index += 1
        self._first_empty = index
        found: List[str] = []
        while len(found) < count:
            if not used[index]:
                found.append(self._names[index])
            index += 1
        return found

    def well_grid_positions(self) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(name, row, col)`` for all wells (used by the image renderer)."""
        for index, name in enumerate(self._names):
            row, col = divmod(index, self.cols)
            yield name, row, col

    def _occupy(self, index: int) -> None:
        self._used[index] = 1
        self._n_used += 1

    def _vacate(self, index: int) -> None:
        if self._used[index]:
            self._used[index] = 0
            self._n_used -= 1
            self._first_empty = min(self._first_empty, index)


@dataclass
class Reservoir:
    """A liquid reservoir on the OT-2 deck holding a single dye."""

    liquid: str
    capacity_ul: float = 20_000.0
    volume_ul: float = 0.0

    def __post_init__(self):
        check_positive("capacity_ul", self.capacity_ul)
        check_non_negative("volume_ul", self.volume_ul)
        if self.volume_ul > self.capacity_ul:
            raise LabwareError(
                f"reservoir {self.liquid}: initial volume exceeds capacity"
            )

    @property
    def fill_fraction(self) -> float:
        """Fraction of capacity currently filled."""
        return self.volume_ul / self.capacity_ul

    def draw(self, volume_ul: float) -> None:
        """Remove liquid; raises :class:`LabwareError` if not enough remains."""
        check_non_negative("volume_ul", volume_ul)
        if volume_ul > self.volume_ul + 1e-9:
            raise LabwareError(
                f"reservoir {self.liquid}: cannot draw {volume_ul:.1f} µl, "
                f"only {self.volume_ul:.1f} µl available"
            )
        self.volume_ul -= volume_ul

    def fill(self, volume_ul: Optional[float] = None) -> float:
        """Add liquid (to capacity when ``volume_ul`` is None); returns volume added."""
        if volume_ul is None:
            added = self.capacity_ul - self.volume_ul
            self.volume_ul = self.capacity_ul
            return added
        check_non_negative("volume_ul", volume_ul)
        if self.volume_ul + volume_ul > self.capacity_ul + 1e-9:
            raise LabwareError(
                f"reservoir {self.liquid}: filling {volume_ul:.1f} µl would overflow"
            )
        self.volume_ul += volume_ul
        return volume_ul

    def drain(self) -> float:
        """Empty the reservoir completely; returns the volume removed."""
        removed = self.volume_ul
        self.volume_ul = 0.0
        return removed


@dataclass
class TipRack:
    """A box of disposable pipette tips on the OT-2 deck."""

    capacity: int = 96
    used: int = 0

    def __post_init__(self):
        check_positive("capacity", self.capacity)
        check_non_negative("used", self.used)
        if self.used > self.capacity:
            raise LabwareError("tip rack cannot start with more used tips than capacity")

    @property
    def remaining(self) -> int:
        """Number of unused tips left in the rack."""
        return self.capacity - self.used

    def use(self, count: int = 1) -> None:
        """Consume ``count`` tips; raises :class:`LabwareError` when the rack is empty."""
        check_positive("count", count)
        if count > self.remaining:
            raise LabwareError(
                f"tip rack exhausted: requested {count} tips, {self.remaining} remain"
            )
        self.used += count

    def refill(self) -> None:
        """Replace the rack with a fresh one."""
        self.used = 0


class PlateStack:
    """A sciclops storage tower holding fresh microplates.

    Barcodes are ``<prefix>-0001``, ``<prefix>-0002``, ... in pop order,
    counted per tower, so a seeded campaign labels its plates the same way
    whatever ran before it in the process.
    """

    def __init__(self, capacity: int = 20, plate_rows: int = 8, plate_cols: int = 12, prefix: str = "plate"):
        check_positive("capacity", capacity)
        self.capacity = capacity
        self.plate_rows = plate_rows
        self.plate_cols = plate_cols
        self.prefix = prefix
        self._remaining = capacity
        self._barcode_counter = itertools.count(1)

    @property
    def remaining(self) -> int:
        """Number of fresh plates left in the tower."""
        return self._remaining

    @property
    def is_empty(self) -> bool:
        """True when the tower has no plates left."""
        return self._remaining == 0

    def pop(self) -> Plate:
        """Remove the top plate from the tower and return it."""
        if self.is_empty:
            raise LabwareError("plate storage tower is empty")
        self._remaining -= 1
        barcode = f"{self.prefix}-{next(self._barcode_counter):04d}"
        return Plate(barcode=barcode, rows=self.plate_rows, cols=self.plate_cols)

    def restock(self, count: int) -> None:
        """Add ``count`` fresh plates to the tower (capped at capacity)."""
        check_positive("count", count)
        self._remaining = min(self.capacity, self._remaining + count)
