"""Seeded property test: a plate's occupancy queries against a brute-force oracle.

The plate keeps which wells hold liquid itself, updated by ``Well.add`` and
``Well.empty``.  Random add/empty sequences (0 µl adds included: they leave
a well empty) on several plate shapes must give the same answers as
recomputing every query from the wells' contents, and the same errors.
"""

import numpy as np
import pytest

from repro.hardware.labware import LabwareError, Plate, well_names

SHAPES = [(8, 12), (2, 3), (1, 1), (4, 6), (16, 24)]
LIQUIDS = ("cyan", "magenta", "yellow", "black")


def oracle_empty(names, contents):
    return [name for name in names if sum(contents[name].values()) <= 0.0]


def check_queries(plate, names, contents, rng):
    empty = oracle_empty(names, contents)
    used = [name for name in names if sum(contents[name].values()) > 0.0]
    assert plate.empty_wells == empty
    assert plate.used_wells == used
    assert plate.remaining_capacity == len(empty)
    assert plate.is_full == (not empty)
    count = int(rng.integers(1, len(names) + 2))
    if count <= len(empty):
        assert plate.next_empty_wells(count) == empty[:count]
    else:
        with pytest.raises(LabwareError) as info:
            plate.next_empty_wells(count)
        assert str(info.value) == (
            f"plate {plate.barcode}: requested {count} empty wells, only {len(empty)} remain"
        )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_occupancy_matches_brute_force(seed, shape):
    rows, cols = shape
    rng = np.random.default_rng(seed)
    plate = Plate(barcode=f"prop-{seed}", rows=rows, cols=cols, well_capacity_ul=100.0)
    names = well_names(rows, cols)
    contents = {name: {} for name in names}
    check_queries(plate, names, contents, rng)
    for _ in range(6 * len(names)):
        name = names[int(rng.integers(len(names)))]
        op = rng.random()
        if op < 0.6:
            liquid = LIQUIDS[int(rng.integers(len(LIQUIDS)))]
            volume = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 60.0))
            before = sum(contents[name].values())
            if before + volume > 100.0 + 1e-9:
                with pytest.raises(LabwareError) as info:
                    plate.well(name).add(liquid, volume)
                assert str(info.value) == (
                    f"well {name}: adding {volume:.1f} µl would exceed capacity "
                    f"({before:.1f}/100.0 µl)"
                )
            else:
                plate.well(name).add(liquid, volume)
                contents[name][liquid] = contents[name].get(liquid, 0.0) + volume
        elif op < 0.85:
            plate.well(name).empty()
            contents[name].clear()
        else:
            check_queries(plate, names, contents, rng)
        assert plate.well(name).contents == contents[name]
    check_queries(plate, names, contents, rng)


def test_unknown_well_error_is_unchanged():
    plate = Plate(barcode="keys", rows=2, cols=3)
    for name in ("Z99", "C1", "A4", ""):
        with pytest.raises(KeyError) as info:
            plate.well(name)
        assert info.value.args[0] == f"plate keys: no well named {name!r}"


def test_fresh_plate_creates_no_wells():
    plate = Plate(barcode="lazy")
    assert plate.remaining_capacity == 96
    assert plate.next_empty_wells(2) == ["A1", "A2"]
    assert plate.wells == {}
    plate.well("B3").add("cyan", 0.0)
    assert list(plate.wells) == ["B3"]
    assert plate.remaining_capacity == 96
