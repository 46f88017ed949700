"""OT-2 protocol generation.

The application translates the solver's proposed dye ratios into the pipetting
protocol the OT-2 executes (the orange "Mix Colors" protocol box under the
``ot2.run_protocol`` action in the paper's Figure 2).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.hardware.ot2 import PipettingProtocol, ProtocolStep
from repro.utils.validation import check_positive

__all__ = ["ratios_to_volumes", "build_mix_protocol", "mix_protocol"]

#: Volumes smaller than this are not worth a pipetting operation and are
#: rounded down to zero (a real OT-2 cannot accurately dispense < 1 µl).
MIN_DISPENSE_UL = 1.0


def ratios_to_volumes(ratios, max_component_volume_ul: float) -> np.ndarray:
    """Convert ratio vectors in [0, 1] to per-dye volumes in µl.

    Each dye's volume is ``ratio * max_component_volume_ul``; volumes below
    the minimum dispensable quantity become exactly zero.
    """
    check_positive("max_component_volume_ul", max_component_volume_ul)
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    if np.any(ratios_arr < 0) or np.any(ratios_arr > 1):
        raise ValueError("ratios must be within [0, 1]")
    volumes = ratios_arr * float(max_component_volume_ul)
    volumes[volumes < MIN_DISPENSE_UL] = 0.0
    return volumes


def build_mix_protocol(
    name: str,
    wells: Sequence[str],
    ratios,
    dye_names: Sequence[str],
    max_component_volume_ul: float,
    mix_cycles: int = 3,
) -> PipettingProtocol:
    """Build the pipetting protocol for one batch of proposed colours.

    Parameters
    ----------
    name:
        Protocol name recorded in run logs (e.g. ``"mix_colors_batch_007"``).
    wells:
        Destination well names, one per proposed sample.
    ratios:
        ``(len(wells), len(dye_names))`` ratio array from the solver.
    dye_names:
        Names of the dyes, in the same order as the ratio columns.
    max_component_volume_ul:
        Scaling from ratios to volumes (per-dye maximum dispense).
    mix_cycles:
        Number of aspirate/dispense mixing cycles after dispensing.
    """
    volumes = ratios_to_volumes(np.atleast_2d(ratios), max_component_volume_ul)
    return mix_protocol(name, wells, volumes, dye_names, mix_cycles)


def mix_protocol(
    name: str,
    wells: Sequence[str],
    volumes: np.ndarray,
    dye_names: Sequence[str],
    mix_cycles: int = 3,
) -> PipettingProtocol:
    """The protocol of :func:`build_mix_protocol` from volumes already
    converted by :func:`ratios_to_volumes` (one µl row per well)."""
    if volumes.shape[0] != len(wells):
        raise ValueError(
            f"{len(wells)} destination wells but {volumes.shape[0]} ratio rows"
        )
    if volumes.shape[1] != len(dye_names):
        raise ValueError(
            f"{len(dye_names)} dyes but ratio rows have {volumes.shape[1]} components"
        )
    steps: List[ProtocolStep] = []
    for well, row in zip(wells, volumes):
        step_volumes: Dict[str, float] = {
            dye: float(volume) for dye, volume in zip(dye_names, row) if volume > 0.0
        }
        if not step_volumes:
            # An all-zero proposal would leave the well empty and unmeasurable;
            # dispense the minimum of the first dye so the sample exists.
            step_volumes = {dye_names[0]: MIN_DISPENSE_UL}
        steps.append(ProtocolStep(well=well, volumes_ul=step_volumes))
    return PipettingProtocol(name=name, steps=steps, mix_cycles=mix_cycles)
