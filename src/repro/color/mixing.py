"""Forward models of dye mixing.

The physical experiment dispenses volumes of cyan, magenta, yellow and black
dye into a well and the camera observes the resulting colour.  This module
provides the simulated replacement: a subtractive (Beer-Lambert-style) mixing
model that maps dye volumes to an sRGB colour.  The solvers treat the model as
a black box, exactly as the paper treats the physical chemistry (Section 2.5),
so any smooth non-linear map with the right dimensionality preserves the
optimisation problem; the Beer-Lambert form additionally gives physically
plausible colours for rendering plate images.

The model is deterministic; measurement noise is added separately by the
camera module so that repeated imaging of the same well gives slightly
different readings, as it would in the lab.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["DyeSet", "MixingModel", "SubtractiveMixingModel"]


@dataclass(frozen=True)
class DyeSet:
    """The set of component dyes available to the liquid handler.

    Each dye is described by its transmittance per unit relative
    concentration in the three sRGB channels: a value of 1.0 means the dye
    does not absorb that channel at all, a value near 0 means it absorbs the
    channel almost completely even at modest concentration.
    """

    names: Tuple[str, ...]
    transmittance: np.ndarray  # shape (n_dyes, 3), values in (0, 1]

    def __post_init__(self):
        trans = np.asarray(self.transmittance, dtype=np.float64)
        if trans.ndim != 2 or trans.shape[1] != 3:
            raise ValueError(f"transmittance must have shape (n_dyes, 3), got {trans.shape}")
        if len(self.names) != trans.shape[0]:
            raise ValueError(
                f"{len(self.names)} dye names but {trans.shape[0]} transmittance rows"
            )
        if np.any(trans <= 0.0) or np.any(trans > 1.0):
            raise ValueError("transmittance values must be in (0, 1]")
        object.__setattr__(self, "transmittance", trans)

    @property
    def n_dyes(self) -> int:
        """Number of component dyes."""
        return len(self.names)

    def index(self, name: str) -> int:
        """Return the position of dye ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown dye {name!r}; have {self.names}") from None

    @classmethod
    def cmyk(cls) -> "DyeSet":
        """The default cyan / magenta / yellow / black dye set used by the paper."""
        return cls(
            names=("cyan", "magenta", "yellow", "black"),
            transmittance=np.array(
                [
                    # R     G     B
                    [0.10, 0.75, 0.95],  # cyan absorbs red
                    [0.85, 0.12, 0.70],  # magenta absorbs green
                    [0.95, 0.85, 0.10],  # yellow absorbs blue
                    [0.22, 0.22, 0.22],  # black absorbs everything
                ]
            ),
        )

    @classmethod
    def cmy(cls) -> "DyeSet":
        """A three-dye variant (no black) for lower-dimensional experiments."""
        full = cls.cmyk()
        return cls(names=full.names[:3], transmittance=full.transmittance[:3])


class MixingModel:
    """Interface for forward models mapping dye volumes to observed colour."""

    @property
    def dyes(self) -> DyeSet:
        """The dye set this model mixes."""
        raise NotImplementedError

    def mix(self, volumes) -> np.ndarray:
        """Map dye volumes (µl) to an sRGB colour.

        ``volumes`` is either a single composition ``(n_dyes,)`` or a batch
        ``(n, n_dyes)``; the result has shape ``(3,)`` or ``(n, 3)``.
        """
        raise NotImplementedError


@dataclass
class SubtractiveMixingModel(MixingModel):
    """Beer-Lambert-style subtractive mixing of the dye set in a well.

    The observed colour is ``white * prod_i T_i ** (strength * c_i)`` where
    ``c_i`` is the volume fraction of dye ``i`` in the well (relative to
    ``well_volume``) and ``T_i`` is the per-channel transmittance of the dye.
    Dye volumes beyond the well capacity saturate (the well overflows in the
    physical system; the simulated liquid handler refuses to dispense more
    than the capacity, but the model itself stays defined for robustness).

    Parameters
    ----------
    dye_set:
        The component dyes.  Defaults to the CMYK set used by the paper.
    well_volume:
        Reference liquid volume of a full well in µl (275 µl for the
        Corning-style 96-well plates used on the RPL workcell).
    strength:
        Absorbance scaling: how strongly a full well of a single dye absorbs.
    white_point:
        The sRGB colour observed for a well of pure diluent (paper plates are
        backlit by a ring light; slightly below pure white).
    """

    dye_set: DyeSet = field(default_factory=DyeSet.cmyk)
    well_volume: float = 275.0
    strength: float = 2.2
    white_point: Tuple[float, float, float] = (250.0, 250.0, 248.0)

    def __post_init__(self):
        check_positive("well_volume", self.well_volume)
        check_positive("strength", self.strength)
        self._white = np.asarray(self.white_point, dtype=np.float64)
        if self._white.shape != (3,):
            raise ValueError("white_point must be a 3-vector")

    @property
    def dyes(self) -> DyeSet:
        return self.dye_set

    @property
    def n_dyes(self) -> int:
        """Number of component dyes accepted by :meth:`mix`."""
        return self.dye_set.n_dyes

    def mix(self, volumes) -> np.ndarray:
        vols = np.asarray(volumes, dtype=np.float64)
        squeeze = vols.ndim == 1
        vols = np.atleast_2d(vols)
        if vols.shape[-1] != self.dye_set.n_dyes:
            raise ValueError(
                f"expected {self.dye_set.n_dyes} dye volumes, got shape {vols.shape}"
            )
        if np.any(vols < 0):
            raise ValueError("dye volumes must be non-negative")
        fractions = np.clip(vols / self.well_volume, 0.0, 1.0)
        # Optical density adds linearly; transmittance multiplies.
        log_trans = np.log(self.dye_set.transmittance)  # (n_dyes, 3)
        total_log = self.strength * fractions @ log_trans  # (n, 3)
        rgb = self._white * np.exp(total_log)
        rgb = np.clip(rgb, 0.0, 255.0)
        return rgb[0] if squeeze else rgb

    def invert(self, target_rgb, total_volume: Optional[float] = None) -> np.ndarray:
        """Find dye volumes whose mixed colour best matches ``target_rgb``.

        This is the analytic solution the paper notes is possible "given
        accurate models of how colors combine" (Section 2.5).  It is used only
        by the oracle baseline in the solver-comparison benchmark; the real
        solvers never see the model.
        """
        from scipy import optimize

        target = np.asarray(target_rgb, dtype=np.float64)
        if total_volume is None:
            total_volume = self.well_volume
        n = self.dye_set.n_dyes

        def residual(x):
            volumes = np.clip(x, 0.0, total_volume)
            return self.mix(volumes) - target

        best = None
        best_cost = np.inf
        for start_scale in (0.1, 0.3, 0.6):
            x0 = np.full(n, total_volume * start_scale / n)
            result = optimize.least_squares(
                residual, x0, bounds=(np.zeros(n), np.full(n, total_volume))
            )
            if result.cost < best_cost:
                best_cost = result.cost
                best = result.x
        return np.clip(best, 0.0, total_volume)

    def describe(self) -> Dict[str, object]:
        """Return a JSON-serialisable description (stored in run records)."""
        return {
            "model": "subtractive",
            "dyes": list(self.dye_set.names),
            "well_volume_ul": self.well_volume,
            "strength": self.strength,
            "white_point": [float(v) for v in self._white],
        }
