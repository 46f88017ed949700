"""Synthetic camera frames of a microplate.

This module stands in for the physical webcam: given the simulated plate state
(which dyes are in which wells) and the chemistry model, it renders an sRGB
image containing

* a dark background (the camera's plate mount),
* a square fiducial marker at a fixed offset from the plate (the paper uses an
  ArUco marker at a known distance),
* the plate body with its 96 circular wells, each filled with the colour the
  mixing model predicts for its contents,
* realistic nuisances: small random translation/rotation of the plate (camera
  or mount shift), vignetting-style illumination gradient, and pixel noise.

The renderer also exposes the ground-truth pixel centre of every well so the
vision pipeline's accuracy can be measured directly in tests and benchmarks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.color.mixing import MixingModel
from repro.hardware.labware import Plate
from repro.utils.rng import ensure_rng
from repro.vision.fiducial import draw_fiducial

__all__ = ["PlateImageConfig", "render_plate_image", "well_pixel_centers"]

# Per-config render caches.  The illumination gradient, the pixel coordinate
# axes and the pixel-noise bank depend only on the frame geometry and noise
# level, so they are built once per process, on the first render that needs
# them, and reused across frames -- rendering is the dominant cost of a
# simulated campaign.  Cached arrays are marked read-only so a stray in-place
# op cannot corrupt later frames.
_RENDER_CACHE: Dict[tuple, tuple] = {}
_RENDER_CACHE_LOCK = threading.Lock()  # lock:render-cache
#: Seed of every noise bank: a constant, so each process builds the same bank.
_NOISE_BANK_SEED = 20230816
#: Bank values beyond one frame: a frame's noise starts at one of this many + 1 offsets.
_NOISE_BANK_SPARE = 2**16


def _noise_bank(size: int, sigma: float) -> np.ndarray:
    """``size + _NOISE_BANK_SPARE`` read-only N(0, sigma^2) float32 values (half
    of float64's memory; a frame adds them to its float64 pixels in place)."""
    bank = np.random.default_rng(_NOISE_BANK_SEED).standard_normal(size + _NOISE_BANK_SPARE, dtype=np.float32)
    bank *= np.float32(sigma)
    bank.setflags(write=False)
    return bank


def _frame_constants(config: PlateImageConfig):
    """Cached ``(ys, xs, gradient, noise)`` for a camera config.

    ``ys``/``xs`` are the integer pixel axes (bit-identical, broadcast, to the
    old full-frame ``np.mgrid``); ``gradient`` is the ``(H, W, 1)``
    illumination field and ``noise`` the pixel-noise bank, each None when its
    strength is zero.
    """
    height, width = config.image_height, config.image_width
    strength, sigma = config.illumination_gradient, config.pixel_noise_sigma
    key = (height, width, strength, sigma)
    cached = _RENDER_CACHE.get(key)
    if cached is not None:
        return cached
    with _RENDER_CACHE_LOCK:
        if key in _RENDER_CACHE:
            return _RENDER_CACHE[key]
        ys, xs = np.arange(height), np.arange(width)
        if strength > 0:
            gx = np.abs(xs - width / 2) / (width / 2) * 0.5
            gy = np.abs(ys - height / 2) / (height / 2) * 0.5
            gradient = (1.0 - strength * (gx[None, :] + gy[:, None]))[..., None]
            gradient.setflags(write=False)
        else:
            gradient = None
        ys.setflags(write=False)
        xs.setflags(write=False)
        noise = _noise_bank(height * width * 3, sigma) if sigma > 0 else None
        _RENDER_CACHE[key] = (ys, xs, gradient, noise)
        return _RENDER_CACHE[key]


@dataclass(frozen=True)
class PlateImageConfig:
    """Geometry and noise parameters of the synthetic camera.

    All lengths are in pixels.  The defaults produce a 480x640 frame with a
    12x8 well grid at a 34-pixel pitch, comfortably resolvable by the Hough
    detector, and nuisance magnitudes similar to a fixed webcam with a ring
    light.
    """

    image_height: int = 480
    image_width: int = 640
    well_pitch: float = 34.0
    well_radius: float = 13.0
    plate_margin: float = 26.0
    plate_origin: Tuple[float, float] = (150.0, 130.0)  # (x, y) of well A1 nominal centre
    fiducial_size: int = 48
    fiducial_offset: Tuple[float, float] = (-110.0, -20.0)  # relative to plate origin
    background_rgb: Tuple[float, float, float] = (38.0, 40.0, 44.0)
    plate_body_rgb: Tuple[float, float, float] = (228.0, 228.0, 230.0)
    empty_well_rgb: Tuple[float, float, float] = (210.0, 212.0, 214.0)
    jitter_px: float = 3.0
    rotation_deg_sigma: float = 0.6
    illumination_gradient: float = 0.06
    pixel_noise_sigma: float = 2.0

    def nominal_center(self, row: int, col: int) -> Tuple[float, float]:
        """Nominal (x, y) pixel centre of the well at 0-based ``row``/``col``."""
        x0, y0 = self.plate_origin
        return (x0 + col * self.well_pitch, y0 + row * self.well_pitch)


def _transform_points(points: np.ndarray, offset: np.ndarray, angle_rad: float, pivot: np.ndarray) -> np.ndarray:
    """Rotate ``points`` about ``pivot`` and translate by ``offset``."""
    cos_a, sin_a = np.cos(angle_rad), np.sin(angle_rad)
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    return (points - pivot) @ rotation.T + pivot + offset


def well_pixel_centers(
    plate: Plate,
    config: Optional[PlateImageConfig] = None,
    offset: Tuple[float, float] = (0.0, 0.0),
    rotation_deg: float = 0.0,
) -> Dict[str, Tuple[float, float]]:
    """Ground-truth pixel centre of every well after the given plate pose."""
    config = config if config is not None else PlateImageConfig()
    names = []
    nominal = []
    for name, row, col in plate.well_grid_positions():
        names.append(name)
        nominal.append(config.nominal_center(row, col))
    nominal_arr = np.asarray(nominal, dtype=np.float64)
    pivot = nominal_arr.mean(axis=0)
    moved = _transform_points(
        nominal_arr, np.asarray(offset, dtype=np.float64), np.radians(rotation_deg), pivot
    )
    return {name: (float(x), float(y)) for name, (x, y) in zip(names, moved)}


def render_plate_image(
    plate: Plate,
    chemistry: MixingModel,
    *,
    config: Optional[PlateImageConfig] = None,
    rng=None,
    return_truth: bool = False,
):
    """Render a synthetic sRGB frame of ``plate``.

    Parameters
    ----------
    plate:
        The simulated plate whose wells will be drawn.
    chemistry:
        Mixing model mapping each well's dye volumes to its true colour.
    config:
        Camera geometry/noise configuration.
    rng:
        Random source for the pose jitter and pixel noise.
    return_truth:
        When True, also return a dict with the sampled pose and the
        ground-truth well centres/colours (used by tests and the vision
        benchmark).

    Returns
    -------
    image:
        ``(H, W, 3)`` float64 array of sRGB values in [0, 255].
    truth (optional):
        ``{"offset", "rotation_deg", "centers", "colors"}``.
    """
    config = config if config is not None else PlateImageConfig()
    rng = ensure_rng(rng)

    height, width = config.image_height, config.image_width
    image = np.empty((height, width, 3), dtype=np.float64)
    image[:] = np.asarray(config.background_rgb)

    # Sample the plate pose for this frame.
    offset = rng.normal(0.0, config.jitter_px, size=2) if config.jitter_px > 0 else np.zeros(2)
    rotation_deg = rng.normal(0.0, config.rotation_deg_sigma) if config.rotation_deg_sigma > 0 else 0.0

    centers = well_pixel_centers(plate, config, offset=tuple(offset), rotation_deg=rotation_deg)

    # Plate body: bounding box of the (transformed) wells plus a margin.
    center_arr = np.asarray(list(centers.values()))
    min_xy = center_arr.min(axis=0) - config.plate_margin
    max_xy = center_arr.max(axis=0) + config.plate_margin
    x0, y0 = np.clip(min_xy.astype(int), 0, [width - 1, height - 1])
    x1, y1 = np.clip(np.ceil(max_xy).astype(int), 0, [width - 1, height - 1])
    image[y0 : y1 + 1, x0 : x1 + 1] = np.asarray(config.plate_body_rgb)

    # Fiducial marker (drawn relative to the *nominal* plate origin plus the
    # same translation: the marker is attached to the plate mount).
    marker_center = (
        config.plate_origin[0] + config.fiducial_offset[0] + offset[0],
        config.plate_origin[1] + config.fiducial_offset[1] + offset[1],
    )
    draw_fiducial(image, center=marker_center, size=config.fiducial_size)

    # Wells.  Patch coordinates come from cached 1-D axes broadcast together
    # -- same integers, same arithmetic as the old full-frame np.mgrid.
    ys, xs, gradient, noise = _frame_constants(config)
    dye_names = chemistry.dyes.names
    colors: Dict[str, np.ndarray] = {}
    r = config.well_radius
    r_sq = r**2
    for name, (cx, cy) in centers.items():
        well = plate.well(name)
        if well.is_empty:
            color = np.asarray(config.empty_well_rgb, dtype=np.float64)
        else:
            color = chemistry.mix(well.dye_volumes(dye_names))
        colors[name] = color
        # Only rasterise a small patch around the well for speed.
        px0, px1 = int(max(cx - r - 2, 0)), int(min(cx + r + 3, width))
        py0, py1 = int(max(cy - r - 2, 0)), int(min(cy + r + 3, height))
        mask = (xs[px0:px1][None, :] - cx) ** 2 + (ys[py0:py1][:, None] - cy) ** 2 <= r_sq
        image[py0:py1, px0:px1][mask] = color

    # Illumination gradient (ring light is slightly off-centre).
    if gradient is not None:
        image *= gradient

    # Pixel noise: the bank slice at an offset drawn after the pose (a frame
    # stays a function of its rng; only frames drawing one offset share noise).
    if noise is not None:
        start = int(rng.integers(_NOISE_BANK_SPARE + 1))
        image += noise[start : start + image.size].reshape(image.shape)

    np.clip(image, 0.0, 255.0, out=image)

    if return_truth:
        truth = {
            "offset": (float(offset[0]), float(offset[1])),
            "rotation_deg": float(rotation_deg),
            "centers": centers,
            "colors": {name: color.copy() for name, color in colors.items()},
        }
        return image, truth
    return image
