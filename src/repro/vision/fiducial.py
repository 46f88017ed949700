"""Square fiducial markers (stand-in for ArUco).

The paper stations the plate at a known distance from an ArUco marker and uses
the marker's detected size and position to find the approximate pixel
boundaries of the plate (Section 2.4).  This module provides the simulated
equivalent: a high-contrast square marker with a black border and a white
interior pattern, drawn into rendered frames and detected by intensity
thresholding plus connected-component analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["generate_fiducial", "draw_fiducial", "detect_fiducial", "FiducialDetection", "grayscale"]

#: Interior pattern of the default marker (1 = white cell, 0 = black cell).
_DEFAULT_PATTERN = np.array(
    [
        [1, 0, 1, 0],
        [0, 1, 1, 0],
        [1, 1, 0, 1],
        [0, 0, 1, 1],
    ],
    dtype=np.uint8,
)


def grayscale(image: np.ndarray) -> np.ndarray:
    """Channel mean of an ``(H, W, 3)`` frame; 2-D input is returned as float64.

    For float64 frames the three channels are summed in the order
    ``image.mean(axis=-1)`` sums them, ``(r + g) + b``, then divided by 3, so
    the result is bit-identical at a fraction of the reduction's cost.
    """
    if image.ndim != 3:
        return np.asarray(image, dtype=np.float64)
    if image.dtype == np.float64 and image.shape[-1] == 3:
        return (image[..., 0] + image[..., 1] + image[..., 2]) / 3
    return image.mean(axis=-1)


def generate_fiducial(size: int = 48, pattern: Optional[np.ndarray] = None) -> np.ndarray:
    """Return a ``size x size`` grayscale marker image (0 = black, 255 = white).

    The marker has a one-cell black border around an interior pattern, like a
    4x4 ArUco tag.
    """
    if size < 12:
        raise ValueError(f"marker size must be >= 12 pixels, got {size}")
    pattern = _DEFAULT_PATTERN if pattern is None else np.asarray(pattern, dtype=np.uint8)
    cells = pattern.shape[0] + 2  # interior plus a black border cell on each side
    grid = np.zeros((cells, cells), dtype=np.float64)
    grid[1:-1, 1:-1] = pattern * 255.0
    # Nearest-neighbour upsample to the requested pixel size.
    indices = (np.arange(size) * cells // size).clip(0, cells - 1)
    return grid[np.ix_(indices, indices)]


def draw_fiducial(image: np.ndarray, center: Tuple[float, float], size: int = 48) -> None:
    """Draw the marker (on a white backing patch) into ``image`` in place."""
    marker = generate_fiducial(size)
    cx, cy = center
    half = size // 2
    pad = max(size // 8, 3)
    height, width = image.shape[:2]
    y0, y1 = int(cy - half - pad), int(cy + half + pad)
    x0, x1 = int(cx - half - pad), int(cx + half + pad)
    y0c, y1c = max(y0, 0), min(y1, height)
    x0c, x1c = max(x0, 0), min(x1, width)
    image[y0c:y1c, x0c:x1c] = 255.0  # white backing so the black border has contrast
    my0, mx0 = int(cy - half), int(cx - half)
    my0c, mx0c = max(my0, 0), max(mx0, 0)
    my1c, mx1c = min(my0 + size, height), min(mx0 + size, width)
    image[my0c:my1c, mx0c:mx1c] = marker[
        my0c - my0 : my1c - my0, mx0c - mx0 : mx1c - mx0, None
    ]


@dataclass(frozen=True)
class FiducialDetection:
    """Result of locating the fiducial marker in a frame."""

    center: Tuple[float, float]
    size: float
    bbox: Tuple[int, int, int, int]  # (x0, y0, x1, y1) inclusive-exclusive

    @property
    def found(self) -> bool:
        """Whether a plausible marker was located."""
        return self.size > 0


def detect_fiducial(
    image: np.ndarray,
    *,
    dark_threshold: float = 90.0,
    min_size: int = 30,
    max_size: int = 160,
) -> FiducialDetection:
    """Locate the square marker in an sRGB or grayscale frame.

    The detector looks for the most square-like dark connected component whose
    bounding box falls within ``[min_size, max_size]`` pixels -- the marker's
    black border forms exactly such a component against its white backing.

    Returns a :class:`FiducialDetection` with ``size == 0`` when nothing
    plausible is found.
    """
    from scipy import ndimage

    dark = grayscale(image) < dark_threshold
    labels, count = ndimage.label(dark)
    if count == 0:
        return FiducialDetection(center=(0.0, 0.0), size=0.0, bbox=(0, 0, 0, 0))

    best: Optional[FiducialDetection] = None
    best_score = np.inf
    slices = ndimage.find_objects(labels)
    for index, slc in enumerate(slices, start=1):
        if slc is None:
            continue
        ys, xs = slc
        height = ys.stop - ys.start
        width = xs.stop - xs.start
        size = max(height, width)
        if size < min_size or size > max_size:
            continue
        aspect = max(height, width) / max(min(height, width), 1)
        if aspect > 1.4:
            continue
        component = labels[slc] == index
        fill = component.mean()
        # The marker border plus dark pattern cells fill roughly 40-80% of the
        # bounding box; solid blobs (plate shadows) fill ~100%.
        squareness_penalty = abs(aspect - 1.0)
        fill_penalty = abs(fill - 0.6)
        score = squareness_penalty + fill_penalty
        if score < best_score:
            best_score = score
            center = (
                float(xs.start + width / 2.0),
                float(ys.start + height / 2.0),
            )
            best = FiducialDetection(
                center=center,
                size=float(size),
                bbox=(int(xs.start), int(ys.start), int(xs.stop), int(ys.stop)),
            )
    if best is None:
        return FiducialDetection(center=(0.0, 0.0), size=0.0, bbox=(0, 0, 0, 0))
    return best
