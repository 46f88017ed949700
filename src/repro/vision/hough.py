"""Circular Hough transform.

The paper refines the plate location by detecting the circular wells with
OpenCV's HoughCircles (Section 2.4).  This module implements the same idea on
numpy/scipy: edge pixels vote for circle centres at each candidate radius, and
local maxima of the accumulator above a vote threshold become detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.vision.fiducial import grayscale

__all__ = ["CircleDetection", "hough_circles"]

#: Gaussian smoothing of the vote accumulator, and the kernel radius in
#: pixels that ``ndimage.gaussian_filter`` derives from them.
_SMOOTH_SIGMA = 1.5
_SMOOTH_TRUNCATE = 4.0
_SMOOTH_RADIUS = int(_SMOOTH_TRUNCATE * _SMOOTH_SIGMA + 0.5)


@dataclass(frozen=True)
class CircleDetection:
    """One detected circle."""

    x: float
    y: float
    radius: float
    votes: float

    def center(self) -> Tuple[float, float]:
        """The (x, y) centre of the circle."""
        return (self.x, self.y)


def _edge_map(gray: np.ndarray, threshold: float):
    """Edge pixels and their unit gradient directions from Sobel filtering.

    Returns ``(edges, ys, xs, unit_gx, unit_gy)``: the binary edge map, the
    edge pixels' coordinates in ``np.nonzero`` order, and the unit gradient
    at each of them.  The gradients are normalised only at edge pixels,
    the only place they are read.
    """
    from scipy import ndimage

    gx = ndimage.sobel(gray, axis=1, mode="nearest")
    gy = ndimage.sobel(gray, axis=0, mode="nearest")
    magnitude = np.hypot(gx, gy)
    peak = magnitude.max()
    edges = magnitude >= threshold * peak if peak > 0 else np.zeros_like(gray, dtype=bool)
    ys, xs = np.nonzero(edges)
    edge_magnitude = magnitude[ys, xs]
    safe = np.where(edge_magnitude > 0, edge_magnitude, 1.0)
    return edges, ys, xs, gx[ys, xs] / safe, gy[ys, xs] / safe


def _dilate(edges: np.ndarray) -> np.ndarray:
    """One-pixel dilation with the 4-connected cross, outside the map False
    (``ndimage.binary_dilation(edges, iterations=1)``)."""
    grown = edges.copy()
    grown[1:] |= edges[:-1]
    grown[:-1] |= edges[1:]
    grown[:, 1:] |= edges[:, :-1]
    grown[:, :-1] |= edges[:, 1:]
    return grown


def _vote_peaks(counts: np.ndarray, threshold: float, size: int):
    """Peaks of the smoothed vote accumulator: ``(ys, xs, values)``, row-major.

    The same pixels and values as smoothing the whole accumulator and taking
    its local maxima that reach ``threshold``::

        smoothed = ndimage.gaussian_filter(counts.astype(float), _SMOOTH_SIGMA)
        peaks = (smoothed == ndimage.maximum_filter(smoothed, size=size)) & (
            smoothed >= threshold
        )

    but computed on two boxes only.  The kernel's weights are positive and sum
    to one, so a smoothed pixel never exceeds the largest count within
    ``_SMOOTH_RADIUS`` of it (the margin of ``1e-9`` covers the rounding of
    the weights): only the box around the counts that reach the threshold,
    grown by that radius, can reach it.  The filter runs on that box grown by
    the radius once more, so every pixel of the inner box is computed from
    the same inputs, in the same order, as in the whole-accumulator filter.
    The maximum filter then runs on the bounding box of the pixels that reach
    the threshold: a pixel outside it is below every candidate, and the
    filter's ``reflect`` border only repeats pixels already in the window.
    """
    from scipy import ndimage

    ys, xs = np.nonzero(counts >= threshold * (1.0 - 1e-9))
    if ys.size == 0:
        return ys, xs, np.zeros(0)
    height, width = counts.shape
    r = _SMOOTH_RADIUS
    y0, y1 = max(ys.min() - r, 0), min(ys.max() + 1 + r, height)
    x0, x1 = max(xs.min() - r, 0), min(xs.max() + 1 + r, width)
    oy, ox = max(y0 - r, 0), max(x0 - r, 0)
    smoothed = ndimage.gaussian_filter(
        counts[oy : min(y1 + r, height), ox : min(x1 + r, width)].astype(np.float64),
        sigma=_SMOOTH_SIGMA,
        truncate=_SMOOTH_TRUNCATE,
    )[y0 - oy : y1 - oy, x0 - ox : x1 - ox]

    ys, xs = np.nonzero(smoothed >= threshold)
    if ys.size == 0:
        return ys, xs, np.zeros(0)
    by, bx = ys.min(), xs.min()
    box = smoothed[by : ys.max() + 1, bx : xs.max() + 1]
    keep = (box == ndimage.maximum_filter(box, size=size))[ys - by, xs - bx]
    ys, xs = ys[keep], xs[keep]
    return ys + y0, xs + x0, smoothed[ys, xs]


def hough_circles(
    image: np.ndarray,
    radii: Sequence[float],
    *,
    edge_threshold: float = 0.25,
    vote_threshold: float = 0.45,
    min_distance: float = 18.0,
    min_support: float = 0.6,
    max_circles: Optional[int] = None,
    roi: Optional[Tuple[int, int, int, int]] = None,
) -> List[CircleDetection]:
    """Detect circles with radii in ``radii``.

    Parameters
    ----------
    image:
        sRGB ``(H, W, 3)`` or grayscale ``(H, W)`` frame.
    radii:
        Candidate radii in pixels (a handful is enough for well detection
        because the well size is known from the plate geometry).
    edge_threshold:
        Fraction of the maximum gradient magnitude above which a pixel is an
        edge pixel.
    vote_threshold:
        Fraction of the theoretical maximum votes (the number of perimeter
        samples) a centre must collect to count as a detection.
    min_distance:
        Minimum separation between reported centres (non-maximum suppression).
    min_support:
        Minimum fraction of the circle perimeter that must lie on edge pixels;
        filters the ridge artifacts that straight edges (the plate border)
        produce in the accumulator.
    max_circles:
        Optional cap on the number of detections (highest votes first).
    roi:
        Optional ``(x0, y0, x1, y1)`` region of interest; votes are only
        accumulated there (the paper restricts the search to the approximate
        plate area found from the fiducial marker).  A region that lies
        entirely off the frame yields no detections.

    Returns
    -------
    Detections sorted by decreasing vote count.
    """
    height, width = image.shape[:2]
    x0, y0, x1, y1 = roi if roi is not None else (0, 0, width, height)
    x0, y0 = max(int(x0), 0), max(int(y0), 0)
    x1, y1 = min(int(x1), width), min(int(y1), height)
    if x1 <= x0 or y1 <= y0:
        # The region lies off the frame (e.g. one implied by a marker found
        # in a corner): nothing to search.
        return []
    # Converting only the region gives the same pixels: the conversion is per pixel.
    sub = grayscale(image[y0:y1, x0:x1])

    edges, edge_ys, edge_xs, unit_gx, unit_gy = _edge_map(sub, edge_threshold)
    if edge_ys.size == 0:
        return []

    n_angles = 48
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    cos_a, sin_a = np.cos(angles), np.sin(angles)

    sub_height, sub_width = sub.shape
    # Dilated edge map used for the perimeter-support check (1 px tolerance).
    edge_lookup = _dilate(edges)
    found_xs, found_ys, found_radii, found_votes = [], [], [], []

    # Gradient-direction voting (the OpenCV "Hough gradient" method): each
    # edge pixel votes only at +/- radius along its gradient, so the votes of
    # a circle's edge concentrate at its centre while straight edges and
    # interstitial geometry contribute almost nothing anywhere.
    for radius in radii:
        votes = []
        for sign in (1.0, -1.0):
            center_xs = np.rint(edge_xs + sign * radius * unit_gx).astype(int)
            center_ys = np.rint(edge_ys + sign * radius * unit_gy).astype(int)
            valid = (
                (center_xs >= 0)
                & (center_xs < sub_width)
                & (center_ys >= 0)
                & (center_ys < sub_height)
            )
            votes.append(center_ys[valid] * sub_width + center_xs[valid])
        # A fully-supported circle contributes roughly its perimeter length in
        # votes, concentrated by the smoothing kernel.
        perimeter = 2.0 * np.pi * radius
        threshold = vote_threshold * perimeter / (2.0 * np.pi * _SMOOTH_SIGMA**2)
        counts = np.bincount(np.concatenate(votes), minlength=sub_height * sub_width)
        # Smooth so votes spread over adjacent pixels reinforce each other.
        ys, xs, peak_votes = _vote_peaks(
            counts.reshape(sub_height, sub_width), threshold, int(max(min_distance, 3))
        )
        if ys.size == 0:
            continue

        # Perimeter support: the fraction of perimeter samples on (dilated)
        # edge pixels.  Straight edges (the plate border) produce Hough ridges
        # whose candidate centres only have edge support over a narrow
        # angular range; genuine wells are supported around most of the
        # circle.  This is the same idea as the gradient-consistency check in
        # OpenCV's HoughCircles.
        ring_xs = np.rint(xs[:, None] + radius * cos_a).astype(int)
        ring_ys = np.rint(ys[:, None] + radius * sin_a).astype(int)
        inside = (ring_xs >= 0) & (ring_xs < sub_width) & (ring_ys >= 0) & (ring_ys < sub_height)
        on_edge = edge_lookup[ring_ys.clip(0, sub_height - 1), ring_xs.clip(0, sub_width - 1)]
        support = (on_edge & inside).sum(axis=1) / float(n_angles)
        supported = support >= min_support
        found_xs.append(xs[supported] + x0)
        found_ys.append(ys[supported] + y0)
        found_radii.append(np.full(int(supported.sum()), float(radius)))
        found_votes.append(peak_votes[supported] * support[supported])

    if not found_votes:
        return []
    # Cross-radius non-maximum suppression, strongest first (ties keep their
    # radius-then-row-major order).  Centres are whole pixels, so the squared
    # distances are exact.
    order = np.argsort(-np.concatenate(found_votes), kind="stable")
    cand_xs = np.concatenate(found_xs)[order].astype(np.float64)
    cand_ys = np.concatenate(found_ys)[order].astype(np.float64)
    cand_radii = np.concatenate(found_radii)[order]
    cand_votes = np.concatenate(found_votes)[order]
    min_distance_sq = min_distance**2
    suppressed = np.zeros(order.size, dtype=bool)
    kept: List[CircleDetection] = []
    for index in range(order.size):
        if suppressed[index]:
            continue
        kept.append(
            CircleDetection(
                x=float(cand_xs[index]),
                y=float(cand_ys[index]),
                radius=float(cand_radii[index]),
                votes=float(cand_votes[index]),
            )
        )
        if max_circles is not None and len(kept) >= max_circles:
            break
        rest = slice(index + 1, None)
        suppressed[rest] |= (
            (cand_xs[rest] - cand_xs[index]) ** 2 + (cand_ys[rest] - cand_ys[index]) ** 2
            < min_distance_sq
        )
    return kept
