"""Frozen pre-optimisation implementations of the benched hot paths.

Every ``BENCH_<area>.json`` records a speedup "over the pre-PR baseline
*recorded in the same file*": the bench does not trust numbers measured on
some other machine at some other time, it re-runs the old implementation
side by side with the optimised one in the same process.  This module is
that old implementation -- verbatim copies of the hot paths as they stood
before the optimisation pass (see ``docs/performance.md``), kept importable
so both the bench and the equivalence property tests
(``tests/properties/test_codec_equivalence.py``) can diff the two.

Nothing here is wired into the application; editing these to "win" a
benchmark defeats the point of having them.
"""

from __future__ import annotations

import heapq
import itertools
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg, ndimage

from repro.hardware.labware import well_names
from repro.sim.clock import Clock, SimClock
from repro.vision.extraction import ExtractionResult
from repro.vision.fiducial import detect_fiducial
from repro.vision.grid import complete_grid, fit_well_grid
from repro.vision.hough import CircleDetection
from repro.wei.drivers.protocol import (
    _BODY_PREFIX,
    _CODE_KINDS,
    _KIND_CODES,
    MAGIC,
    MAX_BODY_BYTES,
    Frame,
    FrameError,
)

__all__ = [
    "ReferenceEvent",
    "ReferenceEventScheduler",
    "reference_encode_frame",
    "ReferenceFrameDecoder",
    "reference_sample_colors",
    "reference_hough_circles",
    "reference_extract",
    "reference_gp_predict",
    "reference_campaign_fingerprint",
    "reference_diff_fingerprints",
]


# ---------------------------------------------------------------------------
# Event scheduler (pre: @dataclass(order=True) heap entries, no lazy-deletion
# accounting, schedule_after via schedule_at)
# ---------------------------------------------------------------------------


@dataclass(order=True)
class ReferenceEvent:
    """The old ordered-dataclass heap entry."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceEventScheduler:
    """The old scheduler: Event objects on the heap, compared via dataclass
    ``order=True`` (which builds a tuple per comparison), cancelled entries
    never compacted, ``pending`` counting them."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._queue: List[ReferenceEvent] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def processed(self) -> int:
        return self._processed

    def next_time(self) -> Optional[float]:
        event = self._peek()
        return event.time if event is not None else None

    def schedule_at(self, timestamp: float, callback: Callable[[], None], label: str = "") -> ReferenceEvent:
        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past (now={self.clock.now()}, requested={timestamp})"
            )
        event = ReferenceEvent(
            time=float(timestamp), sequence=next(self._counter), callback=callback, label=label
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay_s: float, callback: Callable[[], None], label: str = "") -> ReferenceEvent:
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        return self.schedule_at(self.clock.now() + delay_s, callback, label)

    def step(self) -> Optional[ReferenceEvent]:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            self._processed += 1
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                break
            if self.step() is not None:
                executed += 1
        if until is not None and self.clock.now() < until and not self._queue:
            self.clock.advance_to(until)
        return executed

    def _peek(self) -> Optional[ReferenceEvent]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None


# ---------------------------------------------------------------------------
# Frame codec (pre: per-frame json.dumps with kwargs, body concatenation and
# whole-body CRC on a fresh bytes object; decoder re-slicing the buffer and
# re-scanning from offset 0 after every frame/resync)
# ---------------------------------------------------------------------------


def reference_encode_frame(frame: Frame) -> bytes:
    """The old ``encode_frame``: concatenating encode, byte-identical output."""
    payload = json.dumps(frame.payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = _BODY_PREFIX.pack(_KIND_CODES[frame.kind], frame.seq) + payload
    if len(body) > MAX_BODY_BYTES:
        raise FrameError(f"frame body too large: {len(body)} bytes")
    return MAGIC + len(body).to_bytes(4, "big") + body + zlib.crc32(body).to_bytes(4, "big")


class ReferenceFrameDecoder:
    """The old ``FrameDecoder``: slice-copying, offset-0 rescanning."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.crc_errors = 0
        self.frames_decoded = 0

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            start = self._buffer.find(MAGIC)
            if start < 0:
                del self._buffer[: max(0, len(self._buffer) - 1)]
                return frames
            if start:
                del self._buffer[:start]
            if len(self._buffer) < 6:
                return frames
            body_len = int.from_bytes(self._buffer[2:6], "big")
            if body_len > MAX_BODY_BYTES:
                self.crc_errors += 1
                del self._buffer[:1]
                continue
            end = 6 + body_len + 4
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[6 : 6 + body_len])
            crc = int.from_bytes(self._buffer[6 + body_len : end], "big")
            if zlib.crc32(body) != crc:
                self.crc_errors += 1
                del self._buffer[:1]
                continue
            del self._buffer[:end]
            try:
                kind_code, seq = _BODY_PREFIX.unpack_from(body)
                payload = json.loads(body[_BODY_PREFIX.size :].decode("utf-8"))
                frame = Frame(kind=_CODE_KINDS[kind_code], seq=seq, payload=payload)
            except (KeyError, ValueError, struct.error):
                self.crc_errors += 1
                continue
            self.frames_decoded += 1
            frames.append(frame)


# ---------------------------------------------------------------------------
# Vision well scoring (pre: one np.mgrid per well)
# ---------------------------------------------------------------------------


def reference_sample_colors(
    extractor, image: np.ndarray, centers: Dict[str, Tuple[float, float]]
) -> Dict[str, np.ndarray]:
    """The old scoring loop: ``sample_color`` (with its per-well ``np.mgrid``)
    called once per well."""
    height, width = image.shape[:2]
    r = extractor.sample_radius
    colors: Dict[str, np.ndarray] = {}
    for name, (cx, cy) in centers.items():
        x0, x1 = int(max(cx - r, 0)), int(min(cx + r + 1, width))
        y0, y1 = int(max(cy - r, 0)), int(min(cy + r + 1, height))
        if x0 >= x1 or y0 >= y1:
            colors[name] = np.zeros(3)
            continue
        patch = image[y0:y1, x0:x1]
        yy, xx = np.mgrid[y0:y1, x0:x1]
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r**2
        if not mask.any():
            colors[name] = patch.reshape(-1, 3).mean(axis=0)
        else:
            colors[name] = patch[mask].mean(axis=0)
    return colors


# ---------------------------------------------------------------------------
# Frame extraction (pre: a full-frame grayscale per stage, unit gradients over
# the whole ROI, ``np.add.at`` voting, one ``_circle_support`` call per local
# maximum and a generator-based cross-radius suppression)
# ---------------------------------------------------------------------------


def _reference_edge_map(gray: np.ndarray, threshold: float):
    """The old ``_edge_map``: edges plus unit gradients over every pixel."""
    gx = ndimage.sobel(gray, axis=1, mode="nearest")
    gy = ndimage.sobel(gray, axis=0, mode="nearest")
    magnitude = np.hypot(gx, gy)
    if magnitude.max() <= 0:
        zeros = np.zeros_like(gray)
        return np.zeros_like(gray, dtype=bool), zeros, zeros
    edges = magnitude >= threshold * magnitude.max()
    safe = np.where(magnitude > 0, magnitude, 1.0)
    return edges, gx / safe, gy / safe


def _reference_circle_support(
    edge_lookup: np.ndarray,
    cx: float,
    cy: float,
    radius: float,
    cos_a: np.ndarray,
    sin_a: np.ndarray,
) -> float:
    """The old per-maximum perimeter-support check."""
    height, width = edge_lookup.shape
    xs = np.rint(cx + radius * cos_a).astype(int)
    ys = np.rint(cy + radius * sin_a).astype(int)
    valid = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
    if not valid.any():
        return 0.0
    hits = edge_lookup[ys[valid], xs[valid]].sum()
    return float(hits) / float(len(cos_a))


def reference_hough_circles(
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
    """The old ``hough_circles``.  It raises on an ROI that clips to an
    empty region, so callers compare it only on frames where it does not."""
    gray = image.mean(axis=-1) if image.ndim == 3 else np.asarray(image, dtype=np.float64)
    height, width = gray.shape

    if roi is not None:
        x0, y0, x1, y1 = roi
        x0, y0 = max(int(x0), 0), max(int(y0), 0)
        x1, y1 = min(int(x1), width), min(int(y1), height)
        sub = gray[y0:y1, x0:x1]
    else:
        x0 = y0 = 0
        sub = gray

    edges, unit_gx, unit_gy = _reference_edge_map(sub, edge_threshold)
    edge_ys, edge_xs = np.nonzero(edges)
    if edge_ys.size == 0:
        return []

    n_angles = 48
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    cos_a, sin_a = np.cos(angles), np.sin(angles)

    sub_height, sub_width = sub.shape
    detections: List[CircleDetection] = []
    edge_lookup = ndimage.binary_dilation(edges, iterations=1)
    pixel_gx = unit_gx[edge_ys, edge_xs]
    pixel_gy = unit_gy[edge_ys, edge_xs]

    for radius in radii:
        accumulator = np.zeros((sub_height, sub_width), dtype=np.float64)
        for sign in (1.0, -1.0):
            center_xs = np.rint(edge_xs + sign * radius * pixel_gx).astype(int)
            center_ys = np.rint(edge_ys + sign * radius * pixel_gy).astype(int)
            valid = (
                (center_xs >= 0)
                & (center_xs < sub_width)
                & (center_ys >= 0)
                & (center_ys < sub_height)
            )
            np.add.at(accumulator, (center_ys[valid], center_xs[valid]), 1.0)
        accumulator = ndimage.gaussian_filter(accumulator, sigma=1.5)

        perimeter = 2.0 * np.pi * radius
        threshold = vote_threshold * perimeter / (2.0 * np.pi * 1.5**2)
        maxima = (accumulator == ndimage.maximum_filter(accumulator, size=int(max(min_distance, 3)))) & (
            accumulator >= threshold
        )
        ys, xs = np.nonzero(maxima)
        for cy, cx in zip(ys, xs):
            support = _reference_circle_support(edge_lookup, float(cx), float(cy), radius, cos_a, sin_a)
            if support < min_support:
                continue
            detections.append(
                CircleDetection(
                    x=float(cx + x0),
                    y=float(cy + y0),
                    radius=float(radius),
                    votes=float(accumulator[cy, cx]) * support,
                )
            )

    detections.sort(key=lambda d: d.votes, reverse=True)
    kept: List[CircleDetection] = []
    for detection in detections:
        if all(
            (detection.x - other.x) ** 2 + (detection.y - other.y) ** 2 >= min_distance**2
            for other in kept
        ):
            kept.append(detection)
        if max_circles is not None and len(kept) >= max_circles:
            break
    return kept


def reference_extract(extractor, image: np.ndarray) -> ExtractionResult:
    """The old ``WellColorExtractor.extract``: ``detect_fiducial`` and
    ``hough_circles`` each convert the full frame to grayscale themselves."""
    cfg = extractor.config
    fiducial = detect_fiducial(
        image.mean(axis=-1),
        min_size=int(cfg.fiducial_size * 0.6),
        max_size=int(cfg.fiducial_size * 2.0),
    )
    roi = extractor.plate_roi_from_fiducial(fiducial) if fiducial.found else None

    radius = cfg.well_radius
    circles = reference_hough_circles(
        image,
        radii=[radius - 1.0, radius, radius + 1.0],
        min_distance=cfg.well_pitch * 0.6,
        roi=roi,
        max_circles=extractor.rows * extractor.cols + 8,
    )

    names = well_names(extractor.rows, extractor.cols)
    grid = fit_well_grid(circles, rows=extractor.rows, cols=extractor.cols, pitch_guess=cfg.well_pitch)
    used_completion = False
    if grid is not None and extractor.use_grid_completion:
        centers = complete_grid(grid, names)
        used_completion = True
    elif circles and not extractor.use_grid_completion:
        centers = extractor.nominal_centers()
        for circle in circles:
            nearest = min(
                centers,
                key=lambda name: (centers[name][0] - circle.x) ** 2
                + (centers[name][1] - circle.y) ** 2,
            )
            centers[nearest] = (circle.x, circle.y)
    else:
        centers = extractor.nominal_centers()

    colors = extractor.sample_colors(image, centers)
    return ExtractionResult(
        well_colors=colors,
        well_centers=centers,
        fiducial=fiducial,
        circles=list(circles),
        grid=grid,
        used_grid_completion=used_completion,
    )


# ---------------------------------------------------------------------------
# GP predict (pre: the prior variance read off the diagonal of the full
# m x m query kernel)
# ---------------------------------------------------------------------------


def reference_gp_predict(gp, x_query, return_std: bool = True):
    """The old ``GaussianProcess.predict``."""
    if not gp.is_fitted:
        raise RuntimeError("GaussianProcess.predict called before fit")
    x = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
    cross = gp.kernel(x, gp._x_train)
    mean = cross @ gp._alpha * gp._y_std + gp._y_mean
    if not return_std:
        return mean, None
    solve = linalg.solve_triangular(gp._cholesky, cross.T, lower=True)
    prior_var = np.diag(gp.kernel(x, x))
    variance = np.maximum(prior_var - (solve**2).sum(axis=0), 1e-12)
    std = np.sqrt(variance) * gp._y_std
    return mean, std


# ---------------------------------------------------------------------------
# Soak fingerprint / diff (pre: eight round() calls per sample, three-set diff)
# ---------------------------------------------------------------------------


def reference_campaign_fingerprint(campaign) -> Dict[str, Any]:
    """The old per-sample ``round`` fingerprint builder."""
    records = campaign.portal.search(experiment_id=campaign.experiment_id)
    runs: Dict[str, Any] = {}
    for record in records:
        runs[str(record.run_index)] = {
            "run_id": record.run_id,
            "target_rgb": list(record.target_rgb),
            "solver": record.solver,
            "samples": [
                [
                    sample.sample_index,
                    sample.well,
                    {dye: round(volume, 9) for dye, volume in sample.volumes_ul.items()},
                    [round(channel, 9) for channel in sample.measured_rgb],
                    round(sample.score, 9),
                ]
                for sample in record.samples
            ],
        }
    return {
        "experiment_runs": campaign.n_runs,
        "total_samples": campaign.total_samples,
        "portal_run_count": len(records),
        "best_scores": [round(run.best_score, 9) for run in campaign.runs],
        "runs": runs,
    }


def reference_diff_fingerprints(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[str]:
    """The old three-set fingerprint diff (no wholesale-equality early-out)."""
    mismatches: List[str] = []
    for key in ("experiment_runs", "total_samples", "portal_run_count", "best_scores"):
        if baseline[key] != candidate[key]:
            mismatches.append(f"{key}: baseline {baseline[key]!r} != chaos {candidate[key]!r}")
    baseline_runs, candidate_runs = baseline["runs"], candidate["runs"]
    missing = sorted(set(baseline_runs) - set(candidate_runs), key=int)
    extra = sorted(set(candidate_runs) - set(baseline_runs), key=int)
    if missing:
        mismatches.append(f"portal lost runs: {missing}")
    if extra:
        mismatches.append(f"portal grew runs: {extra}")
    for run_index in sorted(set(baseline_runs) & set(candidate_runs), key=int):
        if baseline_runs[run_index] != candidate_runs[run_index]:
            mismatches.append(f"run {run_index}: record contents differ")
    return mismatches
