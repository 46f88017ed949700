"""Simulated plate camera.

The camera module is a ring-lit webcam with a fixed plate mount (paper
Section 2.2).  The simulated camera renders a synthetic frame of whatever
plate is on its stage using :mod:`repro.vision.render`; the application then
runs the same image-processing pipeline it would run on a real photo.

Frames are lazy: a capture records what was on the stage and a frame key,
and the pixels are rendered each time something reads them (see
:class:`CameraImage`).  ``measurement="direct"`` never reads them, so a
direct-mode campaign renders no frames at all, and no run log holds pixels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.color.mixing import MixingModel, SubtractiveMixingModel
from repro.hardware.base import ActionHandle, DeviceError, SimulatedDevice
from repro.hardware.deck import Workdeck
from repro.hardware.labware import Plate
from repro.vision.render import PlateImageConfig, render_plate_image

__all__ = ["CameraImage", "CameraDevice"]


class CameraImage:
    """One captured frame plus its provenance; the pixels render on each read.

    At capture the camera draws one 64-bit frame ``key`` from its device rng
    and snapshots the contents of the plate's filled wells.  Every read of
    :attr:`pixels` or :attr:`truth` rebuilds the capture-time plate from
    that snapshot and renders it with its pose, and the offset of its pixel
    noise in the renderer's per-process noise bank, drawn from
    ``np.random.default_rng(key)``; no pixels are cached.  So the device rng
    (which also samples action durations) advances the same way whether or
    not a frame is ever read, a frame reads the same bytes whenever it is
    read, a frame nobody reads costs no render, and a frame kept in a run
    log costs only its snapshot.  Readers that need the pixels twice keep
    the array rather than reading twice.

    Equality is identity and ``repr`` shows provenance only, so neither
    renders.
    """

    __slots__ = (
        "plate_barcode",
        "timestamp",
        "key",
        "_plate_shape",
        "_filled",
        "_chemistry",
        "_config",
        "_keep_truth",
    )

    def __init__(
        self,
        plate: Plate,
        *,
        timestamp: float,
        key: int,
        chemistry: MixingModel,
        config: PlateImageConfig,
        keep_truth: bool = True,
    ):
        self.plate_barcode = plate.barcode
        self.timestamp = timestamp
        self.key = key
        self._plate_shape = (plate.rows, plate.cols, plate.well_capacity_ul)
        self._filled: Dict[str, Dict[str, float]] = {
            name: dict(well.contents) for name, well in plate.wells.items() if well.contents
        }
        self._chemistry = chemistry
        self._config = config
        self._keep_truth = keep_truth

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Pixel-array shape ``(H, W, 3)``, from the camera config (no render)."""
        return (self._config.image_height, self._config.image_width, 3)

    @property
    def pixels(self) -> np.ndarray:
        """``(H, W, 3)`` float64 sRGB frame, rendered by this read."""
        return self._render(return_truth=False)

    @property
    def truth(self) -> Optional[Dict]:
        """Sampled pose and ground-truth well centres/colours (None unless kept)."""
        if not self._keep_truth:
            return None
        return self._render(return_truth=True)[1]

    def _render(self, *, return_truth: bool):
        rows, cols, capacity = self._plate_shape
        plate = Plate(self.plate_barcode, rows=rows, cols=cols, well_capacity_ul=capacity)
        for name, contents in self._filled.items():
            well = plate.well(name)
            for liquid, volume in contents.items():
                well.add(liquid, volume)
        return render_plate_image(
            plate,
            self._chemistry,
            config=self._config,
            rng=np.random.default_rng(self.key),
            return_truth=return_truth,
        )

    def __repr__(self) -> str:
        return (
            f"CameraImage(plate_barcode={self.plate_barcode!r}, timestamp={self.timestamp!r}, "
            f"shape={self.shape}, key={self.key})"
        )


class CameraDevice(SimulatedDevice):
    """Webcam with a plate mount.

    Actions
    -------
    ``take_picture``
        Capture a (lazily rendered) frame of the plate on the camera stage.
    """

    module_type = "camera"
    #: Imaging is not a robotic manipulation; it does not count towards CCWH.
    robotic = False

    def __init__(
        self,
        deck: Workdeck,
        *,
        stage_location: str = "camera.stage",
        chemistry: Optional[MixingModel] = None,
        image_config: Optional[PlateImageConfig] = None,
        keep_truth: bool = True,
        name: Optional[str] = None,
        **kwargs,
    ):
        super().__init__(name=name, **kwargs)
        self.deck = deck
        self.stage_location = stage_location
        self.chemistry = chemistry if chemistry is not None else SubtractiveMixingModel()
        self.image_config = image_config if image_config is not None else PlateImageConfig()
        self.keep_truth = keep_truth
        self.frames_captured = 0
        if not deck.has_location(stage_location):
            deck.add_location(stage_location)

    def submit_take_picture(self) -> ActionHandle:
        """Submit a capture; the frame is exposed (keyed and snapshotted) at completion.

        Raises :class:`DeviceError` when no plate is present -- photographing
        an empty mount is an application logic error worth failing loudly on.
        """
        plate = self.deck.plate_at(self.stage_location)
        if plate is None:
            raise DeviceError(f"{self.name}: no plate on stage location {self.stage_location!r}")
        record = self._execute("take_picture", plate=plate.barcode)

        def finish() -> CameraImage:
            # One draw per frame, read or not: the frame's pose and noise
            # come from a stream of their own keyed by it.
            key = int(self.rng.integers(2**63))
            self.frames_captured += 1
            return CameraImage(
                plate,
                timestamp=record.end_time,
                key=key,
                chemistry=self.chemistry,
                config=self.image_config,
                keep_truth=self.keep_truth,
            )

        return self._submitted(record, finish)
