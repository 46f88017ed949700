"""Contract of the lazy camera frame.

A capture draws one frame key from the camera's device rng and snapshots the
plate; the pixels are rendered on every read and never cached.  These tests
pin what that promises: unread frames never render, a frame reads the same
bytes whenever and in whatever order it is read, the application reads each
frame once, and reading pixels never moves the device rng (so action timing
does not depend on whether anyone looked at a frame).
"""

import copy

import numpy as np
import pytest

import repro.hardware.camera as camera_module
from repro.core.app import ColorPickerApp
from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.hardware.camera import CameraDevice, CameraImage
from repro.hardware.deck import Workdeck
from repro.hardware.pf400 import Pf400Device
from repro.hardware.sciclops import SciclopsDevice
from repro.sim.clock import SimClock
from repro.vision.render import render_plate_image
from repro.wei.coordinator import MultiWorkcellCoordinator


@pytest.fixture
def render_spy(monkeypatch):
    """Counts calls of the renderer the camera module looks up."""
    calls = []
    real = camera_module.render_plate_image

    def spy(*args, **kwargs):
        calls.append(args[0].barcode)
        return real(*args, **kwargs)

    monkeypatch.setattr(camera_module, "render_plate_image", spy)
    return calls


def staged_rig(seed=5, **camera_kwargs):
    """A deck with one plate on the camera stage; returns (camera, plate)."""
    deck = Workdeck()
    clock = SimClock()
    sciclops = SciclopsDevice(deck, clock=clock, rng=1)
    pf400 = Pf400Device(deck, clock=clock, rng=2)
    camera = CameraDevice(deck, clock=clock, rng=seed, **camera_kwargs)
    plate = sciclops.submit_get_plate().complete()
    pf400.submit_transfer("sciclops.exchange", "camera.stage").complete()
    return camera, plate


def fill(plate, wells, dye="cyan", volume=40.0):
    for name in wells:
        plate.well(name).add(dye, volume)
        plate.well(name).add("black", volume / 2)


def take_picture_durations(camera):
    return [
        record.end_time - record.start_time
        for record in camera.action_log
        if record.action == "take_picture"
    ]


class TestCampaignRenders:
    def run(self, measurement):
        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=21)
        campaign = run_campaign(
            4,
            3,
            batch_size=2,
            measurement=measurement,
            seed=21,
            coordinator=coordinator,
        )
        assert len(campaign.runs) == 4
        return sum(
            module.device.frames_captured
            for workcell in coordinator.workcells
            for module in workcell.modules_of_type("camera")
        )

    def test_direct_mode_campaign_renders_no_frame(self, render_spy):
        frames = self.run("direct")
        assert frames > 0
        assert render_spy == []

    def test_vision_mode_campaign_renders_each_frame_once(self, render_spy):
        frames = self.run("vision")
        assert frames > 0
        assert len(render_spy) == frames


def test_vision_app_renders_each_captured_frame_once(render_spy):
    # Measurement and publication share the batch's one read of the frame.
    config = ExperimentConfig(
        n_samples=5,
        batch_size=2,
        seed=9,
        measurement="vision",
        publish=True,
        experiment_id="render-count",
        run_id="render-count",
    )
    app = ColorPickerApp(config)
    result = app.run()
    assert len(result.publication_receipts) == 3
    frames = app.workcell.module("camera").device.frames_captured
    assert frames == 3
    assert len(render_spy) == frames


class TestLazyFrame:
    def test_metadata_reads_do_not_render(self, render_spy):
        camera, plate = staged_rig()
        image = camera.submit_take_picture().complete()
        other = camera.submit_take_picture().complete()
        assert isinstance(image, CameraImage)
        assert image.plate_barcode == plate.barcode
        assert image.shape == (480, 640, 3)
        assert image != other and image == image
        assert plate.barcode in repr(image)
        assert render_spy == []
        assert image.pixels.shape == image.shape
        assert len(render_spy) == 1

    def test_repeated_and_out_of_order_reads_are_byte_equal(self, render_spy):
        camera, plate = staged_rig()
        fill(plate, ["A1", "B2"])
        image = camera.submit_take_picture().complete()
        fill(plate, ["C3"], dye="magenta")
        truth_first = image.truth
        pixels = [image.pixels, image.pixels]
        truth_again = image.truth
        pixels.append(image.pixels)
        # Nothing is cached: every read renders afresh.
        assert len(render_spy) == 5
        assert pixels[0] is not pixels[1]
        for other in pixels[1:]:
            assert np.array_equal(pixels[0], other)
        assert truth_first["offset"] == truth_again["offset"]
        assert truth_first["rotation_deg"] == truth_again["rotation_deg"]
        assert truth_first["centers"] == truth_again["centers"]
        assert truth_first["colors"].keys() == truth_again["colors"].keys()
        for name, color in truth_first["colors"].items():
            assert np.array_equal(color, truth_again["colors"][name])

    def test_truth_disabled_does_not_render(self, render_spy):
        camera, _ = staged_rig(keep_truth=False)
        image = camera.submit_take_picture().complete()
        assert image.truth is None
        assert render_spy == []

    def test_late_read_sees_the_capture_time_plate(self):
        camera, plate = staged_rig()
        fill(plate, ["A1", "A2", "B5"])
        captured = copy.deepcopy(plate)
        image = camera.submit_take_picture().complete()
        fill(plate, ["C1", "C2"], dye="magenta")
        plate.well("A1").empty()
        plate.well("B5").empty()

        twin_camera, twin_plate = staged_rig()
        fill(twin_plate, ["A1", "A2", "B5"])
        eager = twin_camera.submit_take_picture().complete()
        np.testing.assert_array_equal(image.pixels, eager.pixels)
        expected, truth = render_plate_image(
            captured,
            camera.chemistry,
            config=camera.image_config,
            rng=np.random.default_rng(image.key),
            return_truth=True,
        )
        np.testing.assert_array_equal(image.pixels, expected)
        assert image.truth["offset"] == truth["offset"]
        np.testing.assert_array_equal(image.truth["colors"]["A1"], truth["colors"]["A1"])

    def test_frames_read_in_reverse_order_match_in_order(self):
        frames = []
        for _ in range(2):
            camera, plate = staged_rig()
            images = []
            for wells in (["A1"], ["A2", "A3"], ["B1"]):
                fill(plate, wells)
                images.append(camera.submit_take_picture().complete())
            frames.append(images)
        in_order = [image.pixels for image in frames[0]]
        reverse = [image.pixels for image in reversed(frames[1])][::-1]
        for a, b in zip(in_order, reverse):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(in_order[0], in_order[1])

    def test_reading_pixels_leaves_device_rng_and_durations_alone(self):
        cameras = []
        for read in (False, True):
            camera, plate = staged_rig()
            for index in range(5):
                fill(plate, [f"A{index + 1}"])
                image = camera.submit_take_picture().complete()
                if read:
                    _ = image.pixels
            cameras.append(camera)
        unread, read = cameras
        assert unread.rng.bit_generator.state == read.rng.bit_generator.state
        assert take_picture_durations(unread) == take_picture_durations(read)
        assert len(take_picture_durations(read)) == 5
