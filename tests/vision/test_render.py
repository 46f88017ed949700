"""Tests for the synthetic plate-image renderer."""

import dataclasses
import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.vision import render
from repro.vision.render import PlateImageConfig, render_plate_image, well_pixel_centers


class TestConfig:
    def test_nominal_center_spacing(self):
        config = PlateImageConfig()
        a1 = config.nominal_center(0, 0)
        a2 = config.nominal_center(0, 1)
        b1 = config.nominal_center(1, 0)
        assert a2[0] - a1[0] == pytest.approx(config.well_pitch)
        assert b1[1] - a1[1] == pytest.approx(config.well_pitch)


class TestWellPixelCenters:
    def test_no_transform_matches_nominal(self, plate):
        config = PlateImageConfig()
        centers = well_pixel_centers(plate, config)
        assert centers["A1"] == pytest.approx(config.nominal_center(0, 0))
        assert centers["H12"] == pytest.approx(config.nominal_center(7, 11))

    def test_translation_shifts_all_wells(self, plate):
        config = PlateImageConfig()
        base = well_pixel_centers(plate, config)
        moved = well_pixel_centers(plate, config, offset=(5.0, -3.0))
        for name in ("A1", "D6", "H12"):
            assert moved[name][0] - base[name][0] == pytest.approx(5.0)
            assert moved[name][1] - base[name][1] == pytest.approx(-3.0)

    def test_rotation_preserves_pitch(self, plate):
        config = PlateImageConfig()
        rotated = well_pixel_centers(plate, config, rotation_deg=2.0)
        a1 = np.array(rotated["A1"])
        a2 = np.array(rotated["A2"])
        assert np.linalg.norm(a2 - a1) == pytest.approx(config.well_pitch, rel=1e-6)


class TestRender:
    def test_image_shape_and_range(self, filled_plate, chemistry, rng):
        image = render_plate_image(filled_plate, chemistry, rng=rng)
        assert image.shape == (480, 640, 3)
        assert image.min() >= 0.0 and image.max() <= 255.0

    def test_truth_contains_all_wells(self, filled_plate, chemistry, rng):
        _, truth = render_plate_image(filled_plate, chemistry, rng=rng, return_truth=True)
        assert len(truth["centers"]) == 96
        assert len(truth["colors"]) == 96

    def test_filled_well_color_matches_chemistry(self, filled_plate, chemistry):
        config = PlateImageConfig(pixel_noise_sigma=0.0, illumination_gradient=0.0, jitter_px=0.0, rotation_deg_sigma=0.0)
        image, truth = render_plate_image(
            filled_plate, chemistry, config=config, rng=np.random.default_rng(0), return_truth=True
        )
        name = filled_plate.used_wells[0]
        cx, cy = truth["centers"][name]
        pixel = image[int(round(cy)), int(round(cx))]
        np.testing.assert_allclose(pixel, truth["colors"][name], atol=1.0)

    def test_empty_wells_rendered_as_plate_colour(self, plate, chemistry):
        config = PlateImageConfig(pixel_noise_sigma=0.0, illumination_gradient=0.0, jitter_px=0.0, rotation_deg_sigma=0.0)
        image, truth = render_plate_image(plate, chemistry, config=config, rng=np.random.default_rng(0), return_truth=True)
        cx, cy = truth["centers"]["A1"]
        np.testing.assert_allclose(image[int(cy), int(cx)], config.empty_well_rgb, atol=1.0)

    def test_noise_free_render_is_deterministic(self, filled_plate, chemistry):
        config = PlateImageConfig(pixel_noise_sigma=0.0, jitter_px=0.0, rotation_deg_sigma=0.0)
        image_a = render_plate_image(filled_plate, chemistry, config=config, rng=np.random.default_rng(1))
        image_b = render_plate_image(filled_plate, chemistry, config=config, rng=np.random.default_rng(2))
        np.testing.assert_allclose(image_a, image_b)

    def test_seeded_render_reproducible(self, filled_plate, chemistry):
        image_a = render_plate_image(filled_plate, chemistry, rng=np.random.default_rng(5))
        image_b = render_plate_image(filled_plate, chemistry, rng=np.random.default_rng(5))
        np.testing.assert_allclose(image_a, image_b)


def _noisy_and_clean(plate, chemistry, key, config=None):
    """A frame for ``key`` and the same frame (same pose) without pixel noise."""
    config = config if config is not None else PlateImageConfig()
    clean_config = dataclasses.replace(config, pixel_noise_sigma=0.0)
    noisy = render_plate_image(plate, chemistry, config=config, rng=np.random.default_rng(key))
    clean = render_plate_image(plate, chemistry, config=clean_config, rng=np.random.default_rng(key))
    return noisy, clean


def _residual(noisy, clean):
    """A frame's noise residual and the mask of pixels far enough from 0 and
    255 (10 sigma) that the clip cannot have touched them."""
    inside = (clean > 20.0) & (clean < 235.0)
    return noisy - clean, inside


class TestNoiseBank:
    """A frame's pixel noise is a slice of one per-process, read-only bank."""

    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        """An empty render cache for the test, so its first render builds."""
        monkeypatch.setattr(render, "_RENDER_CACHE", {})

    def test_bank_is_read_only_and_one_frame_plus_spare(self, filled_plate, chemistry):
        config = PlateImageConfig()
        render_plate_image(filled_plate, chemistry, rng=np.random.default_rng(0))
        bank = render._frame_constants(config)[3]
        assert bank.size == 480 * 640 * 3 + render._NOISE_BANK_SPARE
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0] = 1.0

    def test_threads_rendering_at_once_build_one_bank(
        self, fresh_cache, filled_plate, chemistry, monkeypatch
    ):
        builds = []
        build = render._noise_bank

        def slow_build(size, sigma):
            builds.append(size)
            time.sleep(0.05)  # widen the race: the other threads are waiting by now
            return build(size, sigma)

        monkeypatch.setattr(render, "_noise_bank", slow_build)
        n_threads = 4  # more than the cores of a small CI runner
        barrier = threading.Barrier(n_threads)
        frames = [None] * n_threads

        def worker(slot):
            barrier.wait(timeout=10)
            frames[slot] = render_plate_image(filled_plate, chemistry, rng=np.random.default_rng(3))

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [480 * 640 * 3]
        for frame in frames[1:]:
            np.testing.assert_array_equal(frame, frames[0])

    def test_noise_free_config_builds_no_bank_and_draws_no_offset(
        self, fresh_cache, filled_plate, chemistry, monkeypatch
    ):
        def no_build(size, sigma):
            raise AssertionError("a noise-free render built a noise bank")

        monkeypatch.setattr(render, "_noise_bank", no_build)
        config = PlateImageConfig(pixel_noise_sigma=0.0)
        rng = np.random.default_rng(9)
        render_plate_image(filled_plate, chemistry, config=config, rng=rng)
        # The pose draws are the frame's only draws.
        expected = np.random.default_rng(9)
        expected.normal(0.0, config.jitter_px, size=2)
        expected.normal(0.0, config.rotation_deg_sigma)
        assert rng.bit_generator.state == expected.bit_generator.state
        assert render._frame_constants(config)[3] is None

    def test_residual_has_mean_zero_and_sigma_spread(self, filled_plate, chemistry):
        noisy, clean = _noisy_and_clean(filled_plate, chemistry, key=11)
        residual, inside = _residual(noisy, clean)
        values = residual[inside]
        assert values.size > 500_000
        # ~5 standard errors of the mean and ~4 of the spread on 9e5 values.
        assert abs(values.mean()) < 0.01
        assert values.std() == pytest.approx(PlateImageConfig().pixel_noise_sigma, rel=0.003)

    def test_differently_keyed_frames_have_uncorrelated_same_pixel_noise(
        self, filled_plate, chemistry
    ):
        noisy_a, clean_a = _noisy_and_clean(filled_plate, chemistry, key=21)
        noisy_b, clean_b = _noisy_and_clean(filled_plate, chemistry, key=22)
        residual_a, inside_a = _residual(noisy_a, clean_a)
        residual_b, inside_b = _residual(noisy_b, clean_b)
        both = inside_a & inside_b
        correlation = np.corrcoef(residual_a[both], residual_b[both])[0, 1]
        # One standard error is ~1/sqrt(9e5) ~ 0.001; i.i.d. noise stays well inside 0.01.
        assert abs(correlation) < 0.01

    def test_iid_reference_reproduces_the_former_frame_bytes(self, filled_plate, chemistry, iid_frame):
        # sha256 of the frame the renderer drew with per-frame i.i.d. noise
        # (one standard_normal frame after the pose) for this plate and key.
        image, _, _ = iid_frame(filled_plate, chemistry, np.random.default_rng(816))
        assert hashlib.sha256(image.tobytes()).hexdigest() == (
            "b4e7064b8c0b8c42b6f02dc1294b5b6bb9545f4ecdd88c45bd9400903e28727c"
        )
