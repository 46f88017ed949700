"""Tests for the end-to-end well-colour extraction pipeline."""

import numpy as np
import pytest

from repro.vision.extraction import WellColorExtractor
from repro.vision.fiducial import draw_fiducial
from repro.vision.render import PlateImageConfig, render_plate_image


@pytest.fixture
def rendered(filled_plate, chemistry):
    rng = np.random.default_rng(99)
    image, truth = render_plate_image(filled_plate, chemistry, rng=rng, return_truth=True)
    return filled_plate, image, truth


class TestPipeline:
    def test_extracts_colors_for_all_wells(self, rendered):
        plate, image, truth = rendered
        result = WellColorExtractor().extract(image)
        assert len(result.well_colors) == 96
        assert len(result.well_centers) == 96

    def test_filled_well_colors_accurate(self, rendered):
        plate, image, truth = rendered
        result = WellColorExtractor().extract(image)
        errors = [
            np.linalg.norm(result.well_colors[name] - truth["colors"][name])
            for name in plate.used_wells
        ]
        assert np.mean(errors) < 10.0
        assert np.max(errors) < 20.0

    def test_well_centers_accurate(self, rendered):
        plate, image, truth = rendered
        result = WellColorExtractor().extract(image)
        errors = [
            np.hypot(
                result.well_centers[name][0] - truth["centers"][name][0],
                result.well_centers[name][1] - truth["centers"][name][1],
            )
            for name in plate.used_wells
        ]
        assert np.mean(errors) < 2.0

    def test_fiducial_and_grid_are_used(self, rendered):
        _, image, _ = rendered
        result = WellColorExtractor().extract(image)
        assert result.fiducial is not None and result.fiducial.found
        assert result.grid is not None
        assert result.used_grid_completion
        assert len(result.circles) >= 20

    def test_colors_for_helper_orders_by_request(self, rendered):
        plate, image, _ = rendered
        result = WellColorExtractor().extract(image)
        names = plate.used_wells[:5]
        colors = result.colors_for(names)
        assert colors.shape == (5, 3)
        np.testing.assert_allclose(colors[0], result.well_colors[names[0]])

    def test_grid_completion_ablation_still_returns_all_wells(self, rendered):
        _, image, _ = rendered
        result = WellColorExtractor(use_grid_completion=False).extract(image)
        assert len(result.well_colors) == 96
        assert not result.used_grid_completion


class TestFallbacks:
    def test_blank_frame_falls_back_to_nominal_geometry(self, chemistry, plate):
        config = PlateImageConfig()
        extractor = WellColorExtractor(config=config)
        blank = np.full((config.image_height, config.image_width, 3), 128.0)
        result = extractor.extract(blank)
        assert not result.fiducial.found
        assert result.grid is None
        assert result.well_centers["A1"] == pytest.approx(config.nominal_center(0, 0))

    def test_empty_plate_uses_nominal_or_grid_without_error(self, plate, chemistry):
        rng = np.random.default_rng(1)
        image = render_plate_image(plate, chemistry, rng=rng)
        result = WellColorExtractor().extract(image)
        assert len(result.well_colors) == 96

    def test_marker_in_corner_falls_back_to_nominal_geometry(self):
        # A spurious marker at the lower-right corner is detected, and the
        # plate region it implies lies entirely off the frame.
        config = PlateImageConfig()
        extractor = WellColorExtractor(config=config)
        frame = np.full((config.image_height, config.image_width, 3), 128.0)
        draw_fiducial(frame, (630, 470), size=config.fiducial_size)
        result = extractor.extract(frame)
        assert result.fiducial.found
        x0, y0, _, _ = extractor.plate_roi_from_fiducial(result.fiducial)
        assert x0 >= config.image_width and y0 < config.image_height
        assert result.circles == [] and result.grid is None
        assert result.well_centers == extractor.nominal_centers()
        assert len(result.well_colors) == 96

    def test_sample_color_at_border_does_not_crash(self, rendered):
        _, image, _ = rendered
        extractor = WellColorExtractor()
        color = extractor.sample_color(image, (0.0, 0.0))
        assert color.shape == (3,)


class TestVectorisedScoring:
    """``sample_colors`` (one numpy pass over all wells) must be bit-identical
    to per-well ``sample_color`` -- the reproduction's scores depend on it."""

    def test_matches_scalar_path_bitwise(self, rendered):
        _, image, truth = rendered
        extractor = WellColorExtractor()
        centers = truth["centers"]
        batched = extractor.sample_colors(image, centers)
        assert list(batched) == list(centers)  # caller's well order kept
        for name, center in centers.items():
            assert np.array_equal(batched[name], extractor.sample_color(image, center))

    def test_matches_reference_loop(self, rendered):
        from repro.bench.reference import reference_sample_colors

        _, image, truth = rendered
        extractor = WellColorExtractor()
        batched = extractor.sample_colors(image, truth["centers"])
        reference = reference_sample_colors(extractor, image, truth["centers"])
        assert list(batched) == list(reference)
        for name in reference:
            assert np.array_equal(batched[name], reference[name])

    def test_edge_clipped_and_offframe_wells_fall_back(self, rendered):
        _, image, _ = rendered
        extractor = WellColorExtractor()
        height, width = image.shape[:2]
        centers = {
            "interior": (width / 2.0, height / 2.0),
            "left_edge": (2.0, height / 2.0),
            "corner": (0.0, 0.0),
            "off_frame": (-50.0, -50.0),
            "right_edge": (width - 1.0, height - 2.0),
        }
        batched = extractor.sample_colors(image, centers)
        for name, center in centers.items():
            assert np.array_equal(batched[name], extractor.sample_color(image, center)), name

    def test_empty_centers(self, rendered):
        _, image, _ = rendered
        assert WellColorExtractor().sample_colors(image, {}) == {}
