"""Tests for the circular Hough transform."""

import numpy as np
import pytest

from repro.vision.hough import hough_circles


def draw_disk(image, cx, cy, radius, value):
    yy, xx = np.mgrid[0 : image.shape[0], 0 : image.shape[1]]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
    image[mask] = value


class TestSingleCircle:
    def test_detects_center_and_radius(self):
        image = np.full((120, 120), 220.0)
        draw_disk(image, 60, 55, 13, 60.0)
        detections = hough_circles(image, radii=[12, 13, 14])
        assert detections
        best = detections[0]
        assert best.x == pytest.approx(60, abs=2)
        assert best.y == pytest.approx(55, abs=2)
        assert best.radius == pytest.approx(13, abs=1.5)

    def test_no_circles_in_flat_image(self):
        image = np.full((100, 100), 128.0)
        assert hough_circles(image, radii=[10]) == []

    def test_straight_edges_do_not_create_circles(self):
        image = np.full((200, 200), 220.0)
        image[50:150, 50:150] = 40.0  # a large dark square: only straight edges
        detections = hough_circles(image, radii=[12, 13, 14], min_support=0.6)
        assert detections == []


class TestMultipleCircles:
    def test_grid_of_circles_all_found(self):
        image = np.full((200, 260), 225.0)
        centers = [(60 + 34 * i, 60 + 34 * j) for i in range(5) for j in range(3)]
        for cx, cy in centers:
            draw_disk(image, cx, cy, 13, 90.0)
        detections = hough_circles(image, radii=[13], min_distance=20)
        assert len(detections) == len(centers)
        found = {(round(d.x / 2), round(d.y / 2)) for d in detections}
        expected = {(round(cx / 2), round(cy / 2)) for cx, cy in centers}
        assert found == expected

    def test_max_circles_cap(self):
        image = np.full((200, 260), 225.0)
        for i in range(5):
            draw_disk(image, 40 + 40 * i, 100, 13, 90.0)
        detections = hough_circles(image, radii=[13], max_circles=3, min_distance=20)
        assert len(detections) == 3

    def test_roi_restricts_search(self):
        image = np.full((200, 300), 225.0)
        draw_disk(image, 60, 100, 13, 90.0)
        draw_disk(image, 240, 100, 13, 90.0)
        detections = hough_circles(image, radii=[13], roi=(0, 0, 150, 200))
        assert len(detections) == 1
        assert detections[0].x == pytest.approx(60, abs=2)

    def test_rgb_input_supported(self):
        image = np.full((120, 120, 3), 225.0)
        draw_disk(image, 60, 60, 13, np.array([90.0, 40.0, 40.0]))
        assert hough_circles(image, radii=[13])


class TestVotes:
    def test_detections_sorted_by_votes(self):
        image = np.full((160, 160), 225.0)
        draw_disk(image, 50, 80, 13, 40.0)    # strong contrast
        draw_disk(image, 110, 80, 13, 190.0)  # weak contrast
        detections = hough_circles(image, radii=[13], edge_threshold=0.1, vote_threshold=0.3)
        assert len(detections) >= 2
        votes = [d.votes for d in detections]
        assert votes == sorted(votes, reverse=True)


class TestRoiOffFrame:
    """An ROI that clips to an empty region finds nothing instead of raising
    (``extract`` then falls back to the nominal grid)."""

    @pytest.mark.parametrize(
        "roi",
        [
            (706, 456, 1148, 762),  # from a marker found at the lower-right corner
            (10, 10, 10, 50),  # zero width
            (-300, -200, -10, -5),  # entirely above-left of the frame
        ],
    )
    @pytest.mark.parametrize("channels", [None, 3])
    def test_empty_roi_returns_no_circles(self, roi, channels):
        shape = (480, 640) if channels is None else (480, 640, channels)
        image = np.full(shape, 225.0)
        draw_disk(image, 60, 60, 13, 90.0)
        assert hough_circles(image, radii=[12, 13, 14], roi=roi) == []
