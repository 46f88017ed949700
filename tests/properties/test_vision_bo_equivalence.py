"""The optimised vision pipeline and GP prediction are bit-identical to the
implementations they replaced.

``WellColorExtractor.extract`` (one grayscale per frame, unit gradients only
at edge pixels, counted votes, cropped smoothing and maximum filters, array
support checks and suppression) and ``GaussianProcess.predict`` (the prior
variance from ``RBFKernel.diag`` instead of the full query kernel) feed the
paper's Bayesian colour-matching loop, whose scores and parity digests must
not move.  The old code is frozen in :mod:`repro.bench.reference`; every
result field is compared with ``np.array_equal`` / ``==``, never a tolerance.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.bench.reference import (
    reference_extract,
    reference_gp_predict,
    reference_hough_circles,
)
from repro.color.mixing import SubtractiveMixingModel
from repro.hardware.labware import Plate, well_names
from repro.solvers.gp import GaussianProcess, RBFKernel
from repro.vision.extraction import WellColorExtractor
from repro.vision.fiducial import grayscale
from repro.vision.hough import _SMOOTH_SIGMA, _vote_peaks, hough_circles
from repro.vision.render import render_plate_image


def render_frame(n_filled: int, seed: int) -> np.ndarray:
    chemistry = SubtractiveMixingModel()
    rng = np.random.default_rng(seed)
    plate = Plate(barcode=f"equivalence-{n_filled}-{seed}")
    for name in well_names(8, 12)[:n_filled]:
        well = plate.well(name)
        for dye, volume in zip(chemistry.dyes.names, rng.uniform(5.0, 60.0, 4)):
            well.add(dye, float(volume))
    return render_plate_image(plate, chemistry, rng=rng)


def assert_same_extraction(got, want):
    assert list(got.well_colors) == list(want.well_colors)
    for name, color in want.well_colors.items():
        assert got.well_colors[name].dtype == color.dtype
        assert np.array_equal(got.well_colors[name], color), name
    assert list(got.well_centers) == list(want.well_centers)
    assert got.well_centers == want.well_centers
    assert got.fiducial == want.fiducial
    assert got.circles == want.circles
    assert got.grid == want.grid
    assert got.used_grid_completion == want.used_grid_completion


class TestExtraction:
    # Empty, partly filled (the Bayesian loop's plates fill a batch at a
    # time) and full plates, each at two poses.
    @pytest.mark.parametrize("n_filled", [0, 3, 12, 40, 96])
    @pytest.mark.parametrize("seed", [816, 4242])
    @pytest.mark.parametrize("use_grid_completion", [True, False])
    def test_extract_matches_reference(self, n_filled, seed, use_grid_completion):
        frame = render_frame(n_filled, seed)
        extractor = WellColorExtractor(use_grid_completion=use_grid_completion)
        result = extractor.extract(frame)
        assert_same_extraction(result, reference_extract(extractor, frame))
        if n_filled >= 12:
            assert len(result.circles) >= 4

    def test_grayscale_is_byte_equal_to_channel_mean(self):
        rng = np.random.default_rng(3)
        frames = [render_frame(24, 5), rng.uniform(0.0, 255.0, (31, 17, 3))]
        frames.append(np.asfortranarray(frames[1]))
        for frame in frames:
            assert grayscale(frame).tobytes() == frame.mean(axis=-1).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_hough_matches_reference_on_random_disks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(15):
            height, width = (int(v) for v in rng.integers(40, 180, 2))
            image = np.full((height, width), rng.uniform(150.0, 250.0))
            yy, xx = np.mgrid[0:height, 0:width]
            for _ in range(int(rng.integers(0, 10))):
                cx, cy = rng.uniform(0, width), rng.uniform(0, height)
                radius = rng.uniform(5.0, 18.0)
                image[(xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2] = rng.uniform(0.0, 255.0)
            image += rng.normal(0.0, rng.uniform(0.0, 8.0), image.shape)
            kwargs = dict(
                radii=list(rng.uniform(5.0, 18.0, int(rng.integers(1, 4)))),
                edge_threshold=float(rng.uniform(0.05, 0.5)),
                vote_threshold=float(rng.uniform(0.1, 0.6)),
                min_distance=float(rng.uniform(3.0, 30.0)),
                min_support=float(rng.uniform(0.2, 0.8)),
                max_circles=[None, 1, 3, 10][int(rng.integers(4))],
            )
            if rng.random() < 0.5:
                # Ends kept non-negative: the old code sliced negative ends
                # from the far side of the frame.
                kwargs["roi"] = (
                    int(rng.integers(-20, width)),
                    int(rng.integers(-20, height)),
                    int(rng.integers(1, width + 20)),
                    int(rng.integers(1, height + 20)),
                )
                x0, y0, x1, y1 = kwargs["roi"]
                if min(x1, width) <= max(x0, 0) or min(y1, height) <= max(y0, 0):
                    continue  # the old code raised on an empty region
            assert hough_circles(image, **kwargs) == reference_hough_circles(image, **kwargs)


class TestVotePeaks:
    """``_vote_peaks`` filters boxes of the accumulator; it must find the
    pixels and values that filtering the whole accumulator finds."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_whole_accumulator_filters(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            height, width = (int(v) for v in rng.integers(1, 60, 2))
            if rng.random() < 0.5:
                counts = rng.poisson(rng.uniform(0.05, 2.0), (height, width))
            else:
                counts = np.zeros((height, width), dtype=np.int64)
            # Blocks of votes, up to spikes strong enough to lift pixels
            # several kernel widths away above the threshold.
            for _ in range(int(rng.integers(0, 4))):
                y, x = int(rng.integers(0, height)), int(rng.integers(0, width))
                half = int(rng.integers(0, 4))
                block = counts[max(y - half, 0) : y + half + 1, max(x - half, 0) : x + half + 1]
                block += int(rng.choice([1, 2, 3, 5, 50, 5000]))
            # Integer thresholds sit exactly on the bound the boxes rely on.
            threshold = float(rng.choice([rng.uniform(0.0, 5.0), 1.0, 2.0, 2.7, 3.0, 0.0]))
            # Size 1 makes every pixel that reaches the threshold a peak, so
            # each of their values is compared.
            size = int(rng.choice([1, int(rng.integers(3, 25))]))
            smoothed = ndimage.gaussian_filter(counts.astype(np.float64), sigma=_SMOOTH_SIGMA)
            peaks = (smoothed == ndimage.maximum_filter(smoothed, size=size)) & (
                smoothed >= threshold
            )
            want_ys, want_xs = np.nonzero(peaks)
            ys, xs, values = _vote_peaks(counts, threshold, size)
            assert np.array_equal(ys, want_ys) and np.array_equal(xs, want_xs)
            assert np.array_equal(values, smoothed[want_ys, want_xs])


class TestGaussianProcessPredict:
    @pytest.mark.parametrize("n_train", [1, 3, 12, 36])
    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("n_query", [1, 576])
    def test_predict_matches_reference(self, n_train, optimize, n_query):
        rng = np.random.default_rng(n_train * 10 + n_query)
        x = rng.uniform(size=(n_train, 4))
        y = np.sin(3.0 * x).sum(axis=1) + rng.normal(0.0, 0.05, n_train)
        gp = GaussianProcess(
            kernel=RBFKernel(lengthscale=0.4, variance=1.7), optimize_hyperparameters=optimize
        ).fit(x, y)
        if optimize and n_train >= 4:
            # The fit moved the hyperparameters off their initial values.
            assert (gp.kernel.lengthscale, gp.kernel.variance) != (0.4, 1.7)
        query = rng.uniform(size=(n_query, 4))
        mean, std = gp.predict(query)
        ref_mean, ref_std = reference_gp_predict(gp, query)
        assert np.array_equal(mean, ref_mean) and np.array_equal(std, ref_std)
        mean_only, none = gp.predict(query, return_std=False)
        assert none is None and np.array_equal(mean_only, ref_mean)
