"""Benchmark: the Section 2.4 image-processing pipeline.

Measures the accuracy and throughput of the synthetic-camera + fiducial +
Hough-circle + grid-completion pipeline, ablates the grid-completion step
the paper added to recover wells the circle detector misses, and gates the
camera's pixel noise: frames take it from a per-process bank, and over
hundreds of frames the pipeline's errors must match i.i.d. noise while no
two frames share noise.
"""

import numpy as np
import pytest
from scipy import stats

from repro.analysis.report import format_table
from repro.color.mixing import SubtractiveMixingModel
from repro.hardware.labware import Plate
from repro.vision.extraction import WellColorExtractor
from repro.vision.render import PlateImageConfig, render_plate_image

N_FRAMES = 6
FILLED_WELLS = 48
SEED = 42

#: Frames of the noise-bank gate, and the seed of their plates and keys.
GATE_FRAMES = 200
GATE_SEED = 4242
#: Significance of the gate's two-sample Kolmogorov-Smirnov tests.
KS_ALPHA = 0.01
#: Pixel values each frame's noise residual is sampled at for correlations.
CORRELATION_PIXELS = 20_000
#: Largest relative difference between the two arms' noise-residual spreads.
MAX_SPREAD_DIFFERENCE = 0.01
#: Same-pixel correlation above which two frames count as sharing noise: ~7
#: standard errors of a correlation over ``CORRELATION_PIXELS`` values.
SHARED_NOISE_CORRELATION = 0.05
#: Largest share of frame pairs that may share noise.  Independent noise
#: gives none; a bank with 2**16 + 1 offsets gives 1/65537 of pairs (two
#: frames that drew the same offset) in expectation.
MAX_SHARED_PAIR_SHARE = 1e-3
#: Bound on the mean same-pixel correlation over all frame pairs (a noise
#: component every frame shares would lift it).
MAX_MEAN_CORRELATION = 0.005


def make_frames():
    chemistry = SubtractiveMixingModel()
    rng = np.random.default_rng(SEED)
    frames = []
    for index in range(N_FRAMES):
        plate = Plate(barcode=f"bench-{index}")
        for name in plate.empty_wells[:FILLED_WELLS]:
            well = plate.well(name)
            volumes = rng.uniform(3.0, 75.0, size=4)
            for dye, volume in zip(chemistry.dyes.names, volumes):
                well.add(dye, float(volume))
        image, truth = render_plate_image(plate, chemistry, rng=rng, return_truth=True)
        frames.append((plate, image, truth))
    return frames


def extract_all(frames, use_grid_completion=True):
    extractor = WellColorExtractor(use_grid_completion=use_grid_completion)
    return [extractor.extract(image) for _, image, _ in frames]


@pytest.mark.benchmark(group="vision")
def test_vision_pipeline_accuracy_and_throughput(benchmark, report):
    frames = make_frames()
    results = benchmark.pedantic(extract_all, args=(frames,), rounds=1, iterations=1)

    color_errors, center_errors, circle_counts = [], [], []
    for (plate, _, truth), result in zip(frames, results):
        for name in plate.used_wells:
            color_errors.append(float(np.linalg.norm(result.well_colors[name] - truth["colors"][name])))
            center_errors.append(
                float(
                    np.hypot(
                        result.well_centers[name][0] - truth["centers"][name][0],
                        result.well_centers[name][1] - truth["centers"][name][1],
                    )
                )
            )
        circle_counts.append(len(result.circles))

    report(
        "Vision pipeline accuracy over synthetic frames",
        format_table(
            ["quantity", "mean", "p95", "max"],
            [
                (
                    "well colour error (RGB units)",
                    f"{np.mean(color_errors):.2f}",
                    f"{np.percentile(color_errors, 95):.2f}",
                    f"{np.max(color_errors):.2f}",
                ),
                (
                    "well centre error (px)",
                    f"{np.mean(center_errors):.2f}",
                    f"{np.percentile(center_errors, 95):.2f}",
                    f"{np.max(center_errors):.2f}",
                ),
                (
                    "circles detected per frame",
                    f"{np.mean(circle_counts):.1f}",
                    "-",
                    f"{np.max(circle_counts)}",
                ),
            ],
        ),
    )

    # The camera noise floor is a few RGB units; the pipeline should sit close to it.
    assert np.mean(color_errors) < 10.0
    assert np.mean(center_errors) < 2.0
    # All frames found the fiducial and produced a grid fit.
    assert all(result.fiducial.found for result in results)
    assert all(result.grid is not None for result in results)


@pytest.mark.benchmark(group="vision")
def test_vision_grid_completion_ablation(benchmark, report):
    frames = make_frames()
    without_completion = benchmark.pedantic(
        extract_all, args=(frames,), kwargs={"use_grid_completion": False}, rounds=1, iterations=1
    )
    with_completion = extract_all(frames, use_grid_completion=True)

    def mean_color_error(results):
        errors = []
        for (plate, _, truth), result in zip(frames, results):
            for name in plate.used_wells:
                errors.append(float(np.linalg.norm(result.well_colors[name] - truth["colors"][name])))
        return float(np.mean(errors))

    error_with = mean_color_error(with_completion)
    error_without = mean_color_error(without_completion)
    report(
        "Grid-completion ablation (paper Section 2.4)",
        format_table(
            ["pipeline", "mean colour error"],
            [
                ("Hough + grid completion (paper)", f"{error_with:.2f}"),
                ("Hough detections snapped to nominal grid only", f"{error_without:.2f}"),
            ],
        ),
    )

    # Grid completion must not hurt, and the full pipeline stays accurate.
    assert error_with <= error_without + 1.0
    assert error_with < 10.0


def _filled_plate(index, chemistry, rng):
    plate = Plate(barcode=f"gate-{index}")
    for name in plate.empty_wells[:FILLED_WELLS]:
        well = plate.well(name)
        for dye, volume in zip(chemistry.dyes.names, rng.uniform(3.0, 75.0, size=4)):
            well.add(dye, float(volume))
    return plate


def _errors(plate, truth, result, color_errors, center_errors):
    for name in plate.used_wells:
        color_errors.append(float(np.linalg.norm(result.well_colors[name] - truth["colors"][name])))
        center = result.well_centers[name]
        center_errors.append(float(np.hypot(*np.subtract(center, truth["centers"][name]))))


def _pair_correlations(residuals):
    """Same-pixel correlation of every pair of rows of ``residuals``."""
    matrix = np.corrcoef(residuals)
    return matrix[np.triu_indices(len(residuals), k=1)]


def test_noise_bank_matches_iid_noise(report, iid_frame):
    """The pixel-noise bank against the former per-frame i.i.d. draw.

    Each of ``GATE_FRAMES`` keys renders one frame with the bank and one with
    i.i.d. noise (``iid_frame``).  Both arms share the key's plate and pose
    (the pose is drawn first from the key's stream), so they differ in their
    noise only.  The pipeline's per-well colour and centre errors must come
    from one distribution (two-sample KS at ``KS_ALPHA``), the noise
    residuals must spread alike, and the same-pixel correlation of every
    pair of bank frames' noise residuals must stay below the stated bounds.
    """
    chemistry = SubtractiveMixingModel()
    config = PlateImageConfig()
    extractor = WellColorExtractor()
    rng = np.random.default_rng(GATE_SEED)
    n_values = config.image_height * config.image_width * 3
    positions = np.sort(rng.choice(n_values, size=CORRELATION_PIXELS, replace=False))
    errors = {"bank": ([], []), "iid": ([], [])}
    residuals = {arm: np.empty((GATE_FRAMES, CORRELATION_PIXELS)) for arm in errors}
    for index in range(GATE_FRAMES):
        plate = _filled_plate(index, chemistry, rng)
        key = int(rng.integers(2**63))
        iid_image, truth, clean = iid_frame(plate, chemistry, np.random.default_rng(key))
        bank_image = render_plate_image(plate, chemistry, rng=np.random.default_rng(key))
        clean_values = clean.ravel()[positions]
        unclipped = (clean_values > 20.0) & (clean_values < 235.0)
        for arm, image in (("bank", bank_image), ("iid", iid_image)):
            _errors(plate, truth, extractor.extract(image), *errors[arm])
            residuals[arm][index] = np.where(unclipped, image.ravel()[positions] - clean_values, 0.0)

    ks = {
        quantity: stats.ks_2samp(errors["bank"][column], errors["iid"][column])
        for column, quantity in enumerate(("colour error", "centre error"))
    }
    correlations = {arm: _pair_correlations(residuals[arm]) for arm in residuals}
    shared = {arm: float(np.mean(np.abs(corr) > SHARED_NOISE_CORRELATION)) for arm, corr in correlations.items()}
    rows = [
        (
            f"well {quantity} (mean bank / iid)",
            f"{np.mean(errors['bank'][column]):.3f} / {np.mean(errors['iid'][column]):.3f}",
            f"KS p = {ks[quantity].pvalue:.3f}",
        )
        for column, quantity in enumerate(("colour error", "centre error"))
    ]
    spread = {arm: float(values[values != 0.0].std()) for arm, values in residuals.items()}
    rows.append(("noise residual spread (bank / iid)", f"{spread['bank']:.4f} / {spread['iid']:.4f}", ""))
    for arm, corr in correlations.items():
        rows.append(
            (
                f"{arm} same-pixel correlation",
                f"mean {corr.mean():+.5f}, max |r| {np.abs(corr).max():.4f}",
                f"pairs above {SHARED_NOISE_CORRELATION}: {shared[arm]:.2e}",
            )
        )
    report(
        f"Pixel-noise bank against i.i.d. noise ({GATE_FRAMES} frames, seed {GATE_SEED})",
        format_table(["quantity", "value", "test"], rows),
    )

    for quantity, result in ks.items():
        assert result.pvalue > KS_ALPHA, f"{quantity}: bank and i.i.d. distributions differ ({result})"
    # The errors barely move with the noise level (the extractor averages
    # hundreds of pixels per well), so the spread is checked on the pixels.
    assert spread["bank"] == pytest.approx(spread["iid"], rel=MAX_SPREAD_DIFFERENCE)
    assert shared["bank"] <= MAX_SHARED_PAIR_SHARE
    assert abs(correlations["bank"].mean()) < MAX_MEAN_CORRELATION
