"""Tests for the colour-picker application (unit level)."""

import numpy as np
import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.publish.portal import DataPortal
from repro.solvers.oracle import OracleSolver
from repro.wei.workcell import build_color_picker_workcell


def small_config(**kwargs):
    defaults = dict(n_samples=12, batch_size=4, seed=21, measurement="direct", publish=True)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRun:
    def test_produces_requested_number_of_samples(self):
        result = ColorPickerApp(small_config()).run()
        assert result.n_samples == 12
        assert len({s.well for s in result.samples}) == 12
        assert result.metrics is not None

    def test_sample_scores_match_distance_to_target(self):
        config = small_config()
        result = ColorPickerApp(config).run()
        target = config.target.as_array()
        for sample in result.samples:
            expected = np.linalg.norm(sample.measured_rgb - target)
            assert sample.score == pytest.approx(expected, rel=1e-9)

    def test_elapsed_times_are_increasing(self):
        result = ColorPickerApp(small_config(batch_size=1)).run()
        times = [s.elapsed_s for s in sorted(result.samples, key=lambda s: s.sample_index)]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_workflow_counts_match_figure2_flow(self):
        result = ColorPickerApp(small_config(batch_size=4)).run()
        assert result.workflow_counts["cp_wf_newplate"] == 1
        assert result.workflow_counts["cp_wf_mix_colors"] == 3
        assert result.workflow_counts["cp_wf_trashplate"] == 1

    def test_seed_reproducibility(self):
        result_a = ColorPickerApp(small_config()).run()
        result_b = ColorPickerApp(small_config()).run()
        assert result_a.best_score == pytest.approx(result_b.best_score)
        np.testing.assert_allclose(
            [s.score for s in result_a.samples], [s.score for s in result_b.samples]
        )

    def test_different_seeds_differ(self):
        result_a = ColorPickerApp(small_config(seed=1)).run()
        result_b = ColorPickerApp(small_config(seed=2)).run()
        assert not np.allclose(
            [s.score for s in result_a.samples], [s.score for s in result_b.samples]
        )

    def test_success_threshold_terminates_early(self):
        workcell = build_color_picker_workcell(seed=9)
        config = small_config(n_samples=64, batch_size=4, success_threshold=6.0, publish=False)
        solver = OracleSolver(
            seed=0,
            chemistry=workcell.chemistry,
            target_rgb=config.target.rgb,
            max_component_volume_ul=config.max_component_volume_ul,
        )
        result = ColorPickerApp(config, workcell=workcell, solver=solver).run()
        assert result.terminated_early
        assert result.n_samples < 64
        assert result.best_score <= 6.0 + 3 * config.direct_noise_sigma

    def test_publication_receipts_per_iteration(self):
        result = ColorPickerApp(small_config(batch_size=4)).run()
        assert len(result.publication_receipts) == 3
        assert all(receipt["success"] for receipt in result.publication_receipts)

    def test_publish_disabled(self):
        portal = DataPortal()
        result = ColorPickerApp(small_config(publish=False), portal=portal).run()
        assert result.publication_receipts == []
        assert portal.n_runs == 0

    def test_portal_receives_cumulative_record(self):
        portal = DataPortal()
        config = small_config()
        ColorPickerApp(config, portal=portal).run()
        record = portal.get_run(config.run_id)
        assert record.n_samples == 12
        assert record.solver == "evolutionary"

    def test_record_elapsed_is_relative_to_the_run_start(self):
        # The second run starts where the first left the shared clock; its
        # record must still time the run itself, like its samples do.
        workcell = build_color_picker_workcell(seed=5)
        portal = DataPortal()
        for run_id in ("first", "second"):
            config = small_config(n_samples=4, batch_size=2, seed=5, run_id=run_id)
            start = workcell.clock.now()
            result = ColorPickerApp(config, workcell=workcell, portal=portal).run()
            elapsed = portal.get_run(run_id).timings["elapsed_s"]
            last_sample = max(sample.elapsed_s for sample in result.samples)
            assert last_sample < elapsed <= workcell.clock.now() - start

    def test_vision_measurement_mode(self):
        config = small_config(n_samples=4, batch_size=2, measurement="vision", publish=False)
        result = ColorPickerApp(config).run()
        assert result.n_samples == 4
        # Vision readings should still be close to chemistry predictions.
        assert result.best_score < 250.0

    def test_plate_swap_when_budget_exceeds_plate_capacity(self):
        config = ExperimentConfig(
            n_samples=100, batch_size=50, seed=4, measurement="direct", publish=False
        )
        result = ColorPickerApp(config).run()
        assert result.n_samples == 100
        assert result.workflow_counts["cp_wf_newplate"] == 2
        assert result.workflow_counts["cp_wf_trashplate"] == 2
        barcodes = {s.plate_barcode for s in result.samples}
        assert len(barcodes) == 2

    def test_solver_mismatch_rejected(self):
        workcell = build_color_picker_workcell(seed=1)
        solver = OracleSolver(
            n_dyes=3,
            seed=0,
            chemistry=__import__("repro").SubtractiveMixingModel(
                dye_set=__import__("repro").DyeSet.cmy()
            ),
            target_rgb=[120, 120, 120],
        )
        with pytest.raises(ValueError, match="dyes"):
            ColorPickerApp(small_config(), workcell=workcell, solver=solver)


class TestMetricsIntegration:
    def test_metrics_partition_and_command_count(self):
        result = ColorPickerApp(small_config(batch_size=1, n_samples=8)).run()
        metrics = result.metrics
        assert metrics.total_colors == 8
        assert metrics.synthesis_time_s + metrics.transfer_time_s == pytest.approx(
            metrics.time_without_humans_s
        )
        # 3 robotic commands per iteration + plate handling.
        assert 8 * 3 <= metrics.commands_completed <= 8 * 3 + 8

    def test_batch_size_reduces_total_time_but_not_samples(self):
        small = ColorPickerApp(small_config(batch_size=1, n_samples=16, seed=5)).run()
        large = ColorPickerApp(small_config(batch_size=16, n_samples=16, seed=5)).run()
        assert small.n_samples == large.n_samples == 16
        assert large.elapsed_s < small.elapsed_s
