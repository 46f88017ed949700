"""Tests for experiment configuration and result types."""

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig, ExperimentResult, SampleResult
from repro.core.metrics import SdlMetrics


class TestExperimentConfig:
    def test_defaults_match_paper_setup(self):
        config = ExperimentConfig()
        assert config.target.rgb == (120.0, 120.0, 120.0)
        assert config.n_samples == 128
        assert config.batch_size == 1
        assert config.solver == "evolutionary"

    def test_target_resolution_from_tuple(self):
        config = ExperimentConfig(target=(10, 20, 30), n_samples=4)
        assert config.target.rgb == (10.0, 20.0, 30.0)

    def test_ids_autogenerated(self):
        config = ExperimentConfig(n_samples=8, batch_size=2, seed=5)
        assert config.experiment_id
        assert "B2" in config.run_id

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 0},
            {"batch_size": 0},
            {"batch_size": 20, "n_samples": 10},
            {"distance_metric": "taxicab"},
            {"measurement": "telepathy"},
            {"direct_noise_sigma": -1.0},
            {"max_component_volume_ul": 0.0},
            {"success_threshold": -2.0},
            {"reservoir_low_threshold": 1.5},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_to_dict_serialisable(self):
        import json

        json.dumps(ExperimentConfig(seed=3).to_dict())


def make_result(scores, minutes_per_sample=4.0):
    config = ExperimentConfig(n_samples=len(scores), batch_size=1, seed=0)
    result = ExperimentResult(config=config)
    for index, score in enumerate(scores):
        result.samples.append(
            SampleResult(
                sample_index=index,
                iteration=index,
                well=f"A{index + 1}",
                plate_barcode="p",
                ratios=np.full(4, 0.5),
                volumes_ul={"cyan": 40.0},
                measured_rgb=np.array([100.0, 100.0, 100.0]),
                score=score,
                elapsed_s=(index + 1) * minutes_per_sample * 60.0,
            )
        )
    return result


class TestExperimentResult:
    def test_best_score_and_sample(self):
        result = make_result([30.0, 12.0, 18.0])
        assert result.best_score == 12.0
        assert result.best_sample.well == "A2"
        assert result.n_samples == 3

    def test_trajectory_is_monotone_nonincreasing(self):
        result = make_result([30.0, 35.0, 12.0, 40.0, 11.0])
        times, best = result.trajectory()
        assert len(times) == 5
        assert np.all(np.diff(best) <= 0)
        assert best[-1] == 11.0
        assert times[0] == pytest.approx(4.0)

    def test_empty_result(self):
        result = ExperimentResult(config=ExperimentConfig(n_samples=4))
        assert result.best_score == float("inf")
        assert result.best_sample is None
        times, best = result.trajectory()
        assert len(times) == 0
        assert result.elapsed_s == 0.0

    def test_elapsed_is_not_time_without_humans(self):
        result = make_result([10.0])
        result.elapsed_s = 1300.0
        result.metrics = SdlMetrics(
            time_without_humans_s=1234.0,
            commands_completed=3,
            synthesis_time_s=800.0,
            transfer_time_s=434.0,
            total_colors=1,
        )
        assert result.elapsed_s == 1300.0
        assert result.metrics.time_without_humans_s == 1234.0

    def test_to_dict_serialisable(self):
        import json

        json.dumps(make_result([10.0, 20.0]).to_dict())
