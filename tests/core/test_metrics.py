"""Tests for the SDL metrics (Table 1)."""

import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import (
    PAPER_TABLE1,
    SdlMetrics,
    compute_metrics,
    metrics_from_step_results,
)
from repro.core.protocol import build_mix_protocol


class TestSdlMetrics:
    def test_derived_quantities(self):
        metrics = SdlMetrics(
            time_without_humans_s=29520.0,  # 8 h 12 m
            commands_completed=387,
            synthesis_time_s=18600.0,
            transfer_time_s=10920.0,
            total_colors=128,
        )
        assert metrics.time_per_color_s == pytest.approx(230.6, abs=0.5)
        assert metrics.synthesis_fraction == pytest.approx(0.63, abs=0.01)

    def test_zero_colors_gives_infinite_time_per_color(self):
        metrics = SdlMetrics(100.0, 0, 0.0, 100.0, total_colors=0)
        assert metrics.time_per_color_s == float("inf")

    def test_table_rendering_matches_paper_format(self):
        metrics = SdlMetrics(
            time_without_humans_s=PAPER_TABLE1["time_without_humans_s"],
            commands_completed=387,
            synthesis_time_s=PAPER_TABLE1["synthesis_time_s"],
            transfer_time_s=PAPER_TABLE1["transfer_time_s"],
            total_colors=128,
        )
        table = metrics.as_table()
        assert "8 hours 12 mins" in table
        assert "387" in table
        assert "Time per color" in table

    def test_to_dict_keys(self):
        metrics = SdlMetrics(100.0, 5, 60.0, 40.0, 10)
        data = metrics.to_dict()
        assert set(data) >= {
            "time_without_humans_s",
            "commands_completed",
            "synthesis_time_s",
            "transfer_time_s",
            "total_colors",
            "time_per_color_s",
            "synthesis_fraction",
        }


class TestComputeMetrics:
    def _run_one_iteration(self, workcell):
        workcell.module("sciclops").submit("get_plate").complete()
        workcell.module("pf400").submit("transfer", source="sciclops.exchange", target="camera.stage").complete()
        workcell.module("barty").submit("fill_colors").complete()
        workcell.module("pf400").submit("transfer", source="camera.stage", target="ot2.deck").complete()
        protocol = build_mix_protocol(
            "mix", ["A1"], [[0.4, 0.2, 0.4, 0.1]], workcell.chemistry.dyes.names, 80.0
        )
        workcell.module("ot2").submit("run_protocol", protocol=protocol).complete()
        workcell.module("pf400").submit("transfer", source="ot2.deck", target="camera.stage").complete()
        workcell.module("camera").submit("take_picture").complete()

    def test_counts_robotic_commands_and_partitions_time(self, workcell):
        start = workcell.clock.now()
        self._run_one_iteration(workcell)
        end = workcell.clock.now()
        metrics = compute_metrics(workcell, total_colors=1, start_time=start, end_time=end)
        # 6 robotic commands (camera imaging is not robotic).
        assert metrics.commands_completed == 6
        assert metrics.total_colors == 1
        assert metrics.synthesis_time_s > 0
        assert metrics.time_without_humans_s == pytest.approx(end - start)
        assert metrics.synthesis_time_s + metrics.transfer_time_s == pytest.approx(
            metrics.time_without_humans_s
        )

    def test_window_excludes_out_of_range_records(self, workcell):
        self._run_one_iteration(workcell)
        cutoff = workcell.clock.now()
        workcell.module("pf400").submit("move_home").complete()
        metrics = compute_metrics(workcell, total_colors=1, start_time=0.0, end_time=cutoff)
        assert metrics.commands_completed == 6

    def test_invalid_window_rejected(self, workcell):
        with pytest.raises(ValueError):
            compute_metrics(workcell, total_colors=0, start_time=10.0, end_time=0.0)

    def test_paper_reference_values_consistent(self):
        # The paper's own numbers satisfy the metric identities we rely on.
        assert PAPER_TABLE1["synthesis_time_s"] + PAPER_TABLE1["transfer_time_s"] == pytest.approx(
            PAPER_TABLE1["time_without_humans_s"]
        )
        assert PAPER_TABLE1["time_without_humans_s"] / PAPER_TABLE1["total_colors"] == pytest.approx(
            PAPER_TABLE1["time_per_color_s"], rel=0.05
        )


class TestAccountingPathsAgree:
    """Camera staging scores Table 1 from the device logs, OT-2 staging from
    the run's own step results; on a fault-free run both must read the same.

    128 samples use more than one 96-tip rack, so the run also issues the
    program's direct ``ot2.replace_tips`` action, whose step result the
    engine writes like any workflow step's.
    """

    @pytest.mark.parametrize("seed", [816, 1])
    def test_step_results_reproduce_the_device_log_metrics(self, seed):
        config = ExperimentConfig(n_samples=128, batch_size=8, seed=seed, publish=False)
        app = ColorPickerApp(config)
        start = app.workcell.clock.now()
        result = app.run()
        direct = [step for step in app._step_records if step.step_name.startswith("direct.")]
        assert [step.step_name for step in direct] == ["direct.ot2.replace_tips"]
        from_steps = metrics_from_step_results(
            app._step_records,
            ot2_modules={"ot2"},
            total_colors=len(result.samples),
            start_time=start,
            end_time=app.workcell.clock.now(),
            intervention_times=result.intervention_times,
        )
        assert from_steps.to_dict() == result.metrics.to_dict()
