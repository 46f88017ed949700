"""Tests for the SDL metrics (Table 1)."""

import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import PAPER_TABLE1, SdlMetrics, compute_metrics
from repro.core.protocol import build_mix_protocol
from repro.sim.faults import FaultPolicy
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.workcell import build_color_picker_workcell
from repro.wei.workflow import WorkflowSpec


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
    def _run_one_iteration(self, engine):
        """One mixing iteration as a workflow; returns its step results."""
        spec = (
            WorkflowSpec(name="one_iteration")
            .add_step("sciclops", "get_plate")
            .add_step("pf400", "transfer", source="sciclops.exchange", target="camera.stage")
            .add_step("barty", "fill_colors")
            .add_step("pf400", "transfer", source="camera.stage", target="ot2.deck")
            .add_step("ot2", "run_protocol", protocol="$payload.protocol")
            .add_step("pf400", "transfer", source="ot2.deck", target="camera.stage")
            .add_step("camera", "take_picture")
        )
        protocol = build_mix_protocol(
            "mix", ["A1"], [[0.4, 0.2, 0.4, 0.1]], engine.workcell.chemistry.dyes.names, 80.0
        )
        return engine.run_workflow(spec, {"protocol": protocol}).steps

    def test_counts_robotic_commands_and_partitions_time(self, workcell):
        engine = ConcurrentWorkflowEngine(workcell)
        start = workcell.clock.now()
        steps = self._run_one_iteration(engine)
        end = workcell.clock.now()
        metrics = compute_metrics(steps, ot2="ot2", total_colors=1, start_time=start, end_time=end)
        # 6 robotic commands (camera imaging is not robotic).
        assert metrics.commands_completed == 6
        assert metrics.total_colors == 1
        assert metrics.synthesis_time_s > 0
        assert metrics.time_without_humans_s == pytest.approx(end - start)
        assert metrics.synthesis_time_s + metrics.transfer_time_s == pytest.approx(
            metrics.time_without_humans_s
        )

    def test_window_excludes_out_of_range_records(self, workcell):
        engine = ConcurrentWorkflowEngine(workcell)
        steps = self._run_one_iteration(engine)
        cutoff = workcell.clock.now()
        steps += engine.run_workflow(WorkflowSpec(name="home").add_step("pf400", "move_home")).steps
        assert workcell.clock.now() > cutoff
        metrics = compute_metrics(
            steps, ot2="ot2", total_colors=1, start_time=0.0, end_time=cutoff
        )
        assert metrics.commands_completed == 6

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], ot2="ot2", total_colors=0, start_time=10.0, end_time=0.0)

    def test_paper_reference_values_consistent(self):
        # The paper's own numbers satisfy the metric identities we rely on.
        assert PAPER_TABLE1["synthesis_time_s"] + PAPER_TABLE1["transfer_time_s"] == pytest.approx(
            PAPER_TABLE1["time_without_humans_s"]
        )
        assert PAPER_TABLE1["time_without_humans_s"] / PAPER_TABLE1["total_colors"] == pytest.approx(
            PAPER_TABLE1["time_per_color_s"], rel=0.05
        )


def device_log_metrics(workcell, *, total_colors, start_time, end_time):
    """Table 1 read from the workcell's device logs, for a run without interventions.

    The account camera-staged runs were once scored from: every successful
    robotic record counts as a command, every successful OT-2 record as
    synthesis.  Correct only when the run had the workcell to itself and no
    command was retried.
    """
    synthesis = 0.0
    commands = 0
    for module in workcell.modules.values():
        device = module.device
        for record in device.action_log:
            if record.start_time < start_time or record.end_time > end_time + 1e-9:
                continue
            if record.success and record.robotic:
                commands += 1
            if device.module_type == "ot2" and record.success:
                synthesis += record.duration
    elapsed = end_time - start_time
    return SdlMetrics(
        time_without_humans_s=elapsed,
        commands_completed=commands,
        synthesis_time_s=synthesis,
        transfer_time_s=max(elapsed - synthesis, 0.0),
        total_colors=total_colors,
    )


class TestAccountingPathsAgree:
    """On a fault-free run the run's own step results and the device logs
    must give the same Table 1, whatever the staging.

    128 samples use more than one 96-tip rack, so the run also issues the
    program's direct ``ot2.replace_tips`` action, whose step result the
    engine writes like any workflow step's.
    """

    @pytest.mark.parametrize("staging", ["camera", "ot2"])
    @pytest.mark.parametrize("seed", [816, 1])
    def test_step_results_reproduce_the_device_log_metrics(self, seed, staging):
        config = ExperimentConfig(n_samples=128, batch_size=8, seed=seed, publish=False)
        app = ColorPickerApp(config, staging=staging)
        start = app.workcell.clock.now()
        result = app.run()
        direct = [step for step in app._step_records if step.step_name.startswith("direct.")]
        assert [step.step_name for step in direct] == ["direct.ot2.replace_tips"]
        from_logs = device_log_metrics(
            app.workcell,
            total_colors=len(result.samples),
            start_time=start,
            end_time=app.workcell.clock.now(),
        )
        assert result.metrics.to_dict() == from_logs.to_dict()


class TestRetriedSynthesis:
    """Synthesis is the OT-2's busy time, retried attempts included."""

    def test_camera_staged_synthesis_counts_a_retried_run_protocol(self):
        config = ExperimentConfig(
            n_samples=24, batch_size=4, seed=30, publish=False, recover_from_failures=True
        )
        workcell = build_color_picker_workcell(
            seed=30, fault_policy=FaultPolicy.uniform(0.05, unrecoverable_fraction=0.5)
        )
        app = ColorPickerApp(config, workcell=workcell, staging="camera")
        result = app.run()
        ot2_steps = [step for step in app._step_records if step.module == "ot2" and step.success]
        assert any(step.action == "run_protocol" and step.retries > 0 for step in ot2_steps)
        assert result.metrics.synthesis_time_s == pytest.approx(
            sum(step.duration for step in ot2_steps)
        )
        # The device logs count only the successful attempt (2497.8 s).
        assert result.metrics.synthesis_time_s == pytest.approx(2699.1, abs=0.05)
