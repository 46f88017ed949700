"""Tests for failure recovery and the intervention-aware TWH metric."""

import pytest

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import compute_metrics
from repro.core.protocol import build_mix_protocol
from repro.sim.faults import FaultPolicy
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.engine import WorkflowError
from repro.wei.workcell import build_color_picker_workcell
from repro.wei.workflow import WorkflowSpec


class TestInterventionMetrics:
    def _busy_run(self):
        """Steps of one mixing workflow on a fresh workcell, and its end time."""
        workcell = build_color_picker_workcell(seed=1)
        spec = (
            WorkflowSpec(name="busy")
            .add_step("sciclops", "get_plate")
            .add_step("pf400", "transfer", source="sciclops.exchange", target="camera.stage")
            .add_step("pf400", "transfer", source="camera.stage", target="ot2.deck")
            .add_step("barty", "fill_colors")
            .add_step("ot2", "run_protocol", protocol="$payload.protocol")
            .add_step("pf400", "transfer", source="ot2.deck", target="camera.stage")
        )
        protocol = build_mix_protocol(
            "mix", ["A1"], [[0.3, 0.3, 0.3, 0.1]], workcell.chemistry.dyes.names, 80.0
        )
        steps = ConcurrentWorkflowEngine(workcell).run_workflow(spec, {"protocol": protocol}).steps
        return steps, workcell.clock.now()

    def test_no_interventions_scores_whole_run(self):
        steps, end = self._busy_run()
        metrics = compute_metrics(steps, ot2="ot2", total_colors=1, start_time=0.0, end_time=end)
        assert metrics.interventions == 0
        assert metrics.time_without_humans_s == pytest.approx(end)

    def test_twh_is_longest_segment_between_interventions(self):
        steps, end = self._busy_run()
        # One intervention a quarter of the way in: TWH is the later segment.
        metrics = compute_metrics(
            steps,
            ot2="ot2",
            total_colors=1,
            start_time=0.0,
            end_time=end,
            intervention_times=[end * 0.25],
        )
        assert metrics.interventions == 1
        assert metrics.time_without_humans_s == pytest.approx(end * 0.75)
        whole_run = compute_metrics(
            steps, ot2="ot2", total_colors=1, start_time=0.0, end_time=end
        )
        assert metrics.commands_completed <= whole_run.commands_completed

    def test_interventions_outside_window_are_ignored(self):
        steps, end = self._busy_run()
        metrics = compute_metrics(
            steps,
            ot2="ot2",
            total_colors=1,
            start_time=0.0,
            end_time=end,
            intervention_times=[end + 100.0, -5.0],
        )
        assert metrics.interventions == 0
        assert metrics.time_without_humans_s == pytest.approx(end)


class TestRecoveringApplication:
    def _recovering_run(
        self, failure_rate, seed=44, n_samples=20, max_interventions=50, staging="camera"
    ):
        config = ExperimentConfig(
            n_samples=n_samples,
            batch_size=4,
            seed=seed,
            measurement="direct",
            publish=False,
            recover_from_failures=True,
            max_interventions=max_interventions,
        )
        workcell = build_color_picker_workcell(
            seed=seed,
            fault_policy=FaultPolicy.uniform(failure_rate, unrecoverable_fraction=1.0),
        )
        app = ColorPickerApp(config, workcell=workcell, staging=staging)
        return app, workcell, app.run()

    def test_run_completes_despite_unrecoverable_failures(self):
        _, _, result = self._recovering_run(failure_rate=0.12)
        assert result.n_samples == 20
        assert result.interventions >= 1
        assert result.metrics.interventions == result.interventions

    def test_twh_shrinks_relative_to_total_elapsed(self):
        _, workcell, result = self._recovering_run(failure_rate=0.12)
        total_elapsed = workcell.clock.now()
        assert result.metrics.time_without_humans_s < total_elapsed

    def test_elapsed_is_the_run_duration_interventions_included(self):
        config = ExperimentConfig(
            n_samples=24, batch_size=4, seed=30, publish=False, recover_from_failures=True
        )
        workcell = build_color_picker_workcell(
            seed=30, fault_policy=FaultPolicy.uniform(0.05, unrecoverable_fraction=0.5)
        )
        start = workcell.clock.now()
        result = ColorPickerApp(config, workcell=workcell, staging="camera").run()
        assert result.interventions == 1
        assert result.elapsed_s == pytest.approx(workcell.clock.now() - start)
        assert result.elapsed_s == pytest.approx(4018.6, abs=0.05)
        # Time without humans is the longer stretch after the intervention.
        assert result.metrics.time_without_humans_s == pytest.approx(3862.5, abs=0.05)
        last_sample = max(sample.elapsed_s for sample in result.samples)
        assert last_sample == pytest.approx(3897.1, abs=0.05)
        assert result.elapsed_s >= last_sample

    @pytest.mark.parametrize("staging", ["camera", "ot2"])
    def test_intervention_trashes_compromised_plate(self, staging):
        _, workcell, result = self._recovering_run(failure_rate=0.12, staging=staging)
        # Deck is clean at the end: nothing left at the camera or OT-2.
        assert not workcell.deck.is_occupied("camera.stage")
        assert not workcell.deck.is_occupied("ot2.deck")
        assert len(workcell.deck.trashed_plates) >= result.interventions

    def test_max_interventions_cap_eventually_reraises(self):
        with pytest.raises(WorkflowError):
            self._recovering_run(failure_rate=0.6, max_interventions=1, n_samples=40)

    def test_clean_run_records_no_interventions(self):
        config = ExperimentConfig(
            n_samples=8, batch_size=4, seed=2, publish=False, recover_from_failures=True
        )
        result = ColorPickerApp(config).run()
        assert result.interventions == 0
        assert result.metrics.interventions == 0
