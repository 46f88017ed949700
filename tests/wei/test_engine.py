"""Tests for single-workflow execution (``ConcurrentWorkflowEngine.run_workflow``)."""

import pytest

from repro.sim.faults import FaultPolicy
from repro.wei import engine as engine_module
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.engine import WorkflowError
from repro.wei.workcell import build_color_picker_workcell
from repro.wei.workflow import WorkflowSpec


@pytest.fixture
def engine(workcell):
    return ConcurrentWorkflowEngine(workcell)


def newplate_spec():
    spec = WorkflowSpec(name="newplate")
    spec.add_step("sciclops", "get_plate")
    spec.add_step("pf400", "transfer", source="sciclops.exchange", target="camera.stage")
    return spec


class TestRunWorkflow:
    def test_steps_run_in_order_with_timing(self, engine, workcell):
        result = engine.run_workflow(newplate_spec())
        assert result.success
        assert [step.action for step in result.steps] == ["get_plate", "transfer"]
        assert result.duration > 0
        assert result.steps[0].end_time <= result.steps[1].start_time
        assert result.end_time == workcell.clock.now()
        assert result.commands == 2

    def test_payload_references_resolved(self, engine, workcell):
        workcell.module("sciclops").invoke("get_plate")
        spec = WorkflowSpec(name="move")
        spec.add_step("pf400", "transfer", source="$payload.src", target="$payload.dst")
        result = engine.run_workflow(spec, payload={"src": "sciclops.exchange", "dst": "camera.stage"})
        assert result.success
        assert workcell.deck.is_occupied("camera.stage")

    def test_missing_payload_key_raises(self, engine):
        spec = WorkflowSpec(name="move")
        spec.add_step("pf400", "transfer", source="$payload.src", target="camera.stage")
        with pytest.raises(WorkflowError):
            engine.run_workflow(spec, payload={})

    def test_unknown_module_raises(self, engine):
        spec = WorkflowSpec(name="bad").add_step("pcr", "run")
        with pytest.raises(Exception):
            engine.run_workflow(spec)

    def test_runs_are_logged(self, engine):
        engine.run_workflow(newplate_spec())
        engine.run_workflow(WorkflowSpec(name="status").add_step("sciclops", "status"))
        assert engine.run_logger.n_runs == 2
        assert engine.run_logger.workflow_counts() == {"newplate": 1, "status": 1}
        assert engine.runs_completed == 2

    def test_step_values_accessible_by_key(self, engine):
        result = engine.run_workflow(newplate_spec())
        values = result.step_values()
        assert "sciclops.get_plate" in values
        assert values["sciclops.get_plate"].barcode.startswith("sciclops")


class TestStepValuesRepeatedSteps:
    """Regression: the bare key used to return the *first* occurrence of a
    repeated step, so consumers silently read stale values."""

    def test_bare_key_is_last_occurrence(self, engine):
        spec = WorkflowSpec(name="inventory")
        spec.add_step("sciclops", "status")
        spec.add_step("sciclops", "get_plate")
        spec.add_step("sciclops", "status")
        result = engine.run_workflow(spec)
        values = result.step_values()
        before = values["sciclops.status#1"].details["plates_remaining"]
        after = values["sciclops.status#2"].details["plates_remaining"]
        assert after == before - 1
        # The bare key must track the freshest (last) occurrence.
        assert values["sciclops.status"].details["plates_remaining"] == after

    def test_every_occurrence_is_suffixed_from_one(self, engine):
        spec = WorkflowSpec(name="repeat")
        for _ in range(3):
            spec.add_step("sciclops", "status")
        values = engine.run_workflow(spec).step_values()
        assert {"sciclops.status", "sciclops.status#1", "sciclops.status#2", "sciclops.status#3"} <= set(values)


class TestFailureHandling:
    def test_recoverable_failures_are_retried(self):
        workcell = build_color_picker_workcell(
            seed=3, fault_policy=FaultPolicy(command_failure={"sciclops": 0.45}, unrecoverable_fraction=0.0)
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=25)
        spec = WorkflowSpec(name="stubborn")
        for _ in range(5):
            spec.add_step("sciclops", "status")
        result = engine.run_workflow(spec)
        assert result.success
        assert sum(step.retries for step in result.steps) > 0

    def test_exhausted_retries_fail_the_workflow(self):
        workcell = build_color_picker_workcell(
            seed=3, fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0)
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=2)
        with pytest.raises(WorkflowError):
            engine.run_workflow(WorkflowSpec(name="doomed").add_step("sciclops", "status"))
        assert engine.runs_failed == 1
        # The failed run is still recorded for post-hoc analysis.
        assert engine.run_logger.n_runs == 1
        assert not engine.run_logger.runs[0].success

    def test_workflow_error_carries_partial_run_result(self):
        workcell = build_color_picker_workcell(
            seed=3, fault_policy=FaultPolicy(command_failure={"pf400": 1.0}, unrecoverable_fraction=0.0)
        )
        engine = ConcurrentWorkflowEngine(workcell, max_retries=0)
        spec = WorkflowSpec(name="partial")
        spec.add_step("sciclops", "status")
        spec.add_step("pf400", "move_home")
        with pytest.raises(WorkflowError) as excinfo:
            engine.run_workflow(spec)
        partial = excinfo.value.run_result
        assert partial is not None and not partial.success
        # The successful prefix step is still accounted in the partial result.
        assert [step.success for step in partial.steps] == [True, False]

    def test_negative_retries_rejected(self, workcell):
        with pytest.raises(ValueError):
            ConcurrentWorkflowEngine(workcell, max_retries=-1)


class TestRunResultSerialisation:
    def test_to_dict_round_trips_key_fields(self, engine):
        result = engine.run_workflow(newplate_spec())
        data = result.to_dict()
        assert data["workflow_name"] == "newplate"
        assert len(data["steps"]) == 2
        assert data["steps"][0]["action"] == "get_plate"
        assert data["duration"] == pytest.approx(result.duration)


class TestEngineName:
    def test_workflow_engine_name_is_the_one_engine(self):
        assert engine_module.WorkflowEngine is ConcurrentWorkflowEngine
        assert "run_workflow" in vars(engine_module.WorkflowEngine)

    def test_unknown_module_attribute_raises(self):
        with pytest.raises(AttributeError):
            engine_module.SequentialEngine
