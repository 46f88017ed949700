"""Tests for the run logger."""

import json

from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.runlog import RunLogger
from repro.wei.workflow import WorkflowSpec


def run_some_workflows(workcell, logger):
    engine = ConcurrentWorkflowEngine(workcell, run_logger=logger)
    engine.run_workflow(WorkflowSpec(name="wf_a").add_step("sciclops", "status"))
    engine.run_workflow(WorkflowSpec(name="wf_b").add_step("sciclops", "status").add_step("pf400", "move_home"))
    engine.run_workflow(WorkflowSpec(name="wf_a").add_step("sciclops", "status"))
    return engine


class TestRecording:
    def test_counts_and_queries(self, workcell):
        logger = RunLogger()
        run_some_workflows(workcell, logger)
        assert logger.n_runs == 3
        assert [run.workflow_name for run in logger.runs] == ["wf_a", "wf_b", "wf_a"]
        assert all(run.duration > 0 for run in logger.runs)

    def test_per_run_files_written(self, workcell, tmp_path):
        logger = RunLogger(directory=tmp_path / "runs")
        run_some_workflows(workcell, logger)
        files = sorted((tmp_path / "runs").glob("*.json"))
        assert len(files) == 3
        data = json.loads(files[0].read_text())
        assert data["workflow_name"] == "wf_a"
        assert data["steps"][0]["duration"] > 0
