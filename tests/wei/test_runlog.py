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
        assert logger.workflow_counts() == {"wf_a": 2, "wf_b": 1}
        assert len(logger.runs_for("wf_a")) == 2
        assert logger.total_duration() > 0

    def test_module_busy_time(self, workcell):
        logger = RunLogger()
        run_some_workflows(workcell, logger)
        busy = logger.module_busy_time()
        assert busy["sciclops"] > 0
        assert busy["pf400"] > 0

    def test_per_run_files_written(self, workcell, tmp_path):
        logger = RunLogger(directory=tmp_path / "runs")
        run_some_workflows(workcell, logger)
        files = sorted((tmp_path / "runs").glob("*.json"))
        assert len(files) == 3
        data = json.loads(files[0].read_text())
        assert data["workflow_name"] == "wf_a"
        assert data["steps"][0]["duration"] > 0

    def test_dump_and_load(self, workcell, tmp_path):
        logger = RunLogger()
        run_some_workflows(workcell, logger)
        path = tmp_path / "all_runs.json"
        logger.dump(path)
        loaded = RunLogger.load_dicts(path)
        assert len(loaded) == 3
        assert loaded[1]["workflow_name"] == "wf_b"
