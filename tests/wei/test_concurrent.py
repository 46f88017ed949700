"""Tests for the event-driven concurrent workflow engine."""

from collections import deque

import pytest

from repro.core.protocol import build_mix_protocol
from repro.hardware.labware import Plate
from repro.obs import tracer as obs_tracer
from repro.sim.faults import FaultPolicy
from repro.wei import concurrent as concurrent_module
from repro.wei.concurrent import ConcurrencyError, ConcurrentWorkflowEngine, RunSpanHooks, claim_jobs
from repro.wei.engine import StepResult, WorkflowError
from repro.wei.workflow import WorkflowSpec


def mix_spec(ot2: str) -> WorkflowSpec:
    """The staging="ot2" mix chain: mix, visit the camera, come back."""
    deck_location = f"{ot2}.deck"
    spec = WorkflowSpec(name=f"mix_{ot2}")
    spec.add_step(ot2, "run_protocol", protocol="$payload.protocol")
    spec.add_step("pf400", "transfer", source=deck_location, target="camera.stage")
    spec.add_step("camera", "take_picture")
    spec.add_step("pf400", "transfer", source="camera.stage", target=deck_location)
    return spec


def stage_lane(workcell, ot2: str, wells_offset: int = 0):
    """Put a fresh plate on the OT-2 deck and fill its reservoirs."""
    device = workcell.module(ot2).device
    plate = Plate(barcode=f"bench-{ot2}")
    workcell.deck.place(plate, device.deck_location)
    for reservoir in device.reservoirs.values():
        reservoir.fill()
    return plate


def protocol_for(workcell, n_wells: int, start: int = 0, name: str = "proto"):
    dye_names = workcell.chemistry.dyes.names
    plate = Plate(barcode="naming-only")
    wells = plate.empty_wells[start : start + n_wells]
    ratios = [[0.25, 0.25, 0.25, 0.25]] * n_wells
    return build_mix_protocol(
        name=name, wells=wells, ratios=ratios, dye_names=dye_names, max_component_volume_ul=40.0
    )


class TestConcurrentExecution:
    def test_two_lanes_interleave_and_beat_sequential(self, make_workcell):
        """The core Section 4 claim: two OT-2s, one workload, smaller makespan."""
        def run(n_ot2, concurrent):
            workcell = make_workcell(seed=11, n_ot2=n_ot2)
            lanes = [name for name, _ in workcell.ot2_barty_pairs()][:2]
            payloads = []
            specs = []
            for index in range(4):
                ot2 = lanes[index % len(lanes)]
                specs.append(mix_spec(ot2))
                payloads.append({"protocol": protocol_for(workcell, 8, start=8 * (index // len(lanes)))})
            for ot2 in lanes:
                stage_lane(workcell, ot2)
            engine = ConcurrentWorkflowEngine(workcell)
            if concurrent:
                results = engine.run_all(specs, payloads)
            else:
                # One workflow in flight at a time: each run finishes before
                # the next is submitted.
                results = [engine.run_workflow(s, payload=p) for s, p in zip(specs, payloads)]
            return engine.makespan, results

        sequential_makespan, _ = run(2, concurrent=False)
        concurrent_makespan, results = run(2, concurrent=True)
        assert all(result.success for result in results)
        assert concurrent_makespan < sequential_makespan
        # Mix time dominates, so two lanes should get close to a 2x speedup.
        assert concurrent_makespan < 0.75 * sequential_makespan

    def test_module_reservations_never_overlap(self, make_workcell):
        workcell = make_workcell(seed=5, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        specs = [mix_spec("ot2"), mix_spec("ot2_2"), mix_spec("ot2"), mix_spec("ot2_2")]
        payloads = [
            {"protocol": protocol_for(workcell, 4, start=4 * (i // 2))} for i in range(4)
        ]
        engine.run_all(specs, payloads)
        for name, timeline in engine.timelines.items():
            intervals = sorted(timeline.intervals)
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end - 1e-9, f"overlapping reservations on {name}"

    def test_results_match_submission_order_and_are_logged(self, make_workcell):
        workcell = make_workcell(seed=2, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        results = engine.run_all(
            [mix_spec("ot2"), mix_spec("ot2_2")],
            [{"protocol": protocol_for(workcell, 2)}, {"protocol": protocol_for(workcell, 2)}],
        )
        assert [r.workflow_name for r in results] == ["mix_ot2", "mix_ot2_2"]
        assert [run.success for run in engine.run_logger.runs] == [True, True]
        assert engine.run_logger.n_runs == 2
        # Step values keep working through the concurrent path.
        assert "camera.take_picture" in results[0].step_values()

    def test_camera_stage_contention_is_serialised(self, make_workcell):
        """Both lanes photograph on the single camera nest without colliding."""
        workcell = make_workcell(seed=7, n_ot2=2)
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)
        results = engine.run_all(
            [mix_spec("ot2"), mix_spec("ot2_2")],
            [{"protocol": protocol_for(workcell, 2)}, {"protocol": protocol_for(workcell, 2)}],
        )
        assert all(result.success for result in results)
        # The camera.stage slot is held from arrival to departure; those
        # windows must not overlap between the two plates.
        windows = []
        for result in results:
            arrive = next(s for s in result.steps if s.action == "transfer" and s.step_name.endswith(".1"))
            depart = next(s for s in result.steps if s.step_name.endswith(".3"))
            windows.append((arrive.end_time, depart.end_time))
        windows.sort()
        assert windows[1][0] >= windows[0][1] - 1e-9
        assert not workcell.deck.is_occupied("camera.stage")

    def test_deterministic_given_same_seed(self, make_workcell):
        def makespan():
            workcell = make_workcell(seed=3, n_ot2=2)
            for ot2 in ("ot2", "ot2_2"):
                stage_lane(workcell, ot2)
            engine = ConcurrentWorkflowEngine(workcell)
            engine.run_all(
                [mix_spec("ot2"), mix_spec("ot2_2")],
                [{"protocol": protocol_for(workcell, 3)}, {"protocol": protocol_for(workcell, 3)}],
            )
            return engine.makespan

        assert makespan() == pytest.approx(makespan())


class TestFaultsAndFailures:
    def test_recoverable_failures_are_retried(self, make_workcell, monkeypatch):
        monkeypatch.setattr(concurrent_module, "MAX_STEP_RETRIES", 25)
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 0.4}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell)
        spec = WorkflowSpec(name="stubborn")
        for _ in range(6):
            spec.add_step("sciclops", "status")
        result = engine.run_all([spec])[0]
        assert result.success
        assert sum(step.retries for step in result.steps) > 0

    def test_exhausted_retries_fail_the_run_and_are_recorded(self, make_workcell, monkeypatch):
        monkeypatch.setattr(concurrent_module, "MAX_STEP_RETRIES", 1)
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell)
        handle = engine.submit(WorkflowSpec(name="doomed").add_step("sciclops", "status"))
        with pytest.raises(WorkflowError):
            engine.run_until_complete()
        assert handle.done and not handle.success
        assert [run.success for run in engine.run_logger.runs] == [False]
        assert not engine.run_logger.runs[0].success

    def test_stalled_execution_raises_concurrency_error(self, make_workcell):
        workcell = make_workcell(seed=1)
        # A plate sits on the camera stage and nothing will ever remove it.
        workcell.deck.place(Plate(barcode="blocker"), "camera.stage")
        workcell.deck.place(Plate(barcode="mover"), "ot2.deck")
        engine = ConcurrentWorkflowEngine(workcell)
        spec = WorkflowSpec(name="stuck").add_step(
            "pf400", "transfer", source="ot2.deck", target="camera.stage"
        )
        engine.submit(spec)
        with pytest.raises(ConcurrencyError, match="stalled"):
            engine.run_until_complete()


class TestPrograms:
    def test_program_protocol_roundtrip(self, make_workcell):
        workcell = make_workcell(seed=9)
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            spec = WorkflowSpec(name="fetch").add_step("sciclops", "get_plate")
            result = yield ("workflow", spec, None)
            yield ("sleep", 30.0)
            step = yield ("action", "pf400", "move_home", {})
            return (result.success, step.module)

        handle = engine.submit_program(program(), name="demo")
        engine.run_until_complete()
        assert handle.success
        assert handle.result == (True, "pf400")
        assert engine.makespan > 30.0

    def test_workflow_failure_is_thrown_into_program(self, make_workcell, monkeypatch):
        monkeypatch.setattr(concurrent_module, "MAX_STEP_RETRIES", 0)
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            spec = WorkflowSpec(name="doomed").add_step("sciclops", "status")
            try:
                yield ("workflow", spec, None)
            except WorkflowError:
                return "recovered"
            return "unreachable"

        handle = engine.submit_program(program(), name="recoverer")
        engine.run_until_complete(raise_errors=False)
        assert handle.result == "recovered"

    def test_an_earlier_failure_is_not_raised_again(self, make_workcell, monkeypatch):
        """Each call raises only the errors of the programs it ran: a failed
        workflow does not fail the next, successful one on the same engine."""
        monkeypatch.setattr(concurrent_module, "MAX_STEP_RETRIES", 0)
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell)
        with pytest.raises(WorkflowError, match="doomed"):
            engine.run_workflow(WorkflowSpec(name="doomed").add_step("sciclops", "status"))
        result = engine.run_workflow(WorkflowSpec(name="home").add_step("pf400", "move_home"))
        assert result.success
        assert [run.success for run in engine.run_logger.runs] == [False, True]
        assert engine._programs == []

    def test_action_request_resumes_with_its_step_result(self, make_workcell):
        workcell = make_workcell(seed=4)
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            step = yield ("action", "pf400", "move_home", {})
            return step

        handle = engine.submit_program(program(), name="direct")
        engine.run_until_complete()
        step = handle.result
        record = workcell.module("pf400").device.action_log[-1]
        assert isinstance(step, StepResult)
        assert step.step_name == "direct.pf400.move_home"
        assert (step.module, step.action) == ("pf400", "move_home")
        assert (step.start_time, step.end_time) == (record.start_time, record.end_time)
        assert step.success and step.commands == 1 and step.robotic_commands == 1
        assert step.return_value is record

    def test_failing_action_request_throws_the_device_error(self, make_workcell):
        workcell = make_workcell(
            seed=4,
            fault_policy=FaultPolicy(command_failure={"pf400": 1.0}, unrecoverable_fraction=0.0),
        )
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            try:
                yield ("action", "pf400", "move_home", {})
            except WorkflowError as error:
                return str(error)
            return "unreachable"

        handle = engine.submit_program(program(), name="direct")
        engine.run_until_complete()
        # The one attempt failed (a direct action gets no retries) and its
        # message carries the device's CommandFailure text.
        assert [record.success for record in workcell.module("pf400").device.action_log] == [False]
        assert handle.result == (
            "action pf400.move_home failed: injected failure in command pf400.move_home"
        )

    def test_unknown_request_kind_errors_the_program(self, make_workcell):
        workcell = make_workcell(seed=1)
        engine = ConcurrentWorkflowEngine(workcell)

        def program():
            yield ("teleport", "ot2")

        handle = engine.submit_program(program(), name="bad")
        with pytest.raises(ValueError, match="teleport"):
            engine.run_until_complete()
        assert handle.done and handle.error is not None


class TestOneTaskModel:
    """Workflows and direct actions run as one kind of task: these pins hold
    the interleaving and the span tree that model must reproduce."""

    #: ``(step_name, start_time, end_time, retries)`` of every step the two
    #: programs of the test below ran, in each program's own order.
    GOLDEN_MIXER = [
        ("direct.ot2.replace_tips", 0.0, 27.972046886223453, 0),
        ("mix_ot2.0", 27.972046886223453, 227.81844084893805, 0),
        ("mix_ot2.1", 227.81844084893805, 269.13437093311654, 0),
        ("mix_ot2.2", 269.13437093311654, 272.7677634322341, 0),
        ("mix_ot2.3", 272.7677634322341, 311.76387267875134, 0),
        # Requested at 311.8 s, when mix_ot2.3's completion freed the camera
        # stage: the pf400 transfer parked on it was queued first.
        ("direct.pf400.move_home", 350.1960370724, 363.2011248602412, 0),
    ]
    GOLDEN_DOOMED = [
        ("mix_ot2_2.0", 0.0, 233.95591969556548, 0),
        # Parked until the mixer's plate leaves the camera stage at 311.8 s.
        ("mix_ot2_2.1", 311.76387267875134, 350.1960370724, 0),
        ("mix_ot2_2.2", 350.1960370724, 354.01872337821317, 0),
        ("mix_ot2_2.3", 363.2011248602412, 405.27629914113294, 0),
        ("mix_ot2_2.4", 405.27629914113294, 406.7727267267366, 1),
        ("mix_ot2_2.5", 406.7727267267366, 408.21870830715756, 2),
    ]

    def test_golden_two_lane_interleaving(self, make_workcell):
        workcell = make_workcell(
            seed=2,
            n_ot2=2,
            fault_policy=FaultPolicy(command_failure={"sciclops": 0.5}, unrecoverable_fraction=0.0),
        )
        for ot2 in ("ot2", "ot2_2"):
            stage_lane(workcell, ot2)
        engine = ConcurrentWorkflowEngine(workcell)

        def mixer():
            tips = yield ("action", "ot2", "replace_tips", {})
            result = yield ("workflow", mix_spec("ot2"), {"protocol": protocol_for(workcell, 2)})
            home = yield ("action", "pf400", "move_home", {})
            return [tips, *result.steps, home]

        def doomed():
            spec = mix_spec("ot2_2")
            for _ in range(6):
                spec.add_step("sciclops", "status")
            try:
                yield ("workflow", spec, {"protocol": protocol_for(workcell, 2)})
            except WorkflowError as error:
                return error.run_result.steps
            return None

        mixer_handle = engine.submit_program(mixer(), name="mixer")
        doomed_handle = engine.submit_program(doomed(), name="doomed")
        engine.run_until_complete()

        def pinned(steps):
            return [(s.step_name, s.start_time, s.end_time, s.retries) for s in steps]

        assert pinned(mixer_handle.result) == self.GOLDEN_MIXER
        # The sixth step exhausted its two retries; the fifth was retried once.
        assert pinned(doomed_handle.result) == self.GOLDEN_DOOMED
        assert [step.success for step in doomed_handle.result] == [True] * 5 + [False]
        assert [run.success for run in engine.run_logger.runs] == [True, False]

    def test_span_parentage(self, make_workcell):
        tracer = obs_tracer.install(obs_tracer.Tracer())
        try:
            engine = ConcurrentWorkflowEngine(make_workcell(seed=9))
            hooks = RunSpanHooks(engine, "lane")

            def job(_):
                yield ("workflow", WorkflowSpec(name="fetch").add_step("sciclops", "get_plate"), None)
                yield ("action", "pf400", "move_home", {})

            lane = claim_jobs(deque([(0, None)]), [None], job, hooks.claimed, on_done=hooks.done)
            engine.submit_program(lane, name="lane")
            engine.submit(WorkflowSpec(name="solo").add_step("sciclops", "status"))
            engine.run_until_complete()
            spans = tracer.drain()
        finally:
            obs_tracer.uninstall()
        (run,) = [s for s in spans if s.name == "run"]
        workflows = {s.attrs["workflow"]: s for s in spans if s.name == "workflow"}
        actions = {s.attrs["label"]: s for s in spans if s.name == "action"}
        assert set(workflows) == {"fetch", "solo"}
        assert set(actions) == {"fetch.0:sciclops.get_plate", "lane:pf400.move_home", "solo.0:sciclops.status"}
        assert run.parent_id is None
        assert workflows["fetch"].parent_id == run.span_id
        assert actions["fetch.0:sciclops.get_plate"].parent_id == workflows["fetch"].span_id
        assert actions["lane:pf400.move_home"].parent_id == run.span_id
        assert workflows["solo"].parent_id is None
        assert actions["solo.0:sciclops.status"].parent_id == workflows["solo"].span_id


class TestValidation:
    def test_mismatched_payloads_rejected(self, make_workcell):
        workcell = make_workcell(seed=1)
        engine = ConcurrentWorkflowEngine(workcell)
        with pytest.raises(ValueError):
            engine.run_all([WorkflowSpec(name="a").add_step("sciclops", "status")], [None, None])
