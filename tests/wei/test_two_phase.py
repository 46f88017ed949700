"""Tests for the two-phase (submit -> complete) action lifecycle.

The invariant under test, at every layer: *submission* charges time, draws
faults and logs records, while the world (deck, reservoirs, towers, tip
racks) only changes when the action *completes*.  The concurrent engine
relies on this to keep admission control honest -- a plate is where it
physically is, not where an accepted command will put it.
"""

from repro.core.protocol import build_mix_protocol
from repro.hardware.base import ActionHandle
from repro.hardware.labware import Plate
from repro.sim.faults import FaultPolicy
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.engine import attempt_submission
from repro.wei.workflow import WorkflowSpec

# The `workcell` fixture (a seed-42 colour-picker workcell) comes from
# tests/conftest.py; ad-hoc variants are built through the repo-root
# `make_workcell` factory fixture.


def mix_protocol(workcell, n_wells=2, start=0):
    plate = Plate(barcode="naming-only")
    wells = plate.empty_wells[start : start + n_wells]
    ratios = [[0.25, 0.25, 0.25, 0.25]] * n_wells
    return build_mix_protocol(
        name="proto",
        wells=wells,
        ratios=ratios,
        dye_names=workcell.chemistry.dyes.names,
        max_component_volume_ul=40.0,
    )


class TestDeviceHandles:
    def test_pf400_deck_moves_only_at_completion(self, workcell):
        deck = workcell.deck
        pf400 = workcell.module("pf400").device
        deck.place(Plate(barcode="p1"), "ot2.deck")

        handle = pf400.submit_transfer("ot2.deck", "camera.stage")
        # Time charged and record logged at submission...
        assert handle.end_time > handle.start_time
        assert pf400.action_log[-1].action == "transfer"
        # ...but the plate has not physically moved yet.
        assert deck.is_occupied("ot2.deck")
        assert not deck.is_occupied("camera.stage")
        assert pf400.transfers_completed == 0

        plate = handle.complete()
        assert plate.barcode == "p1"
        assert not deck.is_occupied("ot2.deck")
        assert deck.is_occupied("camera.stage")
        assert pf400.transfers_completed == 1

    def test_handle_reads_its_identity_and_times_from_the_record(self, workcell):
        pf400 = workcell.module("pf400").device
        handle = pf400.submit_move_home()
        record = handle.record
        assert record is pf400.action_log[-1]
        assert (handle.module, handle.action) == (pf400.name, "move_home")
        assert (handle.start_time, handle.end_time) == (record.start_time, record.end_time)
        assert handle.duration == record.duration > 0
        # A bookkeeping-only action completes to its own record.
        assert handle.complete() is record

    def test_complete_is_idempotent(self, workcell):
        deck = workcell.deck
        pf400 = workcell.module("pf400").device
        deck.place(Plate(barcode="p1"), "ot2.deck")
        handle = pf400.submit_transfer("ot2.deck", "camera.stage")
        first = handle.complete()
        assert handle.complete() is first
        assert pf400.transfers_completed == 1

    def test_sciclops_tower_pops_at_completion(self, workcell):
        sciclops = workcell.module("sciclops").device
        before = sciclops.plates_remaining
        handle = sciclops.submit_get_plate()
        assert sciclops.plates_remaining == before
        assert not workcell.deck.is_occupied(sciclops.exchange_location)
        plate = handle.complete()
        assert sciclops.plates_remaining == before - 1
        assert workcell.deck.plate_at(sciclops.exchange_location) is plate

    def test_ot2_inventory_draws_at_completion(self, workcell):
        ot2 = workcell.module("ot2").device
        workcell.deck.place(Plate(barcode="mixing"), ot2.deck_location)
        for reservoir in ot2.reservoirs.values():
            reservoir.fill()
        protocol = mix_protocol(workcell)
        levels_before = ot2.reservoir_levels()
        tips_before = ot2.tip_rack.remaining

        handle = ot2.submit_run_protocol(protocol)
        assert ot2.reservoir_levels() == levels_before
        assert ot2.tip_rack.remaining == tips_before
        assert ot2.wells_filled == 0

        handle.complete()
        assert sum(ot2.reservoir_levels().values()) < sum(levels_before.values())
        assert ot2.tip_rack.remaining == tips_before - protocol.n_wells
        assert ot2.wells_filled == protocol.n_wells

    def test_barty_pumps_at_completion(self, workcell):
        ot2 = workcell.module("ot2").device
        barty = workcell.module("barty").device
        handle = barty.submit_fill_colors()
        assert all(volume == 0.0 for volume in ot2.reservoir_levels().values())
        record = handle.complete()
        assert all(volume > 0.0 for volume in ot2.reservoir_levels().values())
        assert record.details["volume_moved_ul"] > 0

    def test_camera_exposes_at_completion(self, workcell):
        camera = workcell.module("camera").device
        workcell.deck.place(Plate(barcode="photo"), camera.stage_location)
        handle = camera.submit_take_picture()
        assert camera.frames_captured == 0
        image = handle.complete()
        assert camera.frames_captured == 1
        assert image.plate_barcode == "photo"


class TestModuleSubmission:
    def test_submit_collects_records_and_defers_value(self, workcell):
        module = workcell.module("sciclops")
        handle = module.submit("get_plate")
        assert isinstance(handle, ActionHandle)
        assert not handle.completed
        assert handle.record.action == "get_plate"
        assert handle.record.success
        plate = handle.complete()
        assert handle.completed
        assert isinstance(plate, Plate)
        assert handle.return_value is plate

    def test_submit_then_complete_is_synchronous(self, workcell):
        plate = workcell.module("sciclops").submit("get_plate").complete()
        assert workcell.deck.plate_at("sciclops.exchange") is plate

    def test_retries_happen_at_submission(self, make_workcell):
        workcell = make_workcell(
            seed=3,
            fault_policy=FaultPolicy(command_failure={"sciclops": 0.6}, unrecoverable_fraction=0.0),
        )
        module = workcell.module("sciclops")
        total_retries = 0
        for _ in range(8):
            handle, retries, _error = attempt_submission(module, "status", {}, max_retries=50)
            assert handle is not None
            total_retries += retries
            # Failed attempts are logged at submission time, before complete.
            assert sum(1 for r in module.device.action_log if not r.success) >= total_retries
            assert handle.record.success
            assert handle.complete() is handle.record
        assert total_retries > 0


class TestEngineCompletionTiming:
    def test_deck_mutates_at_the_completion_event(self, workcell):
        """The tentpole regression: the concurrent engine must not move the
        plate when the transfer is merely *submitted* at its start event."""
        deck = workcell.deck
        deck.place(Plate(barcode="p1"), "ot2.deck")
        engine = ConcurrentWorkflowEngine(workcell)
        spec = WorkflowSpec(name="move").add_step(
            "pf400", "transfer", source="ot2.deck", target="camera.stage"
        )
        handle = engine.submit(spec)
        # submit() dispatched the step: the transfer is in flight, its
        # completion event pending -- and the deck is still untouched.
        assert engine.scheduler.active == 1
        assert deck.is_occupied("ot2.deck")
        assert not deck.is_occupied("camera.stage")

        engine.scheduler.step()  # the completion event
        assert not deck.is_occupied("ot2.deck")
        assert deck.is_occupied("camera.stage")
        engine.run_until_complete()
        assert handle.success

    def test_exchange_held_until_departure_completes(self, workcell):
        """A second get_plate is admitted only once the departing transfer
        *finishes* -- with submission-time mutations it would start earlier,
        while the plate physically still sits on the exchange."""
        engine = ConcurrentWorkflowEngine(workcell)
        first = WorkflowSpec(name="first")
        first.add_step("sciclops", "get_plate")
        first.add_step("pf400", "transfer", source="sciclops.exchange", target="camera.stage")
        second = WorkflowSpec(name="second").add_step("sciclops", "get_plate")
        engine.submit(first)
        engine.submit(second)
        engine.run_until_complete()

        transfer_end = next(
            step.end_time for step in engine.run_logger.runs[0].steps if step.action == "transfer"
        )
        second_start = engine.run_logger.runs[1].steps[0].start_time
        assert second_start >= transfer_end - 1e-9

    def test_in_flight_fill_reserves_the_target_slot(self, workcell):
        """A transfer aimed at a slot that an in-flight action will fill at
        *its* completion must park, not collide at the completion events."""
        deck = workcell.deck
        deck.place(Plate(barcode="returning"), "camera.stage")
        engine = ConcurrentWorkflowEngine(workcell)
        fetch = WorkflowSpec(name="fetch")
        fetch.add_step("sciclops", "get_plate")
        fetch.add_step("pf400", "transfer", source="sciclops.exchange", target="ot2.deck")
        restock = WorkflowSpec(name="restock").add_step(
            "pf400", "transfer", source="camera.stage", target="sciclops.exchange"
        )
        fetch_handle = engine.submit(fetch)
        restock_handle = engine.submit(restock)
        engine.run_until_complete()
        assert fetch_handle.success and restock_handle.success
        # The restock transfer waited for the exchange to be promised, filled
        # and emptied again by the fetch workflow's own transfer.
        fetch_depart = fetch_handle.result.steps[1]
        restock_arrive = restock_handle.result.steps[0]
        assert restock_arrive.start_time >= fetch_depart.end_time - 1e-9
        assert deck.plate_at("sciclops.exchange").barcode == "returning"

    def test_device_clock_restored_after_submission(self, workcell):
        engine = ConcurrentWorkflowEngine(workcell)
        device = workcell.module("sciclops").device
        engine.submit(WorkflowSpec(name="fetch").add_step("sciclops", "get_plate"))
        assert device.clock is workcell.clock
        engine.run_until_complete()
        assert device.clock is workcell.clock


class TestUtilisationRegression:
    def test_never_ran_engine_reports_zero_for_every_module(self, workcell):
        engine = ConcurrentWorkflowEngine(workcell)
        utilisation = engine.utilisation()
        assert set(utilisation) == set(workcell.modules)
        assert all(value == 0.0 for value in utilisation.values())
        assert engine.overall_utilisation() == 0.0
        assert engine.makespan == 0.0

    def test_overall_utilisation_after_work(self, workcell):
        engine = ConcurrentWorkflowEngine(workcell)
        engine.run_all([WorkflowSpec(name="fetch").add_step("sciclops", "get_plate")])
        assert 0.0 < engine.overall_utilisation() <= 1.0
