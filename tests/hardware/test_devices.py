"""Tests for the five simulated workcell devices."""

import numpy as np
import pytest

from repro.color.mixing import SubtractiveMixingModel
from repro.hardware.barty import BartyDevice
from repro.hardware.base import DeviceError
from repro.hardware.camera import CameraDevice
from repro.hardware.deck import LocationError, Workdeck
from repro.hardware.ot2 import Ot2Device, PipettingProtocol, ProtocolStep
from repro.hardware.pf400 import Pf400Device
from repro.hardware.sciclops import SciclopsDevice
from repro.sim.clock import SimClock


@pytest.fixture
def shared_clock():
    return SimClock()


@pytest.fixture
def rig(shared_clock):
    """A small assembled rig: deck + all five devices sharing a clock."""
    deck = Workdeck()
    sciclops = SciclopsDevice(deck, clock=shared_clock, rng=1)
    pf400 = Pf400Device(deck, clock=shared_clock, rng=2)
    ot2 = Ot2Device(deck, clock=shared_clock, rng=3)
    barty = BartyDevice(ot2, clock=shared_clock, rng=4)
    camera = CameraDevice(deck, clock=shared_clock, rng=5)
    return {
        "deck": deck,
        "sciclops": sciclops,
        "pf400": pf400,
        "ot2": ot2,
        "barty": barty,
        "camera": camera,
        "clock": shared_clock,
    }


def simple_protocol(wells, volume=40.0):
    return PipettingProtocol(
        name="test",
        steps=[ProtocolStep(well=w, volumes_ul={"cyan": volume, "black": volume / 2}) for w in wells],
    )


class TestSciclops:
    def test_get_plate_places_at_exchange(self, rig):
        plate = rig["sciclops"].submit_get_plate().complete()
        assert rig["deck"].plate_at("sciclops.exchange") is plate
        assert rig["sciclops"].plates_remaining == 2 * 20 - 1

    def test_occupied_exchange_rejected(self, rig):
        rig["sciclops"].submit_get_plate().complete()
        with pytest.raises(DeviceError):
            rig["sciclops"].submit_get_plate().complete()

    def test_empty_towers_rejected(self, rig):
        deck = Workdeck()
        sciclops = SciclopsDevice(deck, towers=1, plates_per_tower=1, clock=SimClock())
        sciclops.submit_get_plate().complete()
        deck.move("sciclops.exchange", "trash")
        with pytest.raises(DeviceError):
            sciclops.submit_get_plate().complete()

    def test_status_counts_inventory(self, rig):
        record = rig["sciclops"].submit_status().complete()
        assert record.details["plates_remaining"] == 40
        assert record.success

    def test_get_plate_advances_clock(self, rig):
        before = rig["clock"].now()
        rig["sciclops"].submit_get_plate().complete()
        assert rig["clock"].now() > before


class TestPf400:
    def test_transfer_moves_plate(self, rig):
        plate = rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()
        assert rig["deck"].plate_at("camera.stage") is plate
        assert rig["pf400"].transfers_completed == 1

    def test_transfer_without_plate_rejected_without_charging_time(self, rig):
        before = rig["clock"].now()
        with pytest.raises(DeviceError):
            rig["pf400"].submit_transfer("camera.stage", "ot2.deck").complete()
        assert rig["clock"].now() == before

    def test_transfer_to_occupied_target_rejected(self, rig):
        rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()
        rig["sciclops"].submit_get_plate().complete()
        with pytest.raises(DeviceError):
            rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()

    def test_unknown_locations_rejected(self, rig):
        with pytest.raises(LocationError):
            rig["pf400"].submit_transfer("nowhere", "camera.stage").complete()

    def test_move_home(self, rig):
        record = rig["pf400"].submit_move_home().complete()
        assert record.action == "move_home"


class TestOt2:
    def _stage_plate(self, rig):
        plate = rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "ot2.deck").complete()
        return plate

    def test_run_protocol_fills_wells_and_draws_reservoirs(self, rig):
        plate = self._stage_plate(rig)
        rig["barty"].submit_fill_colors().complete()
        before = rig["ot2"].reservoir_levels()["cyan"]
        rig["ot2"].submit_run_protocol(simple_protocol(["A1", "A2"])).complete()
        assert not plate.well("A1").is_empty
        assert plate.well("A2").contents["cyan"] == pytest.approx(40.0)
        assert rig["ot2"].reservoir_levels()["cyan"] == pytest.approx(before - 80.0)
        assert rig["ot2"].wells_filled == 2

    def test_no_plate_on_deck_rejected(self, rig):
        rig["barty"].submit_fill_colors().complete()
        with pytest.raises(DeviceError):
            rig["ot2"].submit_run_protocol(simple_protocol(["A1"])).complete()

    def test_insufficient_reservoir_rejected(self, rig):
        self._stage_plate(rig)
        with pytest.raises(DeviceError, match="insufficient reservoir"):
            rig["ot2"].submit_run_protocol(simple_protocol(["A1"])).complete()

    def test_unknown_liquid_rejected(self, rig):
        self._stage_plate(rig)
        rig["barty"].submit_fill_colors().complete()
        protocol = PipettingProtocol(name="bad", steps=[ProtocolStep(well="A1", volumes_ul={"ink": 5.0})])
        with pytest.raises(DeviceError, match="unknown liquids"):
            rig["ot2"].submit_run_protocol(protocol).complete()

    def test_refilling_used_well_rejected(self, rig):
        self._stage_plate(rig)
        rig["barty"].submit_fill_colors().complete()
        rig["ot2"].submit_run_protocol(simple_protocol(["A1"])).complete()
        with pytest.raises(DeviceError, match="already contains liquid"):
            rig["ot2"].submit_run_protocol(simple_protocol(["A1"])).complete()

    def test_empty_protocol_rejected(self, rig):
        self._stage_plate(rig)
        with pytest.raises(DeviceError, match="no steps"):
            rig["ot2"].submit_run_protocol(PipettingProtocol(name="empty")).complete()

    def test_tip_exhaustion_and_replacement(self, rig):
        self._stage_plate(rig)
        rig["barty"].submit_fill_colors().complete()
        rig["ot2"].tip_rack.use(95)
        with pytest.raises(DeviceError, match="tips"):
            rig["ot2"].submit_run_protocol(simple_protocol(["A1", "A2"])).complete()
        rig["ot2"].submit_replace_tips().complete()
        rig["ot2"].submit_run_protocol(simple_protocol(["A1", "A2"])).complete()

    def test_duration_scales_with_batch_size(self, rig):
        self._stage_plate(rig)
        rig["barty"].submit_fill_colors().complete()
        t0 = rig["clock"].now()
        rig["ot2"].submit_run_protocol(simple_protocol(["A1"])).complete()
        single = rig["clock"].now() - t0
        t1 = rig["clock"].now()
        rig["ot2"].submit_run_protocol(simple_protocol(["B1", "B2", "B3", "B4"])).complete()
        batch = rig["clock"].now() - t1
        assert batch > single * 2

    def test_can_run_checks_inventory(self, rig):
        assert not rig["ot2"].can_run(simple_protocol(["A1"]))
        rig["barty"].submit_fill_colors().complete()
        assert rig["ot2"].can_run(simple_protocol(["A1"]))

    def test_protocol_serialisation(self):
        protocol = simple_protocol(["A1"])
        data = protocol.to_dict()
        assert data["steps"][0]["well"] == "A1"
        assert protocol.total_volume_by_liquid()["cyan"] == pytest.approx(40.0)
        assert protocol.n_wells == 1


class TestBarty:
    def test_fill_colors_tops_up_all_reservoirs(self, rig):
        rig["barty"].submit_fill_colors().complete()
        assert all(level == pytest.approx(20000.0) for level in rig["ot2"].reservoir_levels().values())

    def test_drain_colors(self, rig):
        rig["barty"].submit_fill_colors().complete()
        record = rig["barty"].submit_drain_colors().complete()
        assert all(level == 0.0 for level in rig["ot2"].reservoir_levels().values())
        assert record.details["volume_drained_ul"] == pytest.approx(80000.0)

    def test_refill_only_low_reservoirs(self, rig):
        rig["barty"].submit_fill_colors().complete()
        rig["ot2"].reservoirs["cyan"].draw(19000.0)   # 5% left -> low
        rig["ot2"].reservoirs["magenta"].draw(5000.0)  # 75% left -> fine
        rig["barty"].submit_refill_colors(low_threshold=0.15).complete()
        assert rig["ot2"].reservoir_levels()["cyan"] == pytest.approx(20000.0)
        assert rig["ot2"].reservoir_levels()["magenta"] == pytest.approx(15000.0)

    def test_selected_colors_only(self, rig):
        rig["barty"].submit_fill_colors(colors=["cyan"]).complete()
        levels = rig["ot2"].reservoir_levels()
        assert levels["cyan"] == pytest.approx(20000.0)
        assert levels["magenta"] == 0.0

    def test_unknown_color_rejected(self, rig):
        with pytest.raises(DeviceError):
            rig["barty"].submit_fill_colors(colors=["chartreuse"]).complete()

    def test_bulk_supply_depletes(self, rig):
        start = sum(rig["barty"].bulk_levels().values())
        rig["barty"].submit_fill_colors().complete()
        assert sum(rig["barty"].bulk_levels().values()) == pytest.approx(start - 80000.0)
        assert rig["barty"].liquid_dispensed_ul == pytest.approx(80000.0)

    def test_exhausted_bulk_supply_raises(self, rig):
        barty = BartyDevice(rig["ot2"], bulk_capacity_ul=1000.0, clock=rig["clock"])
        with pytest.raises(DeviceError, match="exhausted"):
            barty.submit_fill_colors().complete()


class TestCamera:
    def test_take_picture_returns_image_of_staged_plate(self, rig):
        plate = rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()
        image = rig["camera"].submit_take_picture().complete()
        assert image.plate_barcode == plate.barcode
        assert image.pixels.shape == (480, 640, 3)
        assert image.truth is not None
        assert rig["camera"].frames_captured == 1

    def test_no_plate_rejected(self, rig):
        with pytest.raises(DeviceError):
            rig["camera"].submit_take_picture().complete()

    def test_camera_commands_are_not_robotic(self, rig):
        rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()
        rig["camera"].submit_take_picture().complete()
        assert all(not record.robotic for record in rig["camera"].action_log)

    def test_truth_can_be_disabled(self):
        deck = Workdeck()
        clock = SimClock()
        sciclops = SciclopsDevice(deck, clock=clock)
        pf400 = Pf400Device(deck, clock=clock)
        camera = CameraDevice(deck, clock=clock, keep_truth=False, chemistry=SubtractiveMixingModel())
        sciclops.submit_get_plate().complete()
        pf400.submit_transfer("sciclops.exchange", "camera.stage").complete()
        assert camera.submit_take_picture().complete().truth is None

    def test_repeated_frames_differ_by_noise(self, rig):
        rig["sciclops"].submit_get_plate().complete()
        rig["pf400"].submit_transfer("sciclops.exchange", "camera.stage").complete()
        image_a = rig["camera"].submit_take_picture().complete().pixels
        image_b = rig["camera"].submit_take_picture().complete().pixels
        assert not np.allclose(image_a, image_b)
