"""Tests for the WEI module abstraction."""

import inspect

import pytest

from repro.cli import main
from repro.hardware.base import ActionHandle
from repro.hardware.labware import Plate
from repro.hardware.ot2 import PipettingProtocol, ProtocolStep
from repro.hardware.pf400 import Pf400Device
from repro.hardware.sciclops import SciclopsDevice
from repro.utils import yamlite
from repro.wei.module import Module, ModuleActionError
from repro.wei.workcell import build_color_picker_workcell


@pytest.fixture
def sciclops_module(deck, clock):
    return Module("sciclops", SciclopsDevice(deck, clock=clock))


class TestSubmit:
    def test_submit_complete_returns_value_and_records(self, sciclops_module, deck):
        handle = sciclops_module.submit("get_plate")
        plate = handle.complete()
        assert handle.module == "sciclops"
        assert handle.record.success
        assert handle.duration > 0
        assert deck.plate_at("sciclops.exchange") is plate

    def test_unknown_action_rejected(self, sciclops_module):
        with pytest.raises(ModuleActionError, match="has no action"):
            sciclops_module.submit("fly")

    def test_submit_with_kwargs(self, deck, clock):
        sciclops = SciclopsDevice(deck, clock=clock)
        pf400 = Pf400Device(deck, clock=clock)
        module = Module("pf400", pf400)
        sciclops.submit_get_plate().complete()
        handle = module.submit("transfer", source="sciclops.exchange", target="camera.stage")
        handle.complete()
        assert handle.record.success
        assert deck.is_occupied("camera.stage")

    def test_records_are_scoped_to_submission(self, sciclops_module):
        first = sciclops_module.submit("status")
        second = sciclops_module.submit("status")
        assert first.record.action == "status"
        assert second.record.action == "status"
        assert second.record.start_time >= first.record.end_time


class TestIntrospection:
    def test_action_names_sorted(self, sciclops_module):
        assert sciclops_module.action_names() == ["get_plate", "status"]

    def test_describe(self, sciclops_module):
        assert sciclops_module.describe() == {
            "name": "sciclops",
            "type": "sciclops",
            "actions": ["get_plate", "status"],
        }

    def test_actions_are_the_device_submit_methods(self, deck, clock):
        device = Pf400Device(deck, clock=clock)
        module = Module("pf400", device)
        assert module.action_names() == ["move_home", "transfer"]
        # Base-class bookkeeping must not be exposed as device actions.
        assert "describe" not in module.action_names()
        assert "busy_time" not in module.action_names()


# ---------------------------------------------------------------------------
# The module contract, checked on every module of a two-OT-2 workcell: a
# module's actions are exactly its device's submit_<action> methods, and
# submit returns the device's handle, whose record is the one entry the
# submission logged.
# ---------------------------------------------------------------------------

#: The action set of each module type (sorted).
EXPECTED_ACTIONS = {
    "sciclops": ["get_plate", "status"],
    "pf400": ["move_home", "transfer"],
    "camera": ["take_picture"],
    "ot2": ["replace_tips", "run_protocol"],
    "barty": ["drain_colors", "fill_colors", "refill_colors"],
}

MODULE_NAMES = list(build_color_picker_workcell(n_ot2=2).modules)


def ready_action(workcell, module, action):
    """Put ``workcell`` where ``module.action`` is valid; return its kwargs."""
    device = module.device
    if action == "transfer":
        workcell.deck.place(Plate(barcode="contract"), "sciclops.exchange")
        return {"source": "sciclops.exchange", "target": "camera.stage"}
    if action == "take_picture":
        workcell.deck.place(Plate(barcode="contract"), device.stage_location)
    if action == "run_protocol":
        workcell.deck.place(Plate(barcode="contract"), device.deck_location)
        for reservoir in device.reservoirs.values():
            reservoir.fill()
        dye = device.dye_set.names[0]
        step = ProtocolStep(well="A1", volumes_ul={dye: 50.0})
        return {"protocol": PipettingProtocol(name="contract", steps=[step])}
    return {}


@pytest.mark.parametrize("module_name", MODULE_NAMES)
class TestModuleContract:
    def test_actions_are_exactly_the_device_submit_methods(self, module_name):
        module = build_color_picker_workcell(n_ot2=2).module(module_name)
        device = module.device
        submit_methods = sorted(
            name[len("submit_"):]
            for name, member in inspect.getmembers(type(device), inspect.isfunction)
            if name.startswith("submit_")
        )
        assert module.action_names() == submit_methods
        assert module.action_names() == EXPECTED_ACTIONS[module.module_type]
        # No plain twin beside any submit_<action>.
        assert not any(hasattr(device, action) for action in module.action_names())

    def test_submission_records_are_the_handle_record(self, module_name):
        # One workcell for all of the module's actions, so each submission
        # lands on a log that already holds the earlier ones.
        workcell = build_color_picker_workcell(n_ot2=2, seed=5)
        module = workcell.module(module_name)
        for action in module.action_names():
            kwargs = ready_action(workcell, module, action)
            logged = len(module.device.action_log)
            handle = module.submit(action, **kwargs)
            assert isinstance(handle, ActionHandle)
            assert module.device.action_log[logged:] == [handle.record]
            assert module.device.action_log[-1] is handle.record
            assert (handle.module, handle.action) == (module.device.name, action)
            # A second complete() returns the first value without running
            # the action's state mutations again.
            finish, calls = handle.finish, []
            handle.finish = lambda: calls.append(action) or finish()
            value = handle.complete()
            assert handle.complete() is value
            assert calls == [action]

    def test_unknown_action_names_the_available_actions(self, module_name):
        module = build_color_picker_workcell(n_ot2=2).module(module_name)
        with pytest.raises(ModuleActionError, match=module_name) as excinfo:
            module.submit("levitate")
        message = str(excinfo.value)
        assert "levitate" in message
        assert str(module.action_names()) in message


def test_workcell_command_prints_actions_without_binding_keys(capsys):
    assert main(["workcell"]) == 0
    output = capsys.readouterr().out
    described = yamlite.loads(output)["modules"]
    workcell = build_color_picker_workcell(seed=0)
    assert [entry["name"] for entry in described] == list(workcell.modules)
    for entry in described:
        assert set(entry) == {"name", "type", "actions"}
        assert entry["actions"] == workcell.module(entry["name"]).action_names()
    assert "two_phase" not in output
    assert "driver" not in output
