"""Tests for the simulated-device base class."""

import pytest

from repro.hardware.base import SimulatedDevice
from repro.sim.clock import SimClock
from repro.sim.durations import DurationModel, DurationTable
from repro.sim.faults import CommandFailure, FaultInjector, FaultPolicy


class ToyDevice(SimulatedDevice):
    module_type = "toy"

    def poke(self, units: float = 1.0):
        return self._execute("poke", units=units)

    def compute(self):
        return self._execute("analyze", robotic=False)


@pytest.fixture
def toy_durations():
    table = DurationTable(default=DurationModel(base_s=10.0, jitter_cv=0.0))
    table.set("toy", "poke", DurationModel(base_s=5.0, per_unit_s=2.0, jitter_cv=0.0))
    return table


class TestExecution:
    def test_clock_advances_by_sampled_duration(self, toy_durations):
        clock = SimClock()
        device = ToyDevice(clock=clock, durations=toy_durations)
        record = device.poke()
        assert clock.now() == pytest.approx(7.0)
        assert record.duration == pytest.approx(7.0)
        assert record.success and record.robotic

    def test_units_scale_duration(self, toy_durations):
        device = ToyDevice(clock=SimClock(), durations=toy_durations)
        record = device.poke(units=10)
        assert record.duration == pytest.approx(25.0)

    def test_non_robotic_action_flagged(self, toy_durations):
        device = ToyDevice(clock=SimClock(), durations=toy_durations)
        record = device.compute()
        assert not record.robotic

    def test_action_log_accumulates(self, toy_durations):
        device = ToyDevice(clock=SimClock(), durations=toy_durations)
        device.poke()
        device.poke()
        assert device.commands_executed == 2
        assert device.busy_time == pytest.approx(14.0)

    def test_record_to_dict(self, toy_durations):
        device = ToyDevice(clock=SimClock(), durations=toy_durations)
        data = device.poke().to_dict()
        assert data["module"] == "toy"
        assert data["action"] == "poke"
        assert data["duration"] == pytest.approx(7.0)


class TestFaults:
    def test_injected_failure_raises_and_logs(self, toy_durations):
        device = ToyDevice(
            clock=SimClock(),
            durations=toy_durations,
            faults=FaultInjector(FaultPolicy.uniform(1.0)),
        )
        with pytest.raises(CommandFailure):
            device.poke()
        assert device.commands_executed == 0
        assert len(device.action_log) == 1
        assert not device.action_log[0].success

    def test_failed_command_still_consumes_time(self, toy_durations):
        clock = SimClock()
        device = ToyDevice(
            clock=clock,
            durations=toy_durations,
            faults=FaultInjector(FaultPolicy.uniform(1.0)),
        )
        with pytest.raises(CommandFailure):
            device.poke()
        assert clock.now() > 0.0


class TestDescribe:
    def test_describe_reports_type(self):
        device = ToyDevice(name="toy-1")
        description = device.describe()
        assert description == {"name": "toy-1", "type": "toy", "robotic": True}

    def test_default_name_is_module_type(self):
        assert ToyDevice().name == "toy"
