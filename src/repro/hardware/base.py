"""Base class for simulated devices.

Each device is a "module" in the WEI sense: it exposes a small set of actions
(the interface methods of the paper's Section 2.2).  The base class provides
the machinery shared by all devices:

* sampling how long an action takes from the :class:`repro.sim.DurationTable`,
* advancing the shared simulation clock by that duration,
* consulting the :class:`repro.sim.FaultInjector` so commands can fail,
* recording an :class:`ActionRecord` for every command -- the raw material of
  the paper's CCWH / synthesis-time / transfer-time metrics.

Every action follows a **two-phase lifecycle**, and its one form is the
device method ``submit_<action>``: it validates the request, consults the
fault injector, samples the duration (advancing the device clock) and returns
an :class:`ActionHandle`; calling :meth:`ActionHandle.complete` then applies
the action's state mutations (deck moves, reservoir draws, well fills) and
yields the return value.  A sequential caller completes the handle at once
(``device.submit_transfer(a, b).complete()``), while the engine defers
``complete()`` to the action's *end* event -- on the real workcell a plate
only appears at its destination when the arm gets there, not when the command
is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.sim.clock import Clock, SimClock
from repro.sim.durations import DurationTable, paper_calibrated_durations
from repro.sim.faults import FaultInjector
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["DeviceError", "ActionRecord", "ActionHandle", "SimulatedDevice"]


class DeviceError(RuntimeError):
    """Raised when a device is asked to do something physically impossible."""


@dataclass
class ActionRecord:
    """One executed device command.

    ``robotic`` distinguishes robotic commands (counted by the CCWH metric)
    from computational/publication steps.
    """

    module: str
    action: str
    start_time: float
    end_time: float
    success: bool = True
    robotic: bool = True
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds between command start and completion."""
        return self.end_time - self.start_time

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (stored in run logs and the portal)."""
        return {
            "module": self.module,
            "action": self.action,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "success": self.success,
            "robotic": self.robotic,
            "details": dict(self.details),
        }


@dataclass
class ActionHandle:
    """Phase-one result of a submitted device action.

    The handle is created once the command has been accepted: its duration is
    sampled, its :class:`ActionRecord` logged and the device clock advanced to
    ``end_time``.  The action's *state mutations* have not happened yet; they
    are applied by :meth:`complete`, which a sequential caller calls
    immediately and the concurrent engine calls at the action's end event.
    """

    #: The one command this submission logged on the device.
    record: ActionRecord
    #: Applies the action's state mutations and returns the action's value.
    finish: Callable[[], Any]
    completed: bool = False
    return_value: Any = None

    @property
    def module(self) -> str:
        """Name of the device that accepted the command."""
        return self.record.module

    @property
    def action(self) -> str:
        """The action's name."""
        return self.record.action

    @property
    def start_time(self) -> float:
        """When the command was accepted."""
        return self.record.start_time

    @property
    def end_time(self) -> float:
        """When the action finishes."""
        return self.record.end_time

    @property
    def duration(self) -> float:
        """Seconds between command acceptance and scheduled completion."""
        return self.record.duration

    def complete(self) -> Any:
        """Apply the action's state mutations (idempotent) and return its value."""
        if not self.completed:
            self.return_value = self.finish()
            self.completed = True
        return self.return_value


class SimulatedDevice:
    """Common behaviour of all simulated workcell devices.

    Subclasses implement each action as one ``submit_<action>`` method that
    validates, calls :meth:`_execute` once to account for time/faults/logging
    and returns the :class:`ActionHandle` built by :meth:`_submitted`, whose
    ``finish`` closure mutates the labware state.  A WEI
    :class:`~repro.wei.module.Module` exposes exactly these methods as its
    actions.
    """

    #: Module type name used for duration lookup and run records.
    module_type: str = "device"
    #: Whether this module's commands count as robotic commands for CCWH.
    robotic: bool = True

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        clock: Optional[Clock] = None,
        durations: Optional[DurationTable] = None,
        faults: Optional[FaultInjector] = None,
        rng=None,
    ):
        self.name = name if name is not None else self.module_type
        self.clock = clock if clock is not None else SimClock()
        self.durations = durations if durations is not None else paper_calibrated_durations()
        self.faults = faults if faults is not None else FaultInjector()
        if isinstance(rng, RandomSource):
            self.rng = rng.child(self.name).generator
        else:
            self.rng = ensure_rng(rng)
        self.action_log: List[ActionRecord] = []

    # ------------------------------------------------------------------
    # Command execution plumbing
    # ------------------------------------------------------------------
    def _execute(
        self,
        action: str,
        *,
        units: float = 1.0,
        robotic: Optional[bool] = None,
        **details: Any,
    ) -> ActionRecord:
        """Account for one command: fault check, duration, clock advance, logging.

        Raises :class:`repro.sim.CommandFailure` when a fault is injected; the
        failed command is still logged (with ``success=False``) because the
        paper's CCWH metric counts only *successful* commands.
        """
        start = self.clock.now()
        is_robotic = self.robotic if robotic is None else robotic
        try:
            self.faults.check(self.module_type, action)
        except Exception:
            # The command was received but failed during processing; charge a
            # nominal amount of time for the failed attempt.
            failed_duration = self.durations.sample(self.module_type, action, rng=self.rng, units=units)
            end = self.clock.advance(failed_duration * 0.5)
            self.action_log.append(
                ActionRecord(
                    module=self.name,
                    action=action,
                    start_time=start,
                    end_time=end,
                    success=False,
                    robotic=is_robotic,
                    details=dict(details),
                )
            )
            raise
        duration = self.durations.sample(self.module_type, action, rng=self.rng, units=units)
        end = self.clock.advance(duration)
        record = ActionRecord(
            module=self.name,
            action=action,
            start_time=start,
            end_time=end,
            success=True,
            robotic=is_robotic,
            details=dict(details),
        )
        self.action_log.append(record)
        return record

    # ------------------------------------------------------------------
    # Two-phase action lifecycle
    # ------------------------------------------------------------------
    def _submitted(
        self,
        record: ActionRecord,
        finish: Optional[Callable[[], Any]] = None,
    ) -> ActionHandle:
        """Build the handle for a just-executed command.

        When ``finish`` is omitted the action has no deferred state mutation
        and completing it returns the :class:`ActionRecord` itself (the
        conventional return value of bookkeeping-only actions).
        """
        return ActionHandle(record, finish if finish is not None else (lambda: record))

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def commands_executed(self) -> int:
        """Number of successfully completed commands on this device."""
        return sum(1 for record in self.action_log if record.success)

    @property
    def busy_time(self) -> float:
        """Total time this device spent executing commands (seconds)."""
        return sum(record.duration for record in self.action_log)

    def describe(self) -> Dict[str, Any]:
        """Static description of the module for workcell records."""
        return {"name": self.name, "type": self.module_type, "robotic": self.robotic}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
