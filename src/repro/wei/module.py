"""The WEI module abstraction.

"Each module is represented by a software abstraction that exposes a single
device and, via interface methods, the actions that the device can perform"
(paper Section 2.2).  :class:`Module` wraps a simulated device and exposes
exactly its ``submit_<action>`` methods as the actions named ``<action>``,
reporting the :class:`~repro.hardware.base.ActionRecord` each submission
logged so the engine can attribute time and command counts to workflow steps.

Actions follow the two-phase lifecycle of the hardware layer:
:meth:`Module.submit` accepts the command (validating, sampling its duration
and logging its record) and returns an :class:`ActionSubmission` whose
:meth:`~ActionSubmission.complete` applies the state mutations and produces
the :class:`ActionInvocation`.  A sequential caller completes at once:
``module.submit("transfer", source=a, target=b).complete()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.hardware.base import ActionHandle, ActionRecord, SimulatedDevice

__all__ = ["ModuleActionError", "ActionInvocation", "ActionSubmission", "Module"]


class ModuleActionError(RuntimeError):
    """Raised when an unknown action is requested or an action is misused."""


@dataclass
class ActionInvocation:
    """The outcome of invoking one module action."""

    module: str
    action: str
    record: ActionRecord
    return_value: Any = None

    @property
    def duration(self) -> float:
        """Device time attributed to this invocation (seconds)."""
        return self.record.duration

    @property
    def commands(self) -> int:
        """Number of successful device commands issued by this invocation."""
        return int(self.record.success)


@dataclass
class ActionSubmission:
    """A module action accepted for execution but not yet completed.

    ``record`` is the one device command this (successful) submission
    logged, ``handle.record``; failed earlier attempts were separate
    submissions and stay in the device's ``action_log`` only.  The action's
    state mutations are deferred until :meth:`complete`.
    """

    module: str
    action: str
    handle: ActionHandle
    record: ActionRecord

    @property
    def start_time(self) -> float:
        """When the command was accepted."""
        return self.handle.start_time

    @property
    def end_time(self) -> float:
        """When the action will (or did) finish."""
        return self.handle.end_time

    @property
    def completed(self) -> bool:
        """True once :meth:`complete` has applied the action's mutations."""
        return self.handle.completed

    def complete(self) -> ActionInvocation:
        """Apply the action's state mutations and return the invocation outcome."""
        value = self.handle.complete()
        return ActionInvocation(
            module=self.module,
            action=self.action,
            record=self.record,
            return_value=value,
        )


class Module:
    """A named module exposing a device's actions.

    Parameters
    ----------
    name:
        The module's name within the workcell (e.g. ``"ot2"``, ``"pf400"``).
    device:
        The simulated device this module fronts.  Each of its
        ``submit_<action>`` methods is the module action ``<action>``.
    """

    def __init__(self, name: str, device: SimulatedDevice):
        self.name = name
        self.device = device
        self._submitters: Dict[str, Callable[..., ActionHandle]] = {
            attr[len("submit_"):]: getattr(device, attr)
            for attr in dir(device)
            if attr.startswith("submit_")
        }

    @property
    def module_type(self) -> str:
        """The underlying device's module type (used for duration lookup)."""
        return self.device.module_type

    def action_names(self) -> List[str]:
        """Sorted list of exposed action names."""
        return sorted(self._submitters)

    def submit(self, action: str, **kwargs: Any) -> ActionSubmission:
        """Submit ``action`` (phase one) and return its :class:`ActionSubmission`."""
        submitter = self._submitters.get(action)
        if submitter is None:
            raise ModuleActionError(
                f"module {self.name!r} has no action {action!r}; available: {self.action_names()}"
            )
        handle = submitter(**kwargs)
        return ActionSubmission(
            module=self.name,
            action=action,
            handle=handle,
            record=handle.record,
        )

    def describe(self) -> Dict[str, Any]:
        """Static description used in workcell specifications and run records."""
        return {
            "name": self.name,
            "type": self.module_type,
            "actions": self.action_names(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Module(name={self.name!r}, type={self.module_type!r})"
