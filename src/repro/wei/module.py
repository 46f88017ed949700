"""The WEI module abstraction.

"Each module is represented by a software abstraction that exposes a single
device and, via interface methods, the actions that the device can perform"
(paper Section 2.2).  :class:`Module` wraps a simulated device, exposes a
registry of named actions (bound methods), and records which
:class:`~repro.hardware.base.ActionRecord` entries each invocation produced so
the engine can attribute time and command counts to workflow steps.

Actions follow the two-phase lifecycle of the hardware layer:
:meth:`Module.submit` accepts the command (validating, sampling its duration
and logging its records) and returns an :class:`ActionSubmission` whose
:meth:`~ActionSubmission.complete` applies the state mutations and produces
the :class:`ActionInvocation`.  :meth:`Module.invoke` is submit-then-complete
in one call, preserving the synchronous API for sequential execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.hardware.base import ActionHandle, ActionRecord, SimulatedDevice

__all__ = ["ModuleActionError", "ActionInvocation", "ActionSubmission", "Module"]


class ModuleActionError(RuntimeError):
    """Raised when an unknown action is requested or an action is misused."""


@dataclass
class ActionInvocation:
    """The outcome of invoking one module action."""

    module: str
    action: str
    return_value: Any = None
    records: List[ActionRecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total device time attributed to this invocation (seconds)."""
        return sum(record.duration for record in self.records)

    @property
    def commands(self) -> int:
        """Number of successful device commands issued by this invocation."""
        return sum(1 for record in self.records if record.success)


@dataclass
class ActionSubmission:
    """A module action accepted for execution but not yet completed.

    ``records`` are the device commands logged by this (successful)
    submission; failed earlier attempts were separate submissions and stay in
    the device's ``action_log`` only.  The action's state mutations are
    deferred until :meth:`complete`.
    """

    module: str
    action: str
    handle: ActionHandle
    records: List[ActionRecord] = field(default_factory=list)

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
            return_value=value,
            records=list(self.records),
        )


class Module:
    """A named module exposing a device's actions.

    Parameters
    ----------
    name:
        The module's name within the workcell (e.g. ``"ot2"``, ``"pf400"``).
    device:
        The simulated device instance this module fronts.
    actions:
        Mapping of action name to callable.  When omitted, every public
        method of the device that does not start with an underscore and is
        not part of the bookkeeping API is exposed.
    """

    _EXCLUDED = {
        "describe",
        "reset_log",
        "reservoir_levels",
        "reservoirs_low",
        "can_run",
        "bulk_levels",
    }

    def __init__(
        self,
        name: str,
        device: SimulatedDevice,
        actions: Optional[Dict[str, Callable[..., Any]]] = None,
    ):
        self.name = name
        self.device = device
        #: The transport driver backing this module, if any (bound by a
        #: :meth:`~repro.wei.drivers.registry.DriverRegistry.wire`); ``None``
        #: means actions complete in pure simulation.
        self.driver: Optional[Any] = None
        if actions is None:
            actions = {
                attr: getattr(device, attr)
                for attr in dir(device)
                if not attr.startswith("_")
                # submit_<action> methods are the two-phase halves of the
                # plain actions, not actions of their own.
                and not attr.startswith("submit_")
                and attr not in self._EXCLUDED
                and callable(getattr(device, attr))
                and getattr(type(device), attr, None) is not None
                and not isinstance(getattr(type(device), attr, None), property)
                and getattr(device, attr).__func__.__qualname__.split(".")[0]
                not in ("SimulatedDevice",)
            }
        self.actions: Dict[str, Callable[..., Any]] = dict(actions)
        #: Each action's device ``submit_<action>`` (None: runs synchronously).
        self._submitters: Dict[str, Optional[Callable[..., ActionHandle]]] = {
            action: self._two_phase_impl(action) for action in self.actions
        }

    @property
    def module_type(self) -> str:
        """The underlying device's module type (used for duration lookup)."""
        return self.device.module_type

    def has_action(self, action: str) -> bool:
        """True if ``action`` is exposed by this module."""
        return action in self.actions

    def action_names(self) -> List[str]:
        """Sorted list of exposed action names."""
        return sorted(self.actions)

    def two_phase_actions(self) -> List[str]:
        """Actions backed by the device's two-phase ``submit_<action>`` path.

        Only these can be completed out-of-band by a transport driver;
        custom callables registered under an action name execute
        synchronously at submission and complete as a no-op.
        """
        return [action for action in self.action_names() if self._submitters[action] is not None]

    def bind_driver(self, driver: Optional[Any]) -> None:
        """Record the transport driver backing this module (``None`` unbinds)."""
        self.driver = driver

    @property
    def driver_name(self) -> Optional[str]:
        """Name of the bound transport driver (``None`` in pure simulation)."""
        return getattr(self.driver, "name", None) if self.driver is not None else None

    def _two_phase_impl(self, action: str) -> Optional[Callable[..., ActionHandle]]:
        """The device's ``submit_<action>`` when it backs this module action.

        Only used when the registered callable *is* the device's own method of
        the same name; a custom callable registered under that name must not
        be silently swapped for the device implementation.
        """
        registered = self.actions[action]
        if getattr(registered, "__self__", None) is not self.device:
            return None
        if getattr(registered, "__name__", None) != action:
            return None
        if not self.device.has_submit(action):
            return None
        return getattr(self.device, f"submit_{action}")

    def submit(self, action: str, **kwargs: Any) -> ActionSubmission:
        """Submit ``action`` (phase one) and return its :class:`ActionSubmission`.

        The device's action log is inspected before and after the submission so
        the eventual invocation can report exactly which commands it caused.
        Actions without a two-phase device implementation (custom callables)
        execute synchronously at submission and complete as a no-op.
        """
        if action not in self.actions:
            raise ModuleActionError(
                f"module {self.name!r} has no action {action!r}; available: {self.action_names()}"
            )
        log_start = len(self.device.action_log)
        impl = self._submitters[action]
        if impl is not None:
            handle = impl(**kwargs)
            records = list(self.device.action_log[log_start:])
        else:
            value = self.actions[action](**kwargs)
            records = list(self.device.action_log[log_start:])
            if records:
                start = min(record.start_time for record in records)
                end = max(record.end_time for record in records)
            else:
                start = end = self.device.clock.now()
            handle = ActionHandle(
                module=self.name,
                action=action,
                start_time=start,
                end_time=end,
                completed=True,
                return_value=value,
            )
        return ActionSubmission(
            module=self.name,
            action=action,
            handle=handle,
            records=records,
        )

    def invoke(self, action: str, **kwargs: Any) -> ActionInvocation:
        """Invoke ``action`` with keyword arguments and return its outcome.

        Submit-then-complete in one call: the synchronous path for direct
        callers.
        """
        return self.submit(action, **kwargs).complete()

    def describe(self) -> Dict[str, Any]:
        """Static description used in workcell specifications and run records.

        ``two_phase`` lists the actions a transport driver can complete
        out-of-band (the device implements ``submit_<action>``), and
        ``driver`` names the bound transport (``None`` = pure simulation) --
        the fields ``fleet-status`` and the docs use to show transport
        bindings.
        """
        return {
            "name": self.name,
            "type": self.module_type,
            "actions": self.action_names(),
            "two_phase": self.two_phase_actions(),
            "driver": self.driver_name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Module(name={self.name!r}, type={self.module_type!r})"
