"""The WEI module abstraction.

"Each module is represented by a software abstraction that exposes a single
device and, via interface methods, the actions that the device can perform"
(paper Section 2.2).  :class:`Module` wraps a simulated device and exposes
exactly its ``submit_<action>`` methods as the actions named ``<action>``.

Actions follow the two-phase lifecycle of the hardware layer:
:meth:`Module.submit` accepts the command (validating, sampling its duration
and logging its record) and returns the device's
:class:`~repro.hardware.base.ActionHandle`, whose ``record`` is the one
command it logged -- the engine attributes time and command counts to
workflow steps from it -- and whose
:meth:`~repro.hardware.base.ActionHandle.complete` applies the state
mutations and returns the action's value.  A sequential caller completes at
once: ``module.submit("transfer", source=a, target=b).complete()``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.hardware.base import ActionHandle, SimulatedDevice

__all__ = ["ModuleActionError", "Module"]


class ModuleActionError(RuntimeError):
    """Raised when an unknown action is requested or an action is misused."""


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

    def submit(self, action: str, **kwargs: Any) -> ActionHandle:
        """Submit ``action`` (phase one) and return the device's :class:`ActionHandle`."""
        submitter = self._submitters.get(action)
        if submitter is None:
            raise ModuleActionError(
                f"module {self.name!r} has no action {action!r}; available: {self.action_names()}"
            )
        return submitter(**kwargs)

    def describe(self) -> Dict[str, Any]:
        """Static description used in workcell specifications and run records."""
        return {
            "name": self.name,
            "type": self.module_type,
            "actions": self.action_names(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Module(name={self.name!r}, type={self.module_type!r})"
