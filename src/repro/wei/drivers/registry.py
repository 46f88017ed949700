"""Driver registry: which transport backs which module type.

One engine owns one :class:`DriverRegistry`; the registry owns the
:class:`~repro.wei.drivers.bridge.CompletionBridge` every bound driver posts
into, so the engine has a single completion queue to drain regardless of how
many distinct transports the workcell mixes (an OT-2 speaking HTTP, a PF400
on a serial bridge, ...).  Lookup is by module *name* first (``"ot2_2"``),
then module *type* (``"ot2"``); modules with no binding simply run in pure
simulation -- a workcell can migrate to real transports one device at a
time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.wei.drivers.base import DeviceDriver
from repro.wei.drivers.bridge import CompletionBridge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.wei.module import Module
    from repro.wei.workcell import Workcell

__all__ = ["DriverRegistry"]


class DriverRegistry:
    """Maps module types (or specific module names) to device drivers."""

    def __init__(self, bridge: Optional[CompletionBridge] = None) -> None:
        self.bridge = bridge if bridge is not None else CompletionBridge()
        self._by_type: Dict[str, DeviceDriver] = {}
        self._by_name: Dict[str, DeviceDriver] = {}
        self._connected: List[int] = []

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _connect(self, driver: DeviceDriver) -> DeviceDriver:
        if id(driver) not in self._connected:
            driver.on_completion(self.bridge.post)
            self._connected.append(id(driver))
        return driver

    def bind_type(self, module_type: str, driver: DeviceDriver) -> DeviceDriver:
        """Back every module of ``module_type`` with ``driver``."""
        self._by_type[module_type] = self._connect(driver)
        return driver

    def bind_module(self, module_name: str, driver: DeviceDriver) -> DeviceDriver:
        """Back the specific module ``module_name`` (wins over its type binding)."""
        self._by_name[module_name] = self._connect(driver)
        return driver

    def driver_for(self, module: "Module") -> Optional[DeviceDriver]:
        """The driver backing ``module``, or ``None`` for pure simulation."""
        driver = self._by_name.get(module.name)
        if driver is None:
            driver = self._by_type.get(module.module_type)
        return driver

    def attach(self, workcell: "Workcell") -> Dict[str, str]:
        """Record each bound module's driver on the module itself.

        Returns ``{module_name: driver_name}`` for every module that got a
        binding; :meth:`Module.describe` then reports the transport, which
        is how ``fleet-status`` / ``workcell`` views show what is simulated
        and what rides a real transport.
        """
        bound: Dict[str, str] = {}
        for module in workcell.modules.values():
            driver = self.driver_for(module)
            module.bind_driver(driver)
            if driver is not None:
                bound[module.name] = driver.name
        return bound

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def drivers(self) -> List[DeviceDriver]:
        """Every distinct bound driver (registration order)."""
        unique: List[DeviceDriver] = []
        for driver in list(self._by_name.values()) + list(self._by_type.values()):
            if all(existing is not driver for existing in unique):
                unique.append(driver)
        return unique

    def describe(self) -> Dict[str, str]:
        """``{binding: driver_name}`` for every registered binding."""
        described = {name: driver.name for name, driver in self._by_name.items()}
        described.update(
            {f"type:{module_type}": driver.name for module_type, driver in self._by_type.items()}
        )
        return described

    def close(self) -> None:
        """Close every bound driver (stops their worker threads)."""
        for driver in self.drivers():
            driver.close()

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_transport(cls, workcell: "Workcell", transport: DeviceDriver) -> "DriverRegistry":
        """Back every module type in ``workcell`` with one ``transport``.

        The registry is attached so ``Module.describe()`` reports the
        binding; :meth:`wire` is a thin wrapper over this.
        """
        registry = cls(bridge=CompletionBridge(name=f"{transport.name}-bridge"))
        for module_type in sorted({m.module_type for m in workcell.modules.values()}):
            registry.bind_type(module_type, transport)
        registry.attach(workcell)
        return registry

    @classmethod
    def wire(
        cls,
        workcell: "Workcell",
        *,
        speedup: float = 1000.0,
        name: str = "wire",
        **transport_kwargs,
    ) -> "DriverRegistry":
        """One :class:`~repro.wei.drivers.protocol.WireProtocolTransport` per workcell.

        The framed-protocol configuration: every module's actions travel as
        length-prefixed CRC frames over an in-process byte pipe, with
        ACK/retry and reconnect-with-resync.  ``transport_kwargs`` reach the
        transport constructor -- most importantly ``chaos=`` for a seeded
        :class:`~repro.wei.chaos.ChaosSchedule`.
        """
        from repro.wei.drivers.protocol import WireProtocolTransport

        return cls.for_transport(
            workcell, WireProtocolTransport(name=name, speedup=speedup, **transport_kwargs)
        )
