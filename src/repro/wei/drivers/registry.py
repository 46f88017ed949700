"""Driver registry: the one transport behind a workcell engine.

One engine owns one :class:`DriverRegistry`, which holds the single
:class:`~repro.wei.drivers.base.DeviceDriver` every module's actions ride
and the :class:`~repro.wei.drivers.bridge.CompletionBridge` that driver
posts into, so the engine has a single completion queue to drain.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.wei.drivers.base import DeviceDriver
from repro.wei.drivers.bridge import CompletionBridge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.clock import WallClock
    from repro.wei.workcell import Workcell

__all__ = ["DriverRegistry"]


class DriverRegistry:
    """One transport and the completion bridge it posts into."""

    def __init__(self, transport: DeviceDriver, bridge: Optional[CompletionBridge] = None) -> None:
        self.transport = transport
        self.bridge = bridge if bridge is not None else CompletionBridge()
        transport.on_completion(self.bridge.post)

    def close(self) -> None:
        """Close the transport (stops its worker threads)."""
        self.transport.close()

    @classmethod
    def wire(
        cls,
        workcell: "Workcell",
        *,
        name: str = "wire",
        speedup: float = 1000.0,
        wall_clock: Optional["WallClock"] = None,
        chaos: Optional[Any] = None,
    ) -> "DriverRegistry":
        """Back every module in ``workcell`` with one
        :class:`~repro.wei.drivers.protocol.WireProtocolTransport`.

        The framed-protocol configuration: every module's actions travel as
        length-prefixed CRC frames over an in-process byte pipe, with
        ACK/retry and loss recovery.  The keyword parameters reach the
        transport constructor -- ``chaos=`` takes a seeded
        :class:`~repro.wei.chaos.ChaosSchedule`.  ``workcell`` is not read:
        the engine that owns the registry submits each of its actions to the
        transport.
        """
        from repro.wei.drivers.protocol import WireProtocolTransport

        transport = WireProtocolTransport(
            name=name, speedup=speedup, wall_clock=wall_clock, chaos=chaos
        )
        return cls(transport, CompletionBridge(name=f"{name}-bridge"))
