"""Asynchronous device drivers and transports (`repro.wei.drivers`).

The bridge from "fast simulation" to "as fast as the hardware allows": a
:class:`DeviceDriver` accepts submitted actions and completes them
out-of-band from its own threads, and a :class:`CompletionBridge` hands
those completions back to the single-threaded engine.
:class:`WireProtocolTransport` is the driver: each action travels as a
length-prefixed CRC-checked frame over an in-process byte pipe to a
:class:`ProtocolDevice` that paces the action's simulated duration against
a speedup-scaled :class:`~repro.sim.clock.WallClock`, with ACK/retry,
idempotent retransmission and reconnect-with-resync (the substrate
:mod:`repro.wei.chaos` injects faults into).  See ``docs/drivers.md`` for
the threading model and fault semantics.
"""

from repro.wei.drivers.base import (
    CompletionTimeout,
    DeviceDriver,
    DriverError,
    InBandCompletionError,
    TransportCompletion,
    TransportTicket,
)
from repro.wei.drivers.bridge import BridgeStats, CompletionBridge
from repro.wei.drivers.protocol import (
    BytePipe,
    Frame,
    FrameDecoder,
    FrameError,
    ProtocolDevice,
    WireProtocolTransport,
    WireStats,
    encode_frame,
)
from repro.wei.drivers.registry import DriverRegistry

__all__ = [
    "DriverError",
    "CompletionTimeout",
    "InBandCompletionError",
    "TransportTicket",
    "TransportCompletion",
    "DeviceDriver",
    "BridgeStats",
    "CompletionBridge",
    "Frame",
    "FrameError",
    "FrameDecoder",
    "encode_frame",
    "BytePipe",
    "ProtocolDevice",
    "WireProtocolTransport",
    "WireStats",
    "DriverRegistry",
]
