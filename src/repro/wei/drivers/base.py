"""The device-driver protocol: asynchronous transports behind the modules.

On the real workcell every module fronts a network service: the engine sends
a command, the device's driver accepts it immediately, and the *completion*
arrives later from whatever thread the driver's transport uses to poll or
receive callbacks (paper Section 2.2: workflow steps "call driver functions
specific to their attached device").  The simulation so far collapsed those
two moments -- every device :class:`~repro.hardware.base.ActionHandle` was
completed inline on the engine's own event loop.  This package restores the
split:

* :class:`DeviceDriver` is the protocol a transport implements:
  :meth:`~DeviceDriver.submit` accepts an already-validated action and
  returns a :class:`TransportTicket`; :meth:`~DeviceDriver.on_completion`
  registers the callback(s) the driver fires -- **from its own threads,
  never the submitting one** -- when the hardware reports the action done.
* :class:`TransportTicket` / :class:`TransportCompletion` are the two halves
  of one transport round-trip, matched by ``ticket_id``.
* :class:`~repro.wei.drivers.bridge.CompletionBridge` marries the driver's
  callback threads to the engine's single-threaded two-phase lifecycle.
* :class:`~repro.wei.drivers.protocol.WireProtocolTransport` is the
  driver: it frames each action onto a byte pipe whose far end paces the
  sampled duration against a :class:`~repro.sim.clock.WallClock` (with a
  configurable speedup), and posts completions strictly out-of-band.

Driver errors
-------------

:class:`DriverError` is the base; :class:`CompletionTimeout` is raised by
the engine side when a ticket's completion has not arrived within the
configured real-time grace period after the action was due, and :class:`InBandCompletionError` when a
driver misbehaves by delivering a completion from the thread that is
consuming it (which would silently serialise "asynchronous" hardware).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.wei.drivers.protocol import WireStats

__all__ = [
    "DriverError",
    "CompletionTimeout",
    "InBandCompletionError",
    "TransportTicket",
    "TransportCompletion",
    "DeviceDriver",
]


class DriverError(RuntimeError):
    """Base class for transport-layer failures."""


class CompletionTimeout(DriverError):
    """A ticket's completion never arrived within the real-time deadline."""


class InBandCompletionError(DriverError):
    """A completion was delivered from the thread consuming it (not out-of-band)."""


@dataclass(frozen=True)
class TransportTicket:
    """Phase-one receipt for an action handed to a device driver.

    ``duration_s`` is the action's already-sampled simulated duration (the
    device drew it at submission, exactly as in pure simulation); the
    transport decides how much *real* time that maps to, and records when
    the completion is due in ``due_monotonic`` (a :func:`time.monotonic`
    reading; 0.0 means due at once).  ``sim_start`` / ``sim_end`` are the
    simulated timestamps the engine recorded, so drivers and diagnostics can
    correlate transport traffic with the run log.
    """

    ticket_id: str
    module: str
    action: str
    duration_s: float
    sim_start: float = 0.0
    sim_end: float = 0.0
    due_monotonic: float = 0.0


@dataclass
class TransportCompletion:
    """One out-of-band "action finished" message from a driver.

    ``posted_monotonic`` is stamped (real :func:`time.monotonic` seconds)
    when the driver hands the completion over; ``delivered_monotonic`` when
    the engine thread consumes it.  Their difference is the
    completion-delivery latency the benchmarks report.  ``thread_id`` /
    ``thread_name`` identify the posting thread so tests can assert no
    completion was ever produced on the engine thread.

    ``failure`` is set when the command never reached the device (a
    transport that gave up on it, or closed first): the engine raises it
    when it waits for the ticket instead of applying the action.
    """

    ticket_id: str
    module: str
    action: str
    error: Optional[str] = None
    posted_monotonic: float = field(default=0.0)
    delivered_monotonic: Optional[float] = None
    thread_id: int = 0
    thread_name: str = ""
    details: Dict[str, Any] = field(default_factory=dict)
    failure: Optional[BaseException] = None

    @staticmethod
    def for_ticket(
        ticket: TransportTicket,
        error: Optional[str] = None,
        failure: Optional[BaseException] = None,
    ) -> "TransportCompletion":
        """Build a completion for ``ticket``, stamped with the calling thread."""
        current = threading.current_thread()
        return TransportCompletion(
            ticket_id=ticket.ticket_id,
            module=ticket.module,
            action=ticket.action,
            error=error,
            failure=failure,
            posted_monotonic=time.monotonic(),
            thread_id=current.ident or 0,
            thread_name=current.name,
        )

    @property
    def latency_s(self) -> Optional[float]:
        """Real seconds between posting and engine-side delivery (None if unconsumed)."""
        if self.delivered_monotonic is None:
            return None
        return self.delivered_monotonic - self.posted_monotonic


@runtime_checkable
class DeviceDriver(Protocol):
    """What every transport must implement to back a module's actions.

    Implementations accept actions whose simulated duration was already
    sampled by the device (phase one of the two-phase lifecycle) and later
    announce their completion to every registered callback.  Callbacks MUST
    be fired from a driver-owned thread, never from inside :meth:`submit` on
    the submitting thread -- the completion path is the whole point of the
    protocol.
    """

    #: Human-readable driver name (labels its tickets, frames and spans).
    name: str

    def submit(self, action: str, *, module: str, duration_s: float, **kwargs: Any) -> TransportTicket:
        """Accept ``action`` for ``module`` and return its ticket.

        Returns without waiting on the device: a transport that confirms
        delivery (the wire protocol's ACK) does so on its own threads, and
        a command that never reaches the device fails its ticket -- a
        completion whose ``failure`` is set -- instead of this call.
        """
        ...

    def on_completion(self, callback: Callable[[TransportCompletion], None]) -> None:
        """Register ``callback`` for every future completion (idempotent per callback)."""
        ...

    def pending(self) -> int:
        """Number of accepted actions whose completion has not been posted yet."""
        ...

    def stats(self) -> "WireStats":
        """Recovery counters snapshot, read atomically under the driver's lock."""
        ...

    def close(self) -> None:
        """Stop worker threads; in-flight actions may be dropped."""
        ...
