"""A small discrete-event scheduler.

The workflow engine mostly advances the clock action-by-action, but the
multi-OT-2 ablation (paper Section 4: "integrating additional OT2s in our
workflow, so that multiple plates of colors could be mixed at once") needs
devices working concurrently.  :class:`EventScheduler` provides the classic
event-queue primitive: callbacks scheduled at future simulated times, executed
in time order, able to schedule further events.

The queue stores plain ``(time, sequence, event)`` tuples rather than ordered
Event objects: tuple comparison happens entirely in C, which matters because
a 16-workcell campaign pushes and pops one entry per device action.
Cancellation is lazy -- :meth:`Event.cancel` only flags the event -- but the
scheduler counts cancelled entries and compacts the heap once they are the
majority, so a workload that schedules-then-cancels (timeouts, retries) cannot
inflate the queue without bound.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import Clock, SimClock

__all__ = ["Event", "EventScheduler"]

#: Lazy-deletion bound: compact once at least this many cancelled entries sit
#: in the heap *and* they outnumber live ones.  Small enough to bound memory,
#: large enough that sporadic cancels never trigger an O(n) rebuild.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.

    The scheduler runs events by ``(time, sequence)``, the key of its heap
    entries; events themselves are never compared.
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        self._scheduler: Optional["EventScheduler"] = None

    def cancel(self) -> None:
        """Mark this event so it is skipped when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        flag = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time!r}, sequence={self.sequence}, label={self.label!r}{flag})"


class EventScheduler:
    """Time-ordered execution of callbacks against a clock.

    Any clock exposing ``now()``/``advance_to()`` works: a :class:`SimClock`
    jumps straight to each event's timestamp, while a
    :class:`~repro.sim.clock.WallClock` sleeps until it, so the same
    event-driven engine drives simulation and hardware alike.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._cancelled = 0
        self._processed = 0

    @property
    def active(self) -> int:
        """Number of events still waiting to run (excluding cancelled ones).

        Merge loops poll every shard's scheduler each iteration; checking
        ``active`` first lets a coordinator skip a shard whose queue holds
        nothing but cancelled husks without paying for a heap sweep.
        """
        return len(self._queue) - self._cancelled

    @property
    def queue_size(self) -> int:
        """Raw heap size, including lazily-deleted (cancelled) entries."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._processed

    def next_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when idle.

        Lets a coordinator merge several schedulers by always stepping the
        one whose next event is earliest (multi-workcell sharding).
        """
        if self.active == 0:
            return None
        event = self._peek()
        return event.time if event is not None else None

    def schedule_at(self, timestamp: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute simulated time ``timestamp``."""
        if timestamp < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past (now={self.clock.now()}, requested={timestamp})"
            )
        return self._push(float(timestamp), callback, label)

    def schedule_after(self, delay_s: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` ``delay_s`` seconds from the current time."""
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        # Fast path: a non-negative delay from "now" can never be in the past,
        # so skip the schedule_at validation (and its second clock read).
        return self._push(self.clock.now() + delay_s, callback, label)

    def _push(self, timestamp: float, callback: Callable[[], None], label: str) -> Event:
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(timestamp, sequence, callback, label)
        event._scheduler = self
        heapq.heappush(self._queue, (timestamp, sequence, event))
        return event

    def _note_cancelled(self) -> None:
        """Account for one lazily-deleted event; compact when they dominate."""
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN_CANCELLED and self._cancelled * 2 >= len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors (O(n))."""
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def step(self) -> Optional[Event]:
        """Run the next pending event (advancing the clock to it) and return it.

        Returns ``None`` when the queue is empty.  Cancelled events are
        silently discarded.
        """
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.clock.advance_to(event.time)
            event.callback()
            self._processed += 1
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached or ``max_events`` fire.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                break
            if self.step() is not None:
                executed += 1
        if until is not None and self.clock.now() < until and not self._queue:
            # Idle out the remainder of the window.
            self.clock.advance_to(until)
        return executed

    def _peek(self) -> Optional[Event]:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][2] if queue else None
