"""Resource timelines for exclusive devices.

A physical workcell's devices can each do one thing at a time: the pf400 arm
cannot move two plates at once, an OT-2 deck holds a single plate.  When the
scheduler runs workflows concurrently (the multi-OT-2 ablation), it reserves
device time on a :class:`ResourceTimeline`, which serialises overlapping
requests by pushing later requests back to the earliest free slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.utils.validation import check_non_negative

__all__ = ["ResourceTimeline"]


@dataclass
class ResourceTimeline:
    """Tracks the busy intervals of a single exclusive resource.

    The timeline is append-only and monotonic: each reservation starts no
    earlier than both the requested time and the end of the previous
    reservation.
    """

    name: str
    intervals: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def available_at(self) -> float:
        """Earliest time a new reservation could begin."""
        return self.intervals[-1][1] if self.intervals else 0.0

    @property
    def busy_time(self) -> float:
        """Total reserved time on this resource."""
        return sum(end - start for start, end in self.intervals)

    @property
    def reservations(self) -> int:
        """Number of reservations made so far."""
        return len(self.intervals)

    def reserve(self, requested_start: float, duration_s: float) -> Tuple[float, float]:
        """Reserve ``duration_s`` seconds at or after ``requested_start``.

        Returns the actual ``(start, end)`` granted; the start is delayed to
        the end of the previous reservation if the resource is still busy.
        """
        check_non_negative("requested_start", requested_start)
        check_non_negative("duration_s", duration_s)
        start = max(requested_start, self.available_at)
        end = start + duration_s
        self.intervals.append((start, end))
        return start, end

    def utilisation(self, horizon_s: float) -> float:
        """Fraction of ``[0, horizon_s]`` during which the resource was busy."""
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        busy = sum(min(end, horizon_s) - min(start, horizon_s) for start, end in self.intervals)
        return busy / horizon_s

    def idle_gaps(self) -> List[Tuple[float, float]]:
        """Return the idle intervals between consecutive reservations."""
        gaps: List[Tuple[float, float]] = []
        previous_end = 0.0
        for start, end in self.intervals:
            if start > previous_end:
                gaps.append((previous_end, start))
            previous_end = end
        return gaps
