"""The flight recorder: a bounded ring of recent spans and events.

When something dies -- a :class:`~repro.wei.drivers.base.CompletionTimeout`,
a failing test -- the question is always "what was happening just
before?".  The recorder answers it: while observability is
installed, every finished span (fed by the tracer) and every explicit
:meth:`FlightRecorder.note` lands in a fixed-capacity ring, and
:func:`flight_dump` snapshots the ring to a JSON artifact at the moment of
failure.

Dump triggers (the protocol, see ``docs/observability.md``):

* ``CompletionTimeout`` -- the completion bridge calls :func:`flight_dump`
  at the raise site;
* failing tests -- the root ``conftest.py`` extends the
  ``REPRO_PORTAL_ARTIFACTS`` hook to copy the active recorder's dump next
  to the failing test's portal stores.

The dump directory resolves, in order: the explicit ``directory``
argument, the ``REPRO_OBS_FLIGHT_DIR`` environment variable, else the
dump is kept in memory only (:attr:`FlightRecorder.last_dump`) for a
supervising layer (the conftest hook) to write.

Ring appends are ``deque.append`` on a bounded deque -- atomic under the
GIL -- so recording takes no locks and adds no lock-order edges.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from repro.obs import tracer as _tracer_module
from repro.obs.tracer import Span

__all__ = [
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "active",
    "install",
    "uninstall",
    "note",
    "flight_dump",
]

#: Environment variable naming the directory crash dumps are written to.
FLIGHT_DIR_ENV = "REPRO_OBS_FLIGHT_DIR"

#: Default ring capacity (most recent spans/events kept).
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Fixed-capacity ring of the most recent spans and events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self.dumps = 0
        #: The most recent dump document (kept even when nothing was written).
        self.last_dump: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_span(self, span: Span) -> None:
        """The tracer's sink: every finished span enters the ring."""
        entry = span.to_dict()
        entry["kind"] = "span"
        self._ring.append(entry)

    def note(self, event: str, **data: Any) -> None:
        """Record a free-form event (invariant diffs, operator notes)."""
        self._ring.append({"kind": "event", "event": event, "wall": time.monotonic(), **data})

    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's current contents, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(
        self,
        reason: str,
        *,
        directory: Optional[Path] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Optional[Path]:
        """Snapshot the ring as a JSON artifact.

        Returns the written path, or ``None`` when no directory was given
        and :data:`FLIGHT_DIR_ENV` is unset -- the document is still kept
        in :attr:`last_dump` either way.
        """
        self.dumps += 1
        document = {
            "reason": reason,
            "dumped_wall": time.monotonic(),
            "context": dict(context or {}),
            "capacity": self.capacity,
            "events": self.snapshot(),
        }
        self.last_dump = document
        if directory is None:
            env_dir = os.environ.get(FLIGHT_DIR_ENV)
            if env_dir:
                directory = Path(env_dir)
        if directory is None:
            return None
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        safe_reason = "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in reason)
        path = directory / f"flight-{safe_reason}-{self.dumps}.json"
        path.write_text(json.dumps(document, indent=2, default=str) + "\n", encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# Module-level activation (mirrors the tracer's switch)
# ---------------------------------------------------------------------------

_active: Optional[FlightRecorder] = None


def active() -> Optional[FlightRecorder]:
    """The installed recorder, or ``None``."""
    return _active


def install(recorder: Optional[FlightRecorder] = None) -> FlightRecorder:
    """Install ``recorder`` (or a fresh one) and, when a tracer is active,
    subscribe it to finished spans."""
    global _active
    if recorder is None:
        recorder = FlightRecorder()
    _active = recorder
    tracer = _tracer_module.active()
    if tracer is not None and recorder.record_span not in tracer._sinks:
        tracer._sinks.append(recorder.record_span)
    return recorder


def uninstall() -> Optional[FlightRecorder]:
    """Deactivate the recorder and detach it from the tracer."""
    global _active
    recorder = _active
    _active = None
    tracer = _tracer_module.active()
    if tracer is not None and recorder is not None:
        try:
            tracer._sinks.remove(recorder.record_span)
        except ValueError:
            pass
    return recorder


def note(event: str, **data: Any) -> None:
    """Record an event on the active recorder; no-op when none."""
    recorder = _active
    if recorder is None:
        return
    recorder.note(event, **data)


def flight_dump(
    reason: str,
    *,
    directory: Optional[Path] = None,
    **context: Any,
) -> Optional[Path]:
    """Dump the active recorder's ring; no-op (returns ``None``) when off."""
    recorder = _active
    if recorder is None:
        return None
    return recorder.dump(reason, directory=directory, context=context)
