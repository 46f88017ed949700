"""``repro.obs``: the unified telemetry layer.

Three cooperating pieces (full model in ``docs/observability.md``):

* :mod:`repro.obs.tracer` -- causal span tracing: per-thread buffers, a
  central collector, dual SimClock/monotonic timestamps, parent/child
  links across threads.  Off by default; :func:`span`/:func:`event` are
  near-free no-ops until a tracer is installed.
* :mod:`repro.obs.metrics` -- the process-wide metrics registry the
  layers' ad-hoc counters are re-homed onto (their public accessors stay
  as thin views).  Always on; mutation rides the owning component's lock.
* :mod:`repro.obs.recorder` -- the flight recorder: a bounded ring of
  recent spans/events dumped as a JSON artifact on ``CompletionTimeout``
  and failing tests.

:func:`observed` is the one-call switch the CLI's ``--trace`` flag and
the bench harness use::

    with obs.observed() as session:
        run_campaign(...)
    session.write_trace(path)
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import recorder as _recorder_module
from repro.obs import tracer as _tracer_module
from repro.obs.export import (
    chrome_trace_events,
    load_trace,
    render_summary,
    summarise_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    next_instance,
    reset_registry,
)
from repro.obs.recorder import FlightRecorder, flight_dump, note
from repro.obs.tracer import Span, Tracer, active, bind, bound, event, span, unbind

__all__ = [
    "Span",
    "Tracer",
    "span",
    "event",
    "bind",
    "bound",
    "unbind",
    "active",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "next_instance",
    "FlightRecorder",
    "flight_dump",
    "note",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_trace",
    "summarise_trace",
    "render_summary",
    "ObservedSession",
    "observed",
]


class ObservedSession:
    """One tracing window: installs tracer + recorder, collects on exit."""

    def __init__(self, *, max_spans: int = 1_000_000, recorder_capacity: int = 4096) -> None:
        self.tracer = Tracer(max_spans=max_spans)
        self.recorder = FlightRecorder(capacity=recorder_capacity)
        self.spans: List[Span] = []

    def __enter__(self) -> "ObservedSession":
        _tracer_module.install(self.tracer)
        _recorder_module.install(self.recorder)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.spans = self.tracer.drain()
        if _recorder_module.active() is self.recorder:
            _recorder_module.uninstall()
        if _tracer_module.active() is self.tracer:
            _tracer_module.uninstall()

    def write_trace(self, path: Path, *, metadata: Optional[Dict[str, Any]] = None) -> Path:
        """Export the collected spans as Perfetto-loadable Chrome JSON."""
        spans = self.spans if self.spans else self.tracer.drain()
        return write_chrome_trace(spans, path, metadata=metadata)

    def summary(self) -> Dict[str, Any]:
        """Per-stage percentiles and the slowest run's critical path."""
        spans = self.spans if self.spans else self.tracer.drain()
        return summarise_trace([span_obj.to_dict() for span_obj in spans])


def observed(*, max_spans: int = 1_000_000, recorder_capacity: int = 4096) -> ObservedSession:
    """``with obs.observed() as session:`` -- trace the enclosed work."""
    return ObservedSession(max_spans=max_spans, recorder_capacity=recorder_capacity)
