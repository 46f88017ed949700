"""Outside-in span tracing of the program's layers.

The benchmark measures each layer from outside: :class:`SpanRecorder`
replaces the public entry points listed by :func:`entry_points` with timing
wrappers for the length of one traced repetition and puts the originals back
afterwards.  Nothing under ``src/`` is instrumented, so a later change that
moves work between layers shows up here without the benchmark changing.

A span records its name, its layer, its start and end
(``time.perf_counter``), the index of its parent span on the same thread,
and the time its direct children covered.  A layer's self time is its span
time minus its child time.  Spans stay in memory, one list per thread, and
:func:`summarise` reduces them when the repetition ends.  Only spans opened
while the recorder's root span is open are kept, so the benchmark's own
output checks never count towards a layer.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "SpanRecorder", "TraceSummary", "entry_points", "summarise"]

#: Layers in the order the layer table prints them (``root`` is the
#: workload call itself; its self time is the wall no entry point covered).
LAYERS = (
    "solvers",
    "vision.render",
    "vision.extract",
    "hardware",
    "color",
    "wei",
    "drivers",
    "publish",
)

# Span record fields (a list per span keeps the wrapper cheap).
_NAME, _LAYER, _START, _END, _PARENT, _CHILD = range(6)

#: ``(owner, attribute, span name, layer)`` of every module-level entry
#: point and every method whose class is fixed.  Functions are patched where
#: their caller looks them up (``render_plate_image`` as imported by the
#: camera, ``score_colors`` as imported by the app program).
_FIXED_ENTRY_POINTS = (
    ("repro.hardware.camera", "render_plate_image", "vision.render", "vision.render"),
    ("repro.vision.extraction:WellColorExtractor", "extract", "vision.extract", "vision.extract"),
    ("repro.hardware.base:ActionHandle", "complete", "hardware.complete", "hardware"),
    ("repro.color.mixing:SubtractiveMixingModel", "mix", "color.mix", "color"),
    ("repro.core.app", "score_colors", "color.score", "color"),
    ("repro.sim.events:EventScheduler", "step", "sim.step", "wei"),
    ("repro.wei.coordinator:MultiWorkcellCoordinator", "run_jobs", "wei.run_jobs", "wei"),
    ("repro.wei.engine:WorkflowEngine", "run_workflow", "wei.run_workflow", "wei"),
    ("repro.wei.drivers.protocol:WireProtocolTransport", "submit", "drivers.submit", "drivers"),
    ("repro.wei.drivers.bridge:CompletionBridge", "wait_for", "drivers.wait_for", "drivers"),
    ("repro.wei.drivers.protocol", "encode_frame", "drivers.encode", "drivers"),
    ("repro.wei.drivers.protocol:FrameDecoder", "feed", "drivers.decode", "drivers"),
)

_PORTAL_CLASSES = (
    "repro.publish.portal:PortalBackend",
    "repro.publish.portal:DataPortal",
    "repro.publish.store:DurableDataPortal",
)
_PORTAL_METHODS = {
    "ingest": "publish.ingest",
    "search": "publish.search",
    "search_page": "publish.search_page",
    "summary_view": "publish.summary_view",
    "detail_view": "publish.detail_view",
}


def _resolve(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def entry_points() -> List[Tuple[Any, str, str, str]]:
    """``(owner, attribute, span name, layer)`` for every wrapped entry point.

    Methods are wrapped on the class that defines them, so an inherited
    method is wrapped once, on its base.  Solvers are every class in the
    solver registry plus their base.
    """
    from repro.solvers.base import SOLVER_REGISTRY, ColorSolver

    points = [(_resolve(owner), attr, span, layer) for owner, attr, span, layer in _FIXED_ENTRY_POINTS]
    solver_classes = [ColorSolver] + [cls for cls in SOLVER_REGISTRY.values() if isinstance(cls, type)]
    for cls in dict.fromkeys(solver_classes):
        for attr in ("propose", "observe"):
            if attr in vars(cls):
                points.append((cls, attr, f"solver.{attr}", "solvers"))
    for path in _PORTAL_CLASSES:
        cls = _resolve(path)
        for attr, span in _PORTAL_METHODS.items():
            if attr in vars(cls):
                points.append((cls, attr, span, "publish"))
    return points


class _ThreadSpans:
    """One thread's spans and its stack of open span indices."""

    __slots__ = ("ident", "spans", "stack")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.spans: List[list] = []
        self.stack: List[int] = []


class SpanRecorder:
    """Wraps the entry points, records spans per thread, restores on exit.

    Use :meth:`installed` around a repetition and :meth:`root` around the
    workload call inside it::

        recorder = SpanRecorder()
        with recorder.installed():
            with recorder.root():
                run_campaign(...)
        summary = summarise(recorder)
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._originals: List[Tuple[Any, str, Any]] = []
        #: Spans are kept only while the root span is open.
        self.active = False
        self.engine_thread = 0

    # -- per-thread state --------------------------------------------------
    def _state(self) -> _ThreadSpans:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadSpans()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
            return state

    def threads(self) -> List[_ThreadSpans]:
        """Every thread's span list recorded so far."""
        with self._threads_lock:
            return list(self._threads)

    # -- spans ------------------------------------------------------------
    def _open(self, name: str, layer: str) -> Any:
        """Push a span on this thread; ``None`` for a re-entrant call.

        A re-entrant call (an override calling ``super()``) folds into the
        outer span so call counts stay one per public call.
        """
        state = self._state()
        spans, stack = state.spans, state.stack
        if stack and spans[stack[-1]][_NAME] == name:
            return None
        record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(record)
        record[_START] = time.perf_counter()
        return state, record

    @staticmethod
    def _close(opened: Any) -> None:
        end = time.perf_counter()
        state, record = opened
        record[_END] = end
        state.stack.pop()
        if record[_PARENT] >= 0:
            state.spans[record[_PARENT]][_CHILD] += end - record[_START]

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        recorder = self
        open_span, close_span = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            opened = open_span(name, layer)
            if opened is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(opened)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span opened at the benchmark's own call site."""
        opened = self._open(name, layer) if self.active else None
        try:
            yield
        finally:
            if opened is not None:
                self._close(opened)

    @contextmanager
    def root(self) -> Iterator[None]:
        """The workload call: spans are kept only while this is open."""
        self.engine_thread = threading.get_ident()
        self.active = True
        try:
            with self.span("workload", "root"):
                yield
        finally:
            self.active = False

    # -- patching ---------------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every entry point; restore every original on exit."""
        try:
            for owner, attr, name, layer in entry_points():
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, layer))
            yield self
        finally:
            while self._originals:
                owner, attr, original = self._originals.pop()
                setattr(owner, attr, original)


@dataclass
class TraceSummary:
    """The reduction of one traced repetition."""

    #: Wall seconds of the root (workload) span.
    wall_s: float = 0.0
    #: Span name -> number of spans (every thread).
    calls: Dict[str, int] = field(default_factory=dict)
    #: Span name -> self seconds, summed over every thread.
    self_s: Dict[str, float] = field(default_factory=dict)
    #: Layer -> self seconds on the thread that ran the workload.
    engine_self_s: Dict[str, float] = field(default_factory=dict)
    #: Layer -> self seconds on every other thread (codec, device workers).
    offthread_self_s: Dict[str, float] = field(default_factory=dict)
    #: Layer -> number of spans (every thread).
    layer_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Share of the workload wall that engine-thread layer self times add up to."""
        covered = sum(value for layer, value in self.engine_self_s.items() if layer != "root")
        return covered / self.wall_s if self.wall_s > 0 else 0.0

    def layer_self_s(self, layer: str) -> float:
        """Self seconds of ``layer`` on every thread."""
        return self.engine_self_s.get(layer, 0.0) + self.offthread_self_s.get(layer, 0.0)


def summarise(recorder: SpanRecorder) -> TraceSummary:
    """Reduce every thread's spans to per-name and per-layer self times."""
    summary = TraceSummary()
    for thread in recorder.threads():
        on_engine = thread.ident == recorder.engine_thread
        by_layer = summary.engine_self_s if on_engine else summary.offthread_self_s
        for span in thread.spans:
            name, layer, start, end, _parent, child = span
            if end == 0.0:
                continue  # still open: a thread was mid-call when the root closed
            duration = end - start
            own = duration - child
            if layer == "root":
                summary.wall_s += duration
            summary.calls[name] = summary.calls.get(name, 0) + 1
            summary.self_s[name] = summary.self_s.get(name, 0.0) + own
            by_layer[layer] = by_layer.get(layer, 0.0) + own
            summary.layer_calls[layer] = summary.layer_calls.get(layer, 0) + 1
    return summary
