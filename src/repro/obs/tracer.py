"""Causal span tracing with per-thread buffers and a central collector.

The tracer answers "where did run 4123's action spend its time?" by
recording **spans** -- named intervals carrying dual timestamps (wall
monotonic *and* simulated clock time where the caller has one), thread
identity, and parent/child causality -- end-to-end across the stack:
campaign → run → step → action submit/complete → wire frame/retry/resync →
completion-bridge post/deliver → portal ingest.  One trace therefore shows
a run's full causal tree even though its spans land on several OS threads
(engine loop, wire reader, wire retransmitter, device reader and worker).

Activation mirrors :mod:`repro.analysis.runtime`: a module-level
``_active`` tracer that is ``None`` by default.  Every instrumentation
site goes through :func:`span` / :func:`event` / :func:`bound`, whose
disabled fast path is a single global read plus a shared no-op context
manager -- no allocation, no locking -- so tracing off costs near zero
(the ``obs`` bench area measures and gates this).

Concurrency design (see ``docs/observability.md``):

* span *recording* is lock-free: each thread appends finished spans to its
  own buffer (``list.append`` is atomic under the GIL) and only the
  *drain* takes the collector lock (role ``"obs-collector"``, built via
  :func:`repro.analysis.runtime.make_lock` so the lock-order graph covers
  it).  Because the collector never calls out into other subsystems while
  holding its lock, every graph edge points *towards* ``obs-collector``
  and the graph stays acyclic.
* cross-thread causality is propagated through explicit **bindings**: the
  engine binds a ticket id to its action span, and the driver threads look
  the parent up with :func:`bound` when the completion comes back.
* spans that start and end in different event-loop callbacks (the
  two-phase action, the coordinator's claim→done run window) are recorded
  at *end* time via :meth:`Tracer.record_complete` with a pre-allocated
  id from :meth:`Tracer.new_id`, so there is never an open span to leak.

Open/close discipline: instrumentation opens spans only through the
``with tracer.span(...)`` context manager -- the lint rule RPR007 flags
any bare :meth:`Tracer.start_span` call outside a ``try/finally``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.runtime import make_lock

__all__ = [
    "COLLECTOR_LOCK_ROLE",
    "Span",
    "Tracer",
    "span",
    "event",
    "bound",
    "bind",
    "unbind",
    "active",
    "install",
    "uninstall",
]

#: Lock-order-graph role name of the tracer's collector lock.
COLLECTOR_LOCK_ROLE = "obs-collector"

#: Finished spans a thread buffers before draining into the collector.
_FLUSH_THRESHOLD = 256


@dataclass
class Span:
    """One named interval on one thread.

    ``start_wall``/``end_wall`` are :func:`time.monotonic` seconds;
    ``start_sim``/``end_sim`` are simulated-clock seconds when the
    recording site had a clock in hand (engine-side spans do, wire-reader
    spans do not -- the dual timestamps are what let a trace line up the
    simulated schedule against real transport latency).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    thread_id: int
    thread_name: str
    start_wall: float
    end_wall: Optional[float] = None
    start_sim: Optional[float] = None
    end_sim: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        """Wall duration, or ``None`` while the span is still open."""
        if self.end_wall is None:
            return None
        return self.end_wall - self.start_wall

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the flight-recorder/export shape)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class _ThreadState:
    """One thread's recording state: finished-span buffer and open-span stack.

    A plain object (NOT ``threading.local``): each recording thread creates
    its own instance and registers it with the collector, which must be able
    to read *other* threads' buffers at drain time -- a ``threading.local``
    would resolve to the draining thread's empty namespace instead.
    """

    __slots__ = ("buffer", "stack", "started", "ended")

    def __init__(self) -> None:
        self.buffer: List[Span] = []
        self.stack: List[int] = []
        self.started = 0
        self.ended = 0


class _SpanContext:
    """The ``with tracer.span(...)`` handle.

    Entering pushes the span onto the thread's open stack (so nested spans
    auto-parent); exiting pops it, stamps the end timestamps (and
    ``status="error"`` on an exception), and records the finished span.
    """

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span_obj: Span) -> None:
        self._tracer = tracer
        self.span = span_obj

    def set(self, **attrs: Any) -> "_SpanContext":
        """Merge extra attributes onto the span; chainable."""
        self.span.attrs.update(attrs)
        return self

    def set_sim(self, *, start: Optional[float] = None, end: Optional[float] = None) -> None:
        """Stamp simulated-clock timestamps after the span was opened."""
        if start is not None:
            self.span.start_sim = start
        if end is not None:
            self.span.end_sim = end

    def __enter__(self) -> "_SpanContext":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._tracer.end_span(self.span, error=exc_type is not None)
        return False


class _NullSpan:
    """Shared no-op stand-in returned by :func:`span` when tracing is off."""

    __slots__ = ()

    span = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def set_sim(self, *, start: Optional[float] = None, end: Optional[float] = None) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Central collector for spans recorded by many threads.

    Each thread owns a private buffer (no lock on the record path); the
    collector lock only guards the drained span list, the cross-thread
    bindings, and the thread-state registry.  ``max_spans`` bounds memory:
    past it, new spans are counted in :attr:`dropped` instead of stored
    (the flight recorder keeps its own bounded ring regardless).
    """

    def __init__(self, *, max_spans: int = 1_000_000) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = int(max_spans)
        self.dropped = 0
        self._lock = make_lock(COLLECTOR_LOCK_ROLE)
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        self._bindings: Dict[Any, int] = {}
        self._states: List[_ThreadState] = []
        self._local = threading.local()
        #: Called with every finished span (the flight recorder's feed).
        self._sinks: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def new_id(self) -> int:
        """Allocate a span id without opening a span (for spans recorded
        at end time whose id must be a parent before then)."""
        return next(self._ids)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def start_span(
        self,
        name: str,
        *,
        parent_id: Optional[int] = None,
        sim_time: Optional[float] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span on the calling thread; pair with :meth:`end_span`.

        Direct callers outside :mod:`repro.obs` must wrap the pair in
        ``try/finally`` (lint rule RPR007); prefer ``with self.span(...)``.
        ``parent_id=None`` auto-parents to the thread's innermost open span.
        """
        state = self._state()
        if parent_id is None and state.stack:
            parent_id = state.stack[-1]
        thread = threading.current_thread()
        span_obj = Span(
            span_id=self.new_id() if span_id is None else span_id,
            parent_id=parent_id,
            name=name,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start_wall=time.monotonic(),
            start_sim=sim_time,
            end_sim=sim_time,
            attrs=attrs,
        )
        state.stack.append(span_obj.span_id)
        state.started += 1
        return span_obj

    def end_span(self, span_obj: Span, *, error: bool = False) -> None:
        """Close ``span_obj`` and hand it to the collector buffer."""
        span_obj.end_wall = time.monotonic()
        if error:
            span_obj.status = "error"
        state = self._state()
        if state.stack and state.stack[-1] == span_obj.span_id:
            state.stack.pop()
        state.ended += 1
        self._record(state, span_obj)

    def span(
        self,
        name: str,
        *,
        parent_id: Optional[int] = None,
        sim_time: Optional[float] = None,
        **attrs: Any,
    ) -> _SpanContext:
        """The one way to open a span inline: ``with tracer.span(...)``."""
        opened = self.start_span(name, parent_id=parent_id, sim_time=sim_time, **attrs)
        return _SpanContext(self, opened)

    def record_complete(
        self,
        name: str,
        *,
        start_wall: float,
        end_wall: Optional[float] = None,
        span_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        start_sim: Optional[float] = None,
        end_sim: Optional[float] = None,
        status: str = "ok",
        **attrs: Any,
    ) -> Span:
        """Record an already-finished span in one shot.

        For intervals that start and end in different event-loop callbacks
        (two-phase actions, claim→done run windows): the caller captured
        the start timestamps itself and may have pre-allocated ``span_id``
        via :meth:`new_id` so children could name it as parent meanwhile.
        """
        state = self._state()
        thread = threading.current_thread()
        span_obj = Span(
            span_id=self.new_id() if span_id is None else span_id,
            parent_id=parent_id,
            name=name,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start_wall=start_wall,
            end_wall=time.monotonic() if end_wall is None else end_wall,
            start_sim=start_sim,
            end_sim=end_sim,
            status=status,
            attrs=attrs,
        )
        state.started += 1
        state.ended += 1
        self._record(state, span_obj)
        return span_obj

    def event(self, name: str, *, parent_id: Optional[int] = None,
              sim_time: Optional[float] = None, **attrs: Any) -> Span:
        """A zero-duration point event (chaos injections, rejections)."""
        now = time.monotonic()
        state = self._state()
        if parent_id is None and state.stack:
            parent_id = state.stack[-1]
        return self.record_complete(
            name,
            start_wall=now,
            end_wall=now,
            parent_id=parent_id,
            start_sim=sim_time,
            end_sim=sim_time,
            **attrs,
        )

    def _record(self, state: _ThreadState, span_obj: Span) -> None:
        state.buffer.append(span_obj)
        for sink in self._sinks:
            sink(span_obj)
        if len(state.buffer) >= _FLUSH_THRESHOLD:
            self._drain(state)

    def _drain(self, state: _ThreadState) -> None:
        # Copy-then-delete keeps concurrent appends safe without locking
        # the append path: an append racing the drain lands after the
        # copied prefix and survives the slice delete.
        drained = state.buffer[: len(state.buffer)]
        del state.buffer[: len(drained)]
        with self._lock:
            room = self.max_spans - len(self._spans)
            if room < len(drained):
                self.dropped += len(drained) - max(room, 0)
                drained = drained[: max(room, 0)]
            self._spans.extend(drained)

    # ------------------------------------------------------------------
    # Cross-thread causality
    # ------------------------------------------------------------------
    def bind(self, key: Any, span_id: int) -> None:
        """Name ``span_id`` as the causal parent for ``key`` (a ticket id),
        so a completion handled on another thread can attach to it."""
        with self._lock:
            self._bindings[key] = span_id

    def bound(self, key: Any) -> Optional[int]:
        """The span id bound to ``key``, or ``None``."""
        with self._lock:
            return self._bindings.get(key)

    def unbind(self, key: Any) -> None:
        """Drop a binding (the action completed; the key may be reused)."""
        with self._lock:
            self._bindings.pop(key, None)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def current_span_id(self) -> Optional[int]:
        """The calling thread's innermost open span id, if any."""
        state = getattr(self._local, "state", None)
        if state is None or not state.stack:
            return None
        return state.stack[-1]

    def counts(self) -> Tuple[int, int]:
        """``(started, ended)`` across every thread that ever recorded."""
        with self._lock:
            states = list(self._states)
        started = sum(state.started for state in states)
        ended = sum(state.ended for state in states)
        return started, ended

    def open_spans(self) -> int:
        """Spans started but not yet ended, across all threads."""
        started, ended = self.counts()
        return started - ended

    def drain(self) -> List[Span]:
        """Flush every thread buffer and return all collected spans.

        Call after the traced workload has quiesced (worker threads
        closed); a thread still recording keeps its racing span for the
        next drain rather than losing it.
        """
        with self._lock:
            states = list(self._states)
        for state in states:
            self._drain(state)
        with self._lock:
            return list(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.drain())


# ---------------------------------------------------------------------------
# Module-level activation (the zero-cost-when-off switch)
# ---------------------------------------------------------------------------

_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` (tracing off)."""
    return _active


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-wide tracer."""
    global _active
    if tracer is None:
        tracer = Tracer()
    _active = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    """Deactivate tracing; returns the tracer that was active."""
    global _active
    tracer = _active
    _active = None
    return tracer


def span(name: str, *, parent_id: Optional[int] = None,
         sim_time: Optional[float] = None, **attrs: Any) -> Any:
    """``with obs.span(...)`` at an instrumentation site.

    The disabled fast path is one global read and a shared no-op context
    manager; the bench ``obs`` area gates its cost on the campaign
    scenario at < 2%.
    """
    tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, parent_id=parent_id, sim_time=sim_time, **attrs)


def event(name: str, *, parent_id: Optional[int] = None,
          sim_time: Optional[float] = None, **attrs: Any) -> None:
    """Record a point event when tracing is on; no-op otherwise."""
    tracer = _active
    if tracer is None:
        return
    tracer.event(name, parent_id=parent_id, sim_time=sim_time, **attrs)


def bind(key: Any, span_id: Optional[int]) -> None:
    """Bind a causal key to a span id when tracing is on; no-op otherwise."""
    tracer = _active
    if tracer is None or span_id is None:
        return
    tracer.bind(key, span_id)


def unbind(key: Any) -> None:
    """Drop a causal binding when tracing is on; no-op otherwise."""
    tracer = _active
    if tracer is None:
        return
    tracer.unbind(key)


def bound(key: Any) -> Optional[int]:
    """Look up a causal binding when tracing is on; ``None`` otherwise."""
    tracer = _active
    if tracer is None:
        return None
    return tracer.bound(key)
