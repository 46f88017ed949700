"""Event-driven workflow execution: the one engine.

:class:`ConcurrentWorkflowEngine` runs everything from a single workflow
(:meth:`~ConcurrentWorkflowEngine.run_workflow`) or a single experiment
(:meth:`ColorPickerApp.run <repro.core.app.ColorPickerApp.run>`) to the
paper's Section 4 ablation ("integrating additional OT2s in our workflow, so
that multiple plates of colors could be mixed at once"), where many workflow
runs interleave over shared devices:

* every task is a *program*: a stack of generators driven by a
  :class:`ProgramHandle` (a coroutine trampoline, as in PEP 342).  A
  workflow run is the engine's own generator on that stack, so a workflow
  submitted on its own (:meth:`~ConcurrentWorkflowEngine.submit`) is a
  program with nothing below it;
* each step is an exclusive reservation of its module, recorded on a
  :class:`~repro.sim.ResourceTimeline` (one per module) and serialised by a
  FIFO queue when several tasks want the same device;
* the shared clock is driven by an :class:`~repro.sim.EventScheduler` through
  the two-phase action lifecycle: a step is *submitted* at its start event on
  a private clock (the device validates, consults the fault injector and
  samples its stochastic duration, so records are timestamped correctly) and
  the device's :class:`~repro.hardware.base.ActionHandle` it returns is
  *completed* at a scheduled event at the sampled end time -- deck and
  labware mutations land at completion, so admission control sees plates
  where they physically are, not where an accepted command will eventually
  put them -- and that event writes the activity's one
  :class:`~repro.wei.engine.StepResult`;
* deck *locations* are guarded: a pf400 transfer whose target slot is still
  occupied by another task's plate, or a sciclops ``get_plate`` while a plate
  sits at the exchange, is parked until a later completion frees the slot
  (the physical workcell has single-plate nests, so two concurrent plates
  must take turns at the camera stage and the exchange); an OT-2's plate is
  not carried off while the OT-2 mixes, and the OT-2 does not mix while its
  plate is away (see :meth:`ConcurrentWorkflowEngine._blocked_by_location`);
* per-step retries of recoverable command failures go through
  :func:`~repro.wei.engine.attempt_submission`.

Applications participate through *programs*: generators that yield requests

``("workflow", spec, payload)``
    pushes a workflow run (one activity per step, each with
    ``MAX_STEP_RETRIES``); the generator resumes with the
    :class:`~repro.wei.engine.WorkflowRunResult` (or has the
    :class:`~repro.wei.engine.WorkflowError`, its partial result on
    ``run_result``, thrown into it on failure),
``("action", module_name, action, kwargs)``
    pushes one exclusive module action with no retries; resumes with its
    :class:`~repro.wei.engine.StepResult` (step name
    ``direct.<module>.<action>``), or has a
    :class:`~repro.wei.engine.WorkflowError` carrying the device's error
    thrown into it on failure,
``("sleep", seconds)``
    non-device time (solver/computation/publication overhead); resumes after
    the simulated delay.

A pushed generator that returns or raises is popped, and its value or error
goes to the generator below it; each activity's completion event resumes
the program that requested it.

:meth:`ColorPickerApp.program <repro.core.app.ColorPickerApp.program>` emits
exactly this protocol, which is how a whole closed-loop experiment (not just
one workflow) runs concurrently with others on a shared workcell.

Transport-backed (real-time) execution
--------------------------------------

With a :class:`~repro.wei.drivers.registry.DriverRegistry` the engine runs in
*transport mode*: phase one still submits on the simulated clock (identical
validation, fault draws and sampled durations, so the science is bit-for-bit
the same as pure simulation), but the action is also handed to the
registry's one :class:`~repro.wei.drivers.base.DeviceDriver`, and the
scheduled end event **blocks on the registry's completion bridge** --
draining the queue the driver's callback threads fill -- instead of letting
the simulated clock free-run.  Deck mutations still land on the engine
thread at the completion event; only the *pace* is set by the transport (e.g. a
:class:`~repro.wei.drivers.protocol.WireProtocolTransport` whose device
sleeps each duration / speedup).  A silent transport fails the run with
:class:`~repro.wei.drivers.base.CompletionTimeout` once a completion is
``completion_timeout_s`` real seconds past the time its action was due,
rather than hanging the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Deque, Dict, Generator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.hardware.base import ActionHandle
from repro.obs import tracer as obs_tracer
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.resources import ResourceTimeline
from repro.wei.drivers.base import TransportTicket
from repro.wei.drivers.registry import DriverRegistry
from repro.wei.engine import StepResult, WorkflowError, WorkflowRunResult, attempt_submission
from repro.wei.module import Module
from repro.wei.runlog import RunLogger
from repro.wei.workcell import Workcell
from repro.wei.workflow import WorkflowSpec, resolve_payload_references

__all__ = [
    "ConcurrencyError",
    "ProgramHandle",
    "ConcurrentWorkflowEngine",
    "TransportRetryStats",
    "RunSpanHooks",
    "claim_jobs",
    "MAX_STEP_RETRIES",
]

#: Retries of a recoverable command failure per workflow step (a program's
#: single ``"action"`` request gets none).  Read at each step, so tests can
#: ``monkeypatch`` it.
MAX_STEP_RETRIES = 2


@dataclass(frozen=True)
class TransportRetryStats:
    """Wire-level recovery counters of one engine's transport.

    A typed snapshot, taken under the transport's own lock via its
    ``stats()`` view; :meth:`to_dict` gives the JSON form.
    """

    retries: int = 0
    resyncs: int = 0
    crc_errors: int = 0
    duplicates_dropped: int = 0
    completions_retransmitted: int = 0
    rejs_sent: int = 0
    polls_sent: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-serialisable form."""
        return asdict(self)


def claim_jobs(
    queue: Deque[tuple],
    results: List[Any],
    run_job: Callable[[Any], Generator],
    on_claim: Optional[Callable[[int, Any], None]] = None,
    *,
    should_stop: Optional[Callable[[], bool]] = None,
    on_done: Optional[Callable[[int, Any, Any], None]] = None,
    select: Optional[Callable[[Deque[tuple]], Any]] = None,
) -> Generator:
    """One lane's dispatcher program: drain ``queue``, one claimed job at a time.

    ``queue`` holds ``(index, job)`` pairs shared (work stealing) or private
    (static pinning) to this lane; each claim is announced via ``on_claim``,
    executed by delegating to ``run_job(job)``'s program, and its return
    value stored at ``results[index]``.  ``on_done(index, job, result)``
    fires the moment a claimed job's program returns -- this is the hook the
    coordinator uses to stream run records as shards complete them -- and
    ``should_stop()`` is consulted before every claim, so a lane told to
    drain finishes its in-flight job (the claim already made) but takes
    nothing new.

    ``select(queue)``, when given, replaces the FIFO pop as the claim rule:
    it must either *remove and return* one ``(index, job)`` pair from the
    queue (any position), or return a positive number of simulated seconds
    meaning "defer" -- the dispatcher sleeps that long on the engine clock
    and re-evaluates (``should_stop`` and queue emptiness are re-checked
    first, so a deferring lane still drains and still terminates when other
    lanes empty the queue).  This is the hook behind the coordinator's
    ``assignment="lookahead"`` re-ranking policy.

    The :class:`~repro.wei.coordinator.MultiWorkcellCoordinator` builds
    every lane from this one dispatcher.  Returns the number of jobs this
    lane ran.
    """
    claimed = 0
    while queue:
        if should_stop is not None and should_stop():
            break
        if select is not None:
            choice = select(queue)
            if isinstance(choice, (int, float)):
                yield ("sleep", max(float(choice), 0.0))
                continue
            index, job = choice
        else:
            index, job = queue.popleft()
        if on_claim is not None:
            on_claim(index, job)
        results[index] = yield from run_job(job)
        claimed += 1
        if on_done is not None:
            on_done(index, job, results[index])
    return claimed


class RunSpanHooks:
    """Per-claimed-job ``"run"`` spans for a lane dispatcher program.

    ``claimed``/``done`` slot straight into :func:`claim_jobs`'s
    ``on_claim``/``on_done`` hooks.  A claim allocates the run span's id up
    front (:meth:`Tracer.new_id`) and names it as the owning program's
    current span on the engine, so every activity the job requests parents
    to it; ``done`` records the finished span
    (:meth:`Tracer.record_complete`), parented to the bound ``"campaign"``
    span when one is active.  All of it is a no-op while tracing is off.
    """

    def __init__(self, engine: "ConcurrentWorkflowEngine", program_name: str) -> None:
        self.engine = engine
        self.program_name = program_name
        self._open: Dict[int, Tuple[int, float, float]] = {}

    def claimed(self, index: int, job: Any) -> None:
        tracer = obs_tracer.active()
        if tracer is None:
            return
        span_id = tracer.new_id()
        self._open[index] = (span_id, time.monotonic(), self.engine.clock.now())
        self.engine.bind_program_span(self.program_name, span_id)

    def done(self, index: int, job: Any, result: Any) -> None:
        tracer = obs_tracer.active()
        entry = self._open.pop(index, None)
        if entry is None:
            return
        self.engine.unbind_program_span(self.program_name)
        if tracer is None:
            return
        span_id, start_wall, start_sim = entry
        tracer.record_complete(
            "run",
            span_id=span_id,
            parent_id=obs_tracer.bound("campaign"),
            start_wall=start_wall,
            start_sim=start_sim,
            end_sim=self.engine.clock.now(),
            job_index=index,
            program=self.program_name,
        )


class ConcurrencyError(RuntimeError):
    """Raised when concurrent execution can no longer make progress."""


@dataclass(slots=True)
class _Activity:
    """One pending exclusive use of a module by some task."""

    module: Module
    action: str
    args: Dict[str, Any]
    max_retries: int
    #: The ``step_name`` of the activity's :class:`StepResult`.
    step_name: str
    label: str = ""
    #: The program that requested the activity; its completion event resumes
    #: that program with the activity's :class:`StepResult`.
    owner: Optional["ProgramHandle"] = None
    #: Deck locations the activity fills at completion, the OT-2 deck a
    #: transfer carries its plate off, and the OT-2 deck ``run_protocol``
    #: mixes on; set once when it is requested (:meth:`_locate`).
    fills: Tuple[str, ...] = ()
    vacates: Optional[str] = None
    mixes: Optional[str] = None
    #: Tracing state for the two-phase ``"action"`` span: the id is
    #: pre-allocated at the start event (so submit/deliver children can
    #: parent to it) and the span is recorded whole at the completion event.
    span_id: Optional[int] = None
    parent_span_id: Optional[int] = None
    span_start_wall: float = 0.0
    span_start_sim: float = 0.0


@dataclass
class ProgramHandle:
    """Handle for one program driven by the concurrent engine.

    A workflow submitted on its own (:meth:`ConcurrentWorkflowEngine.submit`)
    is a program too: its ``result`` is the
    :class:`~repro.wei.engine.WorkflowRunResult`, and a failed run's partial
    result is on ``error.run_result``.
    """

    name: str
    result: Any = None
    error: Optional[BaseException] = None
    done: bool = False
    #: The generators being driven: the program at the bottom, above it the
    #: workflow or action it is waiting on.
    stack: List[Generator] = field(default_factory=list, repr=False)

    @property
    def success(self) -> bool:
        """True once the program ran to completion without an error."""
        return self.done and self.error is None


class ConcurrentWorkflowEngine:
    """Interleaves many workflow runs / programs over one shared workcell.

    The engine is deterministic: given the same workcell seed and the same
    submission order, event ordering (and therefore every sampled duration
    and fault draw) is reproducible.
    """

    def __init__(
        self,
        workcell: Workcell,
        *,
        run_logger: Optional[RunLogger] = None,
        drivers: Optional[DriverRegistry] = None,
        completion_timeout_s: float = 60.0,
    ):
        if completion_timeout_s <= 0:
            raise ValueError(f"completion_timeout_s must be > 0, got {completion_timeout_s}")
        if not hasattr(workcell.clock, "advance_to"):
            raise TypeError(
                "ConcurrentWorkflowEngine needs a clock with advance_to() "
                f"(got {type(workcell.clock).__name__})"
            )
        self.workcell = workcell
        #: The transport every action rides; ``None`` completes every
        #: action in pure simulation.
        self.drivers = drivers
        #: Grace period (real seconds) a transport completion may take past
        #: the time its paced action was due.
        self.completion_timeout_s = completion_timeout_s
        #: Thread driving the event loop, recorded at each completion event
        #: so transport audits can prove completions were posted elsewhere.
        self.engine_thread_id: Optional[int] = None
        self.run_logger = run_logger if run_logger is not None else RunLogger()
        self.scheduler = EventScheduler(clock=workcell.clock)
        #: Busy intervals per module, for utilisation analysis and benchmarks.
        self.timelines: Dict[str, ResourceTimeline] = {}
        self._queues: Dict[str, Deque[_Activity]] = {}
        self._busy: Dict[str, bool] = {}
        self._parked: Deque[_Activity] = deque()
        #: Deck locations that in-flight actions will fill at completion.
        #: With completion-time mutations the deck alone cannot show them,
        #: so admission control counts these reservations as occupancy.
        self._incoming: Dict[str, int] = {}
        #: OT-2 deck locations, those in-flight transfers will empty at
        #: completion, and those whose OT-2 is running ``run_protocol``.
        self._ot2_decks: Set[str] = set()
        self._outgoing: Dict[str, int] = {}
        self._mixing: Set[str] = set()
        self._programs: List[ProgramHandle] = []
        #: Program name -> current "run" span id (see :class:`RunSpanHooks`);
        #: activities requested by that program parent to it while tracing.
        self._program_spans: Dict[str, int] = {}
        self._origin = workcell.clock.now()
        # Register every module up front so utilisation() reports 0.0 for
        # idle modules (and for an engine that never ran a step) instead of
        # omitting them.
        for module in workcell.modules.values():
            self._module_state(module)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The shared clock the engine drives."""
        return self.workcell.clock

    @property
    def makespan(self) -> float:
        """Simulated time elapsed since the engine was created."""
        return self.clock.now() - self._origin

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction of each module over the makespan so far.

        Defined (as 0.0 per module) even for an engine that never ran a
        step: a zero makespan must not divide, and every workcell module is
        present whether or not it was ever reserved.
        """
        horizon = self.makespan
        if horizon <= 0:
            return {name: 0.0 for name in self.timelines}
        return {name: timeline.busy_time / horizon for name, timeline in self.timelines.items()}

    def overall_utilisation(self) -> float:
        """Mean busy fraction across all modules (0.0 when nothing ever ran)."""
        per_module = self.utilisation()
        if not per_module:
            return 0.0
        return sum(per_module.values()) / len(per_module)

    @property
    def transport_name(self) -> str:
        """Display name of the execution mode: ``"sim"`` or the transport's name."""
        if self.drivers is None:
            return "sim"
        return self.drivers.transport.name

    def transport_idle(self) -> bool:
        """True when no transport completion is still owed to this engine.

        Always True in pure simulation; drain/retirement logic uses this so
        a workcell never retires while its hardware still has an action in
        flight.
        """
        if self.drivers is None:
            return True
        return self.drivers.bridge.outstanding() == 0

    def transport_stats(self):
        """The completion bridge's counters (``None`` in pure simulation)."""
        if self.drivers is None:
            return None
        return self.drivers.bridge.stats()

    def transport_retry_stats(self) -> TransportRetryStats:
        """Wire-level recovery counters of this engine's transport.

        Read by field name from the transport's ``stats()`` snapshot (taken
        atomically under the transport's own lock); pure simulation reads
        zeros.  The fields are always present, so fleet views can show the
        columns unconditionally: ``retries`` (command retransmissions),
        ``resyncs`` (reconnect handshakes), ``crc_errors`` (frames discarded
        as corrupt), ``duplicates_dropped`` (repeat completions deduplicated
        on the wire), ``completions_retransmitted`` (device-side re-sends),
        ``rejs_sent`` (damaged frames answered with REJ at either end) and
        ``polls_sent`` (polls for overdue completions).
        """
        if self.drivers is None:
            return TransportRetryStats()
        snapshot = self.drivers.transport.stats()
        return TransportRetryStats(
            **{field.name: getattr(snapshot, field.name) for field in fields(TransportRetryStats)}
        )

    def completion_latencies(self) -> List[float]:
        """Real posted->consumed latencies of delivered completions (seconds)."""
        if self.drivers is None:
            return []
        return self.drivers.bridge.delivery_latencies()

    def bind_program_span(self, name: str, span_id: int) -> None:
        """Name ``span_id`` as program ``name``'s current run span: every
        activity the program requests parents to it (see :class:`RunSpanHooks`)."""
        self._program_spans[name] = span_id

    def unbind_program_span(self, name: str) -> None:
        """Drop program ``name``'s run-span binding (the run finished)."""
        self._program_spans.pop(name, None)

    def submit(
        self, spec: WorkflowSpec, payload: Optional[Mapping[str, Any]] = None
    ) -> ProgramHandle:
        """Start a workflow as a program of its own; returns its handle.

        The first step starts immediately (at the current simulated time);
        call :meth:`run_until_complete` to drive everything to completion.
        """
        return self.submit_program(self._workflow(spec, payload), name=spec.name)

    def submit_program(self, program: Generator, *, name: str = "program") -> ProgramHandle:
        """Drive a request-yielding generator (see the module docstring)."""
        handle = ProgramHandle(name=name, stack=[program])
        self._programs.append(handle)
        self._resume(handle)
        return handle

    def run_workflow(
        self, spec: WorkflowSpec, payload: Optional[Mapping[str, Any]] = None
    ) -> WorkflowRunResult:
        """Run one workflow to completion; a failed step raises :class:`WorkflowError`."""
        return self.run_all([spec], [payload])[0]

    def run_all(
        self,
        specs: Sequence[WorkflowSpec],
        payloads: Optional[Sequence[Optional[Mapping[str, Any]]]] = None,
    ) -> List[WorkflowRunResult]:
        """Submit every spec, run to completion, return results in order."""
        if payloads is None:
            payloads = [None] * len(specs)
        if len(payloads) != len(specs):
            raise ValueError("payloads must match specs one-to-one")
        handles = [self.submit(spec, payload) for spec, payload in zip(specs, payloads)]
        self.run_until_complete()
        return [handle.result for handle in handles]

    def run_until_complete(self, *, raise_errors: bool = True) -> "ConcurrentWorkflowEngine":
        """Process events until every submitted program finishes.

        Raises :class:`ConcurrencyError` when the event queue drains while
        work is still blocked (e.g. a deck location that is never freed).
        Otherwise the engine then forgets the finished programs' handles
        (callers keep their own), so each call answers only for the
        programs submitted since the previous one: with ``raise_errors``
        (the default), the first error among those is re-raised; pass
        ``False`` to inspect handles instead.
        """
        self.engine_thread_id = threading.get_ident()
        while self.scheduler.step() is not None:
            pass
        blocked = [activity.label for activity in self._parked]
        blocked += [activity.label for queue in self._queues.values() for activity in queue]
        if blocked:
            raise ConcurrencyError(
                f"concurrent execution stalled with blocked activities: {blocked}"
            )
        unfinished = [handle.name for handle in self._programs if not handle.done]
        if unfinished:
            raise ConcurrencyError(f"tasks never completed: {unfinished}")
        finished, self._programs = self._programs, []
        if raise_errors:
            for program in finished:
                if program.error is not None:
                    raise program.error
        return self

    # ------------------------------------------------------------------
    # Programs: a stack of generators per task
    # ------------------------------------------------------------------
    def _resume(
        self,
        handle: ProgramHandle,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Send ``value`` (or throw ``error``) into the top of ``handle``'s
        stack and serve requests until one waits on the clock.

        A ``"workflow"`` or ``"action"`` request pushes the generator that
        carries it out; a generator that returns or raises is popped and its
        value or error goes to the generator below it.  An :class:`_Activity`
        is queued on its module, and its completion event resumes the
        program; a ``"sleep"`` schedules the resumption.
        """
        stack = handle.stack
        while stack:
            try:
                if error is not None:
                    request = stack[-1].throw(error)
                else:
                    request = stack[-1].send(value)
            except StopIteration as stop:
                stack.pop()
                value, error = stop.value, None
                continue
            except BaseException as exc:
                stack.pop()
                value, error = None, exc
                continue
            value = error = None
            if isinstance(request, _Activity):
                request.owner = handle
                self._request(request)
                return
            kind = request[0] if isinstance(request, tuple) and request else None
            if kind == "workflow":
                payload = request[2] if len(request) > 2 else None
                stack.append(self._workflow(request[1], payload, owner=handle.name))
            elif kind == "action":
                if len(request) != 4:
                    error = ValueError(
                        f"'action' request must be (kind, module, action, kwargs), got {request!r}"
                    )
                else:
                    stack.append(self._action(handle.name, *request[1:]))
            elif kind == "sleep":
                self.scheduler.schedule_after(
                    float(request[1]), lambda: self._resume(handle), label=f"{handle.name}:sleep"
                )
                return
            else:
                error = ValueError(f"unknown program request {request!r}")
        handle.done = True
        handle.result = value
        handle.error = error

    def _workflow(
        self, spec: WorkflowSpec, payload: Optional[Mapping[str, Any]], owner: Optional[str] = None
    ) -> Generator:
        """One workflow run: an :class:`_Activity` per step, with retries.

        Returns the :class:`WorkflowRunResult`; the first failed step ends
        the run with a :class:`WorkflowError` whose ``run_result`` holds the
        steps so far.  The run is logged and, while tracing, recorded as a
        ``"workflow"`` span parented to program ``owner``'s run span.
        """
        payload = dict(payload or {})
        now = self.clock.now()
        result = WorkflowRunResult(
            workflow_name=spec.name, start_time=now, end_time=now, payload_keys=sorted(payload)
        )
        # The "workflow" span is recorded whole when the run ends; its id is
        # allocated now so step activities can parent to it.
        tracer = obs_tracer.active()
        span_id = tracer.new_id() if tracer is not None else None
        span_start_wall = time.monotonic() if tracer is not None else 0.0
        error: Optional[WorkflowError] = None
        for index, step in enumerate(spec.steps):
            module = self.workcell.module(step.module)
            try:
                args = resolve_payload_references(step.args, payload)
            except KeyError as exc:
                error = WorkflowError(f"workflow {spec.name!r} step {index}: {exc}", step=step)
                break
            step_result = yield _Activity(
                module=module,
                action=step.action,
                args=args,
                max_retries=MAX_STEP_RETRIES,
                step_name=f"{spec.name}.{index}",
                label=f"{spec.name}.{index}:{step.module}.{step.action}",
                parent_span_id=span_id,
            )
            result.steps.append(step_result)
            if not step_result.success:
                error = WorkflowError(
                    f"workflow {spec.name!r} failed at step {index} "
                    f"({step.module}.{step.action}): {step_result.error}",
                    step=step,
                )
                break
        result.end_time = self.clock.now()
        tracer = obs_tracer.active()
        if tracer is not None and span_id is not None:
            tracer.record_complete(
                "workflow",
                span_id=span_id,
                parent_id=self._program_spans.get(owner) if owner else None,
                start_wall=span_start_wall,
                start_sim=now,
                end_sim=result.end_time,
                status="ok" if error is None else "error",
                workflow=spec.name,
            )
        if error is not None:
            result.success = False
            error.run_result = result
        self.run_logger.record_run(result)
        if error is not None:
            raise error
        return result

    def _action(
        self, program: str, module_name: str, action: str, kwargs: Optional[Mapping[str, Any]]
    ) -> Generator:
        """A program's one direct module action: no retries; returns its
        :class:`StepResult`, or raises :class:`WorkflowError` on failure."""
        result = yield _Activity(
            module=self.workcell.module(module_name),
            action=action,
            args=dict(kwargs or {}),
            max_retries=0,
            step_name=f"direct.{module_name}.{action}",
            label=f"{program}:{module_name}.{action}",
            parent_span_id=self._program_spans.get(program),
        )
        if not result.success:
            raise WorkflowError(f"action {module_name}.{action} failed: {result.error}")
        return result

    # ------------------------------------------------------------------
    # Module scheduling: queues, guards, invocation
    # ------------------------------------------------------------------
    def _module_state(self, module: Module) -> None:
        name = module.name
        if name not in self._queues:
            self._queues[name] = deque()
            self._busy[name] = False
            self.timelines[name] = ResourceTimeline(name)
            if module.module_type == "ot2":
                deck_location = getattr(module.device, "deck_location", None)
                if deck_location is not None:
                    self._ot2_decks.add(deck_location)

    def _request(self, activity: _Activity) -> None:
        self._module_state(activity.module)
        self._locate(activity)
        self._queues[activity.module.name].append(activity)
        self._dispatch(activity.module.name)

    def _dispatch(self, name: str) -> None:
        if self._busy[name]:
            return
        queue = self._queues[name]
        while queue:
            activity = queue.popleft()
            if self._blocked_by_location(activity):
                self._parked.append(activity)
                continue
            self._start(activity)
            return

    def _locate(self, activity: _Activity) -> None:
        """Set the deck locations ``activity`` fills, vacates and mixes on."""
        module = activity.module
        kind = module.module_type
        if kind == "pf400" and activity.action == "transfer":
            deck = self.workcell.deck
            target = activity.args.get("target")
            if isinstance(target, str) and deck.has_location(target) and target != deck.trash_location:
                activity.fills = (target,)
            source = activity.args.get("source")
            if isinstance(source, str) and source in self._ot2_decks:
                activity.vacates = source
        elif kind == "sciclops" and activity.action == "get_plate":
            exchange = getattr(module.device, "exchange_location", None)
            if exchange is not None:
                activity.fills = (exchange,)
        elif kind == "ot2" and activity.action == "run_protocol":
            activity.mixes = getattr(module.device, "deck_location", None)

    def _blocked_by_location(self, activity: _Activity) -> bool:
        """Physical admission control for single-plate deck locations.

        A transfer cannot start while another task's plate occupies the
        target nest -- or is on its way there from an in-flight action -- and
        the sciclops cannot stage a plate onto an occupied (or promised)
        exchange; the locations an activity fills are the ones the in-flight
        reservation counter counts, so admission and reservation can never
        diverge.  An OT-2's plate stays put while that OT-2 runs
        ``run_protocol`` (a transfer out of its deck waits), and
        ``run_protocol`` waits for a plate on its deck that no in-flight
        transfer is carrying off.  Blocked activities are parked (without
        holding their module) and re-admitted when a completion frees them.
        """
        deck = self.workcell.deck
        for location in activity.fills:
            if deck.is_occupied(location) or self._incoming.get(location, 0) > 0:
                return True
        if activity.vacates in self._mixing:
            return True
        location = activity.mixes
        return location is not None and (
            not deck.is_occupied(location) or self._outgoing.get(location, 0) > 0
        )

    def _start(self, activity: _Activity) -> None:
        """Phase one: submit the action at its start event.

        The device runs on a private clock seeded at the current time so its
        duration sampling and record timestamps are correct while the shared
        clock stays put.  Only the *submission* happens here -- validation,
        fault draws and retries -- and the deck/labware mutations stay
        pending until the completion event fires at the sampled end time.

        In transport mode the action is also dispatched to the transport,
        which will post its completion out-of-band; the scheduled
        end event then waits for that ticket before applying the mutations.
        The simulated timestamps (and therefore every downstream sample and
        score) are identical either way -- the transport only decides how
        much *real* time passes before the completion is consumed.
        """
        name = activity.module.name
        self._busy[name] = True
        if activity.mixes is not None:
            self._mixing.add(activity.mixes)
        start = self.clock.now()
        tracer = obs_tracer.active()
        if tracer is not None:
            # The two-phase "action" span: its id exists from here so the
            # submit phase, the driver threads (via the ticket binding) and
            # the bridge delivery can all parent to it; the span itself is
            # recorded whole at the completion event (_record_action_span).
            activity.span_id = tracer.new_id()
            activity.span_start_wall = time.monotonic()
            activity.span_start_sim = start
        device = activity.module.device
        local = SimClock(start=start)
        saved_clock = device.clock
        with obs_tracer.span(
            "action.submit",
            parent_id=activity.span_id,
            sim_time=start,
            module=name,
            action=activity.action,
        ) as submit_span:
            device.clock = local
            try:
                action_handle, retries, last_error = attempt_submission(
                    activity.module, activity.action, activity.args, activity.max_retries
                )
            finally:
                device.clock = saved_clock
            end = local.now()
            self.timelines[name].reserve(start, end - start)
            if action_handle is not None:
                for location in activity.fills:
                    self._incoming[location] = self._incoming.get(location, 0) + 1
                if activity.vacates is not None:
                    self._outgoing[activity.vacates] = self._outgoing.get(activity.vacates, 0) + 1
            ticket: Optional[TransportTicket] = None
            if self.drivers is not None:
                # Failed submissions are dispatched too: the device spent real
                # time rejecting the command, and the transport reports that
                # outcome just like a success.
                ticket = self.drivers.transport.submit(
                    activity.action,
                    module=name,
                    duration_s=end - start,
                    sim_start=start,
                    sim_end=end,
                )
                self.drivers.bridge.register(ticket)
                obs_tracer.bind(ticket.ticket_id, activity.span_id)
                submit_span.set(ticket_id=ticket.ticket_id)
            submit_span.set_sim(end=end)
        self.scheduler.schedule_at(
            end,
            lambda: self._complete(activity, action_handle, retries, last_error, start, end, ticket),
            label=activity.label,
        )

    def _complete(
        self,
        activity: _Activity,
        action_handle: Optional[ActionHandle],
        retries: int,
        last_error: Optional[str],
        start: float,
        end: float,
        ticket: Optional[TransportTicket] = None,
    ) -> None:
        """Phase two: the action's end event.

        In transport mode this first **blocks on the completion bridge**
        until the driver's callback thread has posted the ticket's
        completion (raising
        :class:`~repro.wei.drivers.base.CompletionTimeout` if the transport
        goes silent).  State mutations are applied *now*, on the engine
        thread -- before parked activities are re-examined, so a slot freed
        by this completion admits its waiters -- and only then does the
        owning program resume with the activity's :class:`StepResult`.
        """
        self.engine_thread_id = threading.get_ident()
        reserved = action_handle is not None
        if ticket is not None:
            try:
                completion = self.drivers.bridge.wait_for(ticket, self.completion_timeout_s)
            except Exception:
                self._record_action_span(activity, ticket, end, status="error")
                raise
            if completion.error is not None and action_handle is not None:
                # The transport reported a delivery failure the simulated
                # device did not: surface it like any unrecoverable command
                # failure instead of mutating state on bad information.
                action_handle = None
                last_error = f"transport error: {completion.error}"
        name = activity.module.name
        self._busy[name] = False
        self._mixing.discard(activity.mixes)
        if reserved:
            # Release the reservations just before the mutation lands: from
            # here the deck itself shows the occupancy.
            for location in activity.fills:
                self._incoming[location] -= 1
            if activity.vacates is not None:
                self._outgoing[activity.vacates] -= 1
        succeeded = action_handle is not None
        result = StepResult(
            step_name=activity.step_name,
            module=name,
            action=activity.action,
            start_time=start,
            end_time=end,
            success=succeeded,
            retries=retries,
            return_value=action_handle.complete() if succeeded else None,
            error=None if succeeded else last_error,
            robotic_commands=int(succeeded and action_handle.record.robotic),
        )
        self._record_action_span(activity, ticket, end, status="ok" if succeeded else "error")
        # Only this module and the ones _unpark queued for can be idle with
        # work waiting (the resumed program dispatches what it requests), so
        # they are the ones to dispatch, in name order as always.
        ready = self._unpark()
        ready.add(name)
        self._resume(activity.owner, value=result)
        for ready_name in sorted(ready):
            self._dispatch(ready_name)

    def _record_action_span(
        self,
        activity: _Activity,
        ticket: Optional[TransportTicket],
        end_sim: float,
        *,
        status: str,
    ) -> None:
        """Close the two-phase "action" span allocated in :meth:`_start`."""
        if activity.span_id is None:
            return
        if ticket is not None:
            obs_tracer.unbind(ticket.ticket_id)
        tracer = obs_tracer.active()
        if tracer is None:
            return
        tracer.record_complete(
            "action",
            span_id=activity.span_id,
            parent_id=activity.parent_span_id,
            start_wall=activity.span_start_wall,
            start_sim=activity.span_start_sim,
            end_sim=end_sim,
            status=status,
            module=activity.module.name,
            action=activity.action,
            label=activity.label,
        )
        activity.span_id = None

    def _unpark(self) -> Set[str]:
        """Queue every parked activity that may start now, in parking order.

        Returns the names of the modules whose queues grew.
        """
        ready: Set[str] = set()
        if not self._parked:
            return ready
        still_blocked: Deque[_Activity] = deque()
        for activity in self._parked:
            if self._blocked_by_location(activity):
                still_blocked.append(activity)
            else:
                self._queues[activity.module.name].append(activity)
                ready.add(activity.module.name)
        self._parked = still_blocked
        return ready
