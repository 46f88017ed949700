"""Elastic multi-workcell campaign coordination.

One :class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` interleaves many
programs over *one* shared workcell; production scale needs campaigns that
span several physically independent workcells and keep running while robots
join and leave the fleet.  :class:`MultiWorkcellCoordinator` drives ``k``
engines -- each with its own deck, devices, clock and RNG streams -- as one
fleet:

* **least-finish-time / work-stealing assignment**: every lane of every
  workcell is a dispatcher that pulls the next pending job from one shared
  queue the moment it frees.  The coordinator merges the engines' event
  queues, always stepping the engine whose next event is earliest in
  simulated time, so a lane that frees at t=500s on workcell B claims the
  next job before a lane freeing at t=700s on workcell A -- the dynamic
  replacement for pinning job ``i`` to shard ``i % k``;
* **fleet elasticity**: :meth:`~MultiWorkcellCoordinator.attach_workcell`
  and :meth:`~MultiWorkcellCoordinator.drain_workcell` are safe mid-campaign.
  An attached shard joins the merged event loop and starts pulling from the
  shared queue immediately; a draining shard finishes its in-flight runs
  (two-phase completions included), stops claiming new jobs and reports its
  retirement in the merged log;
* **streaming observability**: run completions are pushed to registered
  listeners (:meth:`~MultiWorkcellCoordinator.add_run_listener`) *as each
  shard finishes a run* -- this is how campaign records stream into a
  :class:`~repro.publish.portal.DataPortal` live instead of being merged
  post-hoc -- and :meth:`~MultiWorkcellCoordinator.status` snapshots the
  whole fleet (per-shard queue depth, in-flight runs, utilisation,
  active/draining/drained state) at any moment;
* **determinism**: engines only interact through the shared job queue, whose
  pops are ordered by the merged event loop; given the same seeds, job list
  and attach/drain schedule, the assignment and every sampled duration are
  reproducible.

Thread and event-loop safety
----------------------------

The coordinator is **single-threaded**: it owns the merged event loop and
every callback (dispatcher claims, run listeners, scheduled attach/drain
hooks) runs synchronously inside that loop.  None of its methods may be
called from another thread.  The safe re-entry points *within* the loop are:

* :meth:`attach_workcell` / :meth:`drain_workcell` -- callable from run
  listeners and from events scheduled on any shard's
  :class:`~repro.sim.events.EventScheduler`.  An attach is visible to the
  merged loop on its very next iteration (the new shard's dispatchers are
  submitted, and therefore claim their first job, before the call returns);
  a drain takes effect at each lane's next claim boundary -- in-flight runs
  always finish, including two-phase action completions already scheduled.
* :meth:`status` -- a read-only snapshot, consistent at any event boundary.

Every other mutation (claim bookkeeping, completion counters, fleet-event
entries) becomes visible to callers exactly when the event that produced it
has been processed by the merged loop.

Each engine still runs the two-phase action lifecycle internally, so deck
mutations land at action completion on every shard.
"""

from __future__ import annotations

import inspect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.sim.durations import ModuleSpeedProfile, paper_calibrated_durations
from repro.wei.concurrent import (
    ConcurrencyError,
    ConcurrentWorkflowEngine,
    ProgramHandle,
    RunSpanHooks,
    claim_jobs,
)
from repro.wei.workcell import Workcell, build_color_picker_workcell

__all__ = [
    "SHARD_SEED_STRIDE",
    "shard_seed",
    "ShardAssignment",
    "RunCompletion",
    "ShardStatus",
    "FleetStatus",
    "MultiWorkcellCoordinator",
]

#: Stride between consecutive shards' root seeds: large and prime so derived
#: per-device child seeds never collide between shards.  Every place that
#: builds a fleet shard (fleet builder, campaign layer, CLI attach) derives
#: its seed through :func:`shard_seed`, so the fleet stays reproducible no
#: matter which entry point constructed it.
SHARD_SEED_STRIDE = 100_003


def shard_seed(seed: Optional[int], shard: int) -> Optional[int]:
    """Deterministic root seed for fleet shard ``shard`` (``None`` stays unseeded)."""
    return None if seed is None else seed + SHARD_SEED_STRIDE * shard

#: Assignment policies understood by :meth:`MultiWorkcellCoordinator.run_jobs`:
#: ``"work-stealing"`` pulls jobs in submission order, ``"stealing-lpt"``
#: pulls them longest-predicted-duration-first (classic LPT list scheduling,
#: needs a ``duration_hint``; lane-aware when the hint takes the lane's
#: duration table), ``"lookahead"`` re-ranks the remaining queue each time a
#: lane frees by predicted-finish-on-that-lane, drift-corrected online (also
#: needs a ``duration_hint``), ``"static"`` pins job ``i`` to lane ``i % L``.
#: See ``docs/scheduling.md`` for the full matrix.
ASSIGNMENT_POLICIES = ("work-stealing", "stealing-lpt", "lookahead", "static")

#: EWMA smoothing for the lookahead policy's observed-vs-predicted drift
#: ratio, and the minimum simulated seconds a deferring lane sleeps before
#: re-evaluating the queue (strictly positive so deferral always advances
#: simulated time -- the livelock guard).
LOOKAHEAD_DRIFT_ALPHA = 0.3
LOOKAHEAD_MIN_DEFER_S = 1.0

#: Claim slack for lookahead's lane comparison: a lane claims a job unless
#: another live lane would finish it strictly sooner by more than this
#: (floating-point guard so equal-speed lanes do not mutually defer).
_LOOKAHEAD_EPS = 1e-9

#: Lifecycle states a shard moves through: ``active`` (claiming jobs),
#: ``draining`` (finishing in-flight runs, claiming nothing new) and
#: ``drained`` (retired from the fleet; kept in the shard list so shard ids
#: stay stable).
SHARD_STATES = ("active", "draining", "drained")


@dataclass(frozen=True)
class ShardAssignment:
    """Where one job of a coordinated campaign executed."""

    job_index: int
    shard: int
    workcell: str
    lane: Any


@dataclass(frozen=True)
class RunCompletion:
    """One finished job, delivered to run listeners as the shard completes it.

    ``time`` is the completing shard's simulated clock at the moment the
    job's program returned.  Listeners fire synchronously inside the merged
    event loop, in registration order, *before* the completing lane claims
    its next job -- so a listener that streams the run into a portal makes
    the record visible to every later listener of the same completion.
    """

    job_index: int
    job: Any
    result: Any
    assignment: ShardAssignment
    time: float


@dataclass(frozen=True)
class ShardStatus:
    """One shard's slice of a :class:`FleetStatus` snapshot."""

    shard_id: int
    workcell: str
    state: str
    #: Jobs this shard could still claim: the shared queue's depth for an
    #: active work-stealing shard, 0 once draining/drained (such a shard
    #: claims nothing new) and the sum of its private lane queues when
    #: statically pinned.
    queue_depth: int
    #: Jobs claimed but not yet completed on this shard.
    in_flight: int
    claimed: int
    completed: int
    utilisation: float
    makespan: float
    #: Execution mode of the shard's engine: ``"sim"`` or its driver names
    #: (a fleet may mix simulated and transport-backed workcells).
    transport: str = "sim"
    #: Wire-level command retransmissions this shard's transports performed
    #: (0 for sim shards, which have no wire to lose frames on).
    retries: int = 0
    #: Reconnect-with-resync cycles this shard's transports survived.
    resyncs: int = 0
    #: Completion-delivery latency percentiles (real posted->consumed
    #: seconds) from the shard bridge's registry histogram; ``None`` for
    #: pure-simulation shards or before the first delivery.
    delivery_p50_s: Optional[float] = None
    delivery_p95_s: Optional[float] = None
    #: Queue-wait percentiles and windowed mean (real seconds between a job
    #: entering the campaign queue and this shard claiming it) from the
    #: shard's registry histogram; ``None`` before the shard's first claim.
    #: Mean and percentiles are all computed over the histogram's bounded
    #: recent window, so the fleet-status latency columns share one time
    #: window.
    queue_wait_p50_s: Optional[float] = None
    queue_wait_p95_s: Optional[float] = None
    queue_wait_mean_s: Optional[float] = None
    #: Observed-vs-predicted duration drift this shard has accumulated (EWMA
    #: of observed/predicted per completed run, 1.0 = predictions spot-on,
    #: >1 = runs take longer than predicted).  ``None`` until the shard
    #: completes its first hinted run; fed back into ``"lookahead"``
    #: re-ranking.
    predictor_drift: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "shard_id": self.shard_id,
            "workcell": self.workcell,
            "state": self.state,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "claimed": self.claimed,
            "completed": self.completed,
            "utilisation": self.utilisation,
            "makespan": self.makespan,
            "transport": self.transport,
            "retries": self.retries,
            "resyncs": self.resyncs,
            "delivery_p50_s": self.delivery_p50_s,
            "delivery_p95_s": self.delivery_p95_s,
            "queue_wait_p50_s": self.queue_wait_p50_s,
            "queue_wait_p95_s": self.queue_wait_p95_s,
            "queue_wait_mean_s": self.queue_wait_mean_s,
            "predictor_drift": self.predictor_drift,
        }


@dataclass(frozen=True)
class FleetStatus:
    """A consistent point-in-time snapshot of the whole fleet.

    Produced by :meth:`MultiWorkcellCoordinator.status`; safe to capture from
    a run listener mid-campaign (the snapshot is taken at an event boundary,
    so counters and states are mutually consistent).
    """

    #: Merged-loop frontier: the simulated time of the last event any shard
    #: processed (0.0 before the first event).
    time: float
    #: Jobs still waiting in the shared work-stealing queue (0 outside a
    #: campaign or under static assignment, where queues are per-lane).
    queue_depth: int
    shards: Tuple[ShardStatus, ...]

    @property
    def n_active(self) -> int:
        """Number of shards still claiming jobs."""
        return sum(1 for shard in self.shards if shard.state == "active")

    @property
    def n_draining(self) -> int:
        """Number of shards finishing in-flight runs without claiming."""
        return sum(1 for shard in self.shards if shard.state == "draining")

    @property
    def n_drained(self) -> int:
        """Number of retired shards."""
        return sum(1 for shard in self.shards if shard.state == "drained")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "time": self.time,
            "queue_depth": self.queue_depth,
            "n_active": self.n_active,
            "n_draining": self.n_draining,
            "n_drained": self.n_drained,
            "shards": [shard.to_dict() for shard in self.shards],
        }


@dataclass
class _Shard:
    """Mutable per-shard bookkeeping behind the public status snapshots."""

    shard_id: int
    engine: ConcurrentWorkflowEngine
    state: str = "active"
    lanes: List[Any] = field(default_factory=lambda: [None])
    claimed: int = 0
    completed: int = 0
    handles: List[ProgramHandle] = field(default_factory=list)
    queues: List[Deque[tuple]] = field(default_factory=list)
    #: Registry histogram of real seconds jobs waited in the campaign queue
    #: before this shard claimed them (the fleet-status queue-wait columns).
    queue_wait: Optional[obs_metrics.Histogram] = None
    #: EWMA of observed/predicted run-duration ratios for runs completed on
    #: this shard (``None`` until the first hinted run completes); the
    #: online correction the ``"lookahead"`` policy applies to predictions.
    drift_ewma: Optional[float] = None


@dataclass
class _CampaignContext:
    """State of the campaign currently being driven by :meth:`run_jobs`."""

    jobs: Sequence[Any]
    make_program: Callable[[Any, int, Any], Generator]
    assignment: str
    results: List[Any]
    #: The shared work-stealing queue (``None`` under static pinning).
    queue: Optional[Deque[tuple]]
    #: Real (monotonic) time each job entered its queue, for the
    #: queue-wait histograms observed at claim time.
    enqueue_wall: Dict[int, float] = field(default_factory=dict)
    #: The campaign's ``duration_hint`` and its calling convention: arity 1
    #: is the legacy ``hint(job)`` form, arity 2 passes the predicting
    #: shard's :class:`~repro.sim.durations.DurationTable` as the second
    #: argument (lane-aware prediction on heterogeneous fleets).
    duration_hint: Optional[Callable[..., float]] = None
    hint_arity: int = 1
    #: Cached raw predictions keyed ``(shard_id, job_index)`` -- each
    #: shard's table is fixed for the campaign, so one prediction per
    #: (shard, job) pair suffices however often lookahead re-ranks.
    predictions: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Lookahead lane state, keyed by ``(shard_id, lane_position)``:
    #: the simulated time each lane is predicted (or known) to free, the
    #: lane's dispatcher handle (a finished dispatcher is no competitor) and
    #: its owning shard.  Registered *before* any dispatcher is submitted,
    #: because submission runs a dispatcher inline to its first claim.
    lane_avail: Dict[Tuple[int, int], float] = field(default_factory=dict)
    lane_handles: Dict[Tuple[int, int], ProgramHandle] = field(default_factory=dict)
    lane_shards: Dict[Tuple[int, int], "_Shard"] = field(default_factory=dict)
    #: Per-claimed-job ``(raw_prediction, claim_sim_time)`` used to update
    #: the owning shard's drift EWMA at completion.
    claim_info: Dict[int, Tuple[float, float]] = field(default_factory=dict)


def _hint_arity(hint: Callable[..., float]) -> int:
    """Calling convention of a ``duration_hint``: 1 = ``hint(job)``, 2 =
    ``hint(job, durations)`` (lane-aware, e.g.
    :func:`~repro.core.campaign.predict_experiment_duration`).

    Inspected once per campaign; uninspectable callables (builtins, some
    callables implemented in C) fall back to the legacy 1-argument form.
    """
    try:
        signature = inspect.signature(hint)
    except (TypeError, ValueError):
        return 1
    positional = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
        elif parameter.kind == inspect.Parameter.VAR_POSITIONAL:
            return 2
    return 2 if positional >= 2 else 1


class MultiWorkcellCoordinator:
    """Shards jobs across an elastic fleet of independent workcell engines.

    Parameters
    ----------
    engines:
        One :class:`ConcurrentWorkflowEngine` per initial workcell shard.
        The engines must be distinct objects; their clocks are independent
        (shard simulations overlap in simulated time, as independent robots
        do in the real world).  More shards can join later via
        :meth:`attach_workcell`, including while a campaign is running.

    See the module docstring for the threading model: all methods must be
    called from the thread driving :meth:`run_jobs`, and only
    :meth:`attach_workcell`, :meth:`drain_workcell` and :meth:`status` are
    meant to be re-entered from callbacks inside the merged event loop.
    """

    def __init__(self, engines: Sequence[ConcurrentWorkflowEngine]):
        if not engines:
            raise ValueError("coordinator needs at least one workcell engine")
        if len({id(engine) for engine in engines}) != len(engines):
            raise ValueError("coordinator engines must be distinct")
        self._shards: List[_Shard] = [
            self._make_shard(index, engine) for index, engine in enumerate(engines)
        ]
        self.assignments: List[Optional[ShardAssignment]] = []
        #: Fleet lifecycle entries (attach / drain-requested / retirement),
        #: in the order they happened; also merged into
        #: :meth:`merged_action_log`.
        self.fleet_events: List[Dict[str, Any]] = []
        self._run_listeners: List[Callable[[RunCompletion], None]] = []
        self._campaign: Optional[_CampaignContext] = None
        self._frontier = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make_shard(
        shard_id: int,
        engine: ConcurrentWorkflowEngine,
        lanes: Optional[Sequence[Any]] = None,
    ) -> _Shard:
        shard = _Shard(
            shard_id=shard_id,
            engine=engine,
            lanes=list(lanes) if lanes is not None else [None],
        )
        shard.queue_wait = obs_metrics.get_registry().histogram(
            "job_queue_wait_s",
            {"workcell": engine.workcell.name, "instance": obs_metrics.next_instance()},
        )
        return shard

    @classmethod
    def build_color_picker_fleet(
        cls,
        n_workcells: int,
        *,
        seed: Optional[int] = None,
        n_ot2: int = 1,
        engine_factory: Optional[Callable[[Workcell], ConcurrentWorkflowEngine]] = None,
        module_speeds: Optional[Any] = None,
        **workcell_kwargs: Any,
    ) -> "MultiWorkcellCoordinator":
        """Build ``n_workcells`` colour-picker workcells and their engines.

        Each shard gets a distinct deterministic seed (:func:`shard_seed`)
        so device RNG streams differ between shards but the whole fleet is
        reproducible.  ``engine_factory(workcell)`` customises engine
        construction per shard -- e.g. binding a transport
        :class:`~repro.wei.drivers.registry.DriverRegistry` -- and defaults
        to a plain simulated engine.

        ``module_speeds`` describes a heterogeneous fleet: a single
        :class:`~repro.sim.durations.ModuleSpeedProfile` / mapping / spec
        string applied to every shard, or a sequence of ``n_workcells`` of
        them giving each shard its own hardware mix (e.g. shard 1's OT-2
        running 2.5x faster).  Each shard's duration table is rescaled
        accordingly; speeds touch timing only, never the science RNG
        streams.
        """
        if n_workcells < 1:
            raise ValueError(f"n_workcells must be >= 1, got {n_workcells}")
        if engine_factory is None:
            engine_factory = ConcurrentWorkflowEngine
        profiles = None
        if module_speeds is not None:
            profiles = ModuleSpeedProfile.broadcast(module_speeds, n_workcells)
        engines = []
        for shard in range(n_workcells):
            kwargs = dict(workcell_kwargs)
            if profiles is not None and not profiles[shard].is_identity:
                base = kwargs.get("durations")
                if base is None:
                    base = paper_calibrated_durations()
                kwargs["durations"] = profiles[shard].apply(base)
            workcell = build_color_picker_workcell(
                name=f"workcell-{shard}",
                seed=shard_seed(seed, shard),
                n_ot2=n_ot2,
                **kwargs,
            )
            engines.append(engine_factory(workcell))
        return cls(engines)

    # ------------------------------------------------------------------
    # Fleet views
    # ------------------------------------------------------------------
    @property
    def engines(self) -> List[ConcurrentWorkflowEngine]:
        """Every shard's engine in shard-id order (including drained shards).

        The list is rebuilt on each access so it always reflects shards
        attached mid-campaign; indices are stable shard ids.
        """
        return [shard.engine for shard in self._shards]

    @property
    def n_workcells(self) -> int:
        """Number of workcell shards in the fleet (drained shards included)."""
        return len(self._shards)

    @property
    def workcells(self) -> List[Workcell]:
        """The shards' workcells, in shard order."""
        return [shard.engine.workcell for shard in self._shards]

    @property
    def makespan(self) -> float:
        """Fleet makespan: the slowest shard bounds the campaign."""
        return max(shard.engine.makespan for shard in self._shards)

    def shard_makespans(self) -> List[float]:
        """Per-shard makespans, in shard order."""
        return [shard.engine.makespan for shard in self._shards]

    def utilisation(self) -> Dict[str, float]:
        """Busy fractions keyed ``"<module>@<workcell>"`` across the fleet."""
        merged: Dict[str, float] = {}
        for shard in self._shards:
            engine = shard.engine
            for name, value in engine.utilisation().items():
                merged[f"{name}@{engine.workcell.name}"] = value
        return merged

    def overall_utilisation(self) -> float:
        """Mean busy fraction across every module of every shard."""
        merged = self.utilisation()
        if not merged:
            return 0.0
        return sum(merged.values()) / len(merged)

    def status(self) -> FleetStatus:
        """Snapshot the fleet: per-shard queue depth, in-flight runs, state.

        Safe to call at any event boundary, including from run listeners
        while a campaign is in flight; the returned :class:`FleetStatus` is
        immutable and stays consistent after the loop moves on.
        """
        context = self._campaign
        shared_depth = 0
        if context is not None and context.queue is not None:
            shared_depth = len(context.queue)
        shards = []
        for shard in self._shards:
            if shard.state != "active" or context is None:
                depth = 0
            elif context.queue is not None:
                depth = shared_depth
            else:
                seen = set()
                depth = 0
                for queue in shard.queues:
                    if id(queue) not in seen:
                        seen.add(id(queue))
                        depth += len(queue)
            retry_stats = shard.engine.transport_retry_stats()
            delivery_p50 = delivery_p95 = None
            if shard.engine.drivers is not None:
                delivery = shard.engine.drivers.bridge.delivery_latency
                delivery_p50 = delivery.percentile(0.50)
                delivery_p95 = delivery.percentile(0.95)
            queue_p50 = queue_p95 = queue_mean = None
            if shard.queue_wait is not None:
                queue_p50 = shard.queue_wait.percentile(0.50)
                queue_p95 = shard.queue_wait.percentile(0.95)
                queue_mean = shard.queue_wait.window_mean
            shards.append(
                ShardStatus(
                    shard_id=shard.shard_id,
                    workcell=shard.engine.workcell.name,
                    state=shard.state,
                    queue_depth=depth,
                    in_flight=shard.claimed - shard.completed,
                    claimed=shard.claimed,
                    completed=shard.completed,
                    utilisation=shard.engine.overall_utilisation(),
                    makespan=shard.engine.makespan,
                    transport=shard.engine.transport_name,
                    retries=retry_stats.retries,
                    resyncs=retry_stats.resyncs,
                    delivery_p50_s=delivery_p50,
                    delivery_p95_s=delivery_p95,
                    queue_wait_p50_s=queue_p50,
                    queue_wait_p95_s=queue_p95,
                    queue_wait_mean_s=queue_mean,
                    predictor_drift=shard.drift_ewma,
                )
            )
        return FleetStatus(time=self._frontier, queue_depth=shared_depth, shards=tuple(shards))

    def merged_action_log(self) -> List[Dict[str, Any]]:
        """Every device command of every shard, time-sorted and shard-tagged.

        The single-stream view a fleet portal ingests: each entry is the
        record's dict form plus the originating ``workcell``, ordered by
        start time (ties broken by shard order so the merge is stable).
        Fleet lifecycle entries -- attached workcells, drain requests and
        retirements, marked by an ``"event"`` key -- are merged into the
        stream at the fleet time they happened.
        """
        entries: List[Tuple[float, int, Dict[str, Any]]] = []
        for shard in self._shards:
            engine = shard.engine
            for record in engine.workcell.action_records():
                entry = record.to_dict()
                entry["workcell"] = engine.workcell.name
                entries.append((record.start_time, shard.shard_id, entry))
        for event in self.fleet_events:
            entries.append((event["start_time"], event["shard"], dict(event)))
        entries.sort(key=lambda item: (item[0], item[1]))
        return [entry for _, _, entry in entries]

    # ------------------------------------------------------------------
    # Streaming run completions
    # ------------------------------------------------------------------
    def add_run_listener(
        self, listener: Callable[[RunCompletion], None]
    ) -> Callable[[RunCompletion], None]:
        """Register ``listener`` for every future job completion.

        Listeners fire synchronously inside the merged event loop, in
        registration order, the moment a shard's lane finishes a job --
        before that lane claims its next one.  A listener may call
        :meth:`attach_workcell`, :meth:`drain_workcell` or :meth:`status`;
        it must not call :meth:`run_jobs`.  Returns ``listener`` so the
        caller can hand it back to :meth:`remove_run_listener`.
        """
        self._run_listeners.append(listener)
        return listener

    def remove_run_listener(self, listener: Callable[[RunCompletion], None]) -> None:
        """Unregister a listener previously added with :meth:`add_run_listener`."""
        self._run_listeners.remove(listener)

    # ------------------------------------------------------------------
    # Elasticity: attach / drain
    # ------------------------------------------------------------------
    def attach_workcell(
        self, engine: ConcurrentWorkflowEngine, *, lanes: Optional[Sequence[Any]] = None
    ) -> int:
        """Add a workcell shard to the fleet; returns its stable shard id.

        Safe mid-campaign (from a run listener or a scheduled event): the new
        shard's lane dispatchers are submitted before this call returns, so
        under work stealing it claims its first pending job immediately and
        its events join the merged loop on the next iteration.  Outside a
        campaign the shard simply waits for the next :meth:`run_jobs`.

        ``lanes`` gives the shard's lane keys (passed to ``make_program`` at
        claim time; default one anonymous lane).  Attaching during a
        ``"static"`` campaign raises :class:`ValueError` -- static pinning
        fixed every job's lane up front, so a late shard could never claim
        work.
        """
        if any(shard.engine is engine for shard in self._shards):
            raise ValueError("engine is already part of this fleet")
        context = self._campaign
        if context is not None and context.queue is None:
            raise ValueError("cannot attach a workcell during a statically-pinned campaign")
        shard = self._make_shard(len(self._shards), engine, lanes)
        self._shards.append(shard)
        self._log_fleet_event("workcell-attached", shard)
        if context is not None:
            self._submit_lane_dispatchers(shard, context)
        return shard.shard_id

    def drain_workcell(self, shard_id: int) -> None:
        """Retire a shard: finish its in-flight runs, claim nothing new.

        Safe mid-campaign.  The shard's lane dispatchers observe the drain at
        their next claim boundary, so every run already claimed -- including
        any two-phase action whose completion event is still pending -- runs
        to completion before the shard retires; the retirement is then
        reported in :attr:`fleet_events` / :meth:`merged_action_log`.
        Outside a campaign the shard is idle and retires immediately.

        Raises :class:`ValueError` for unknown / already-draining shards, for
        drains during a ``"static"`` campaign (pinned jobs would be
        abandoned) and for draining the last active shard while unclaimed
        jobs remain.
        """
        try:
            shard = self._shards[shard_id]
        except IndexError:
            raise ValueError(
                f"unknown shard id {shard_id}; fleet has {len(self._shards)} shards"
            ) from None
        if shard.state != "active":
            raise ValueError(f"shard {shard_id} is already {shard.state}")
        context = self._campaign
        if context is not None:
            if context.queue is None:
                raise ValueError("cannot drain a workcell during a statically-pinned campaign")
            others = [s for s in self._shards if s.state == "active" and s is not shard]
            if not others and context.queue:
                raise ValueError(
                    f"cannot drain shard {shard_id}: it is the last active shard and "
                    f"{len(context.queue)} job(s) are still unclaimed"
                )
        shard.state = "draining"
        self._log_fleet_event("drain-requested", shard)
        if context is None or self._shard_quiescent(shard):
            self._retire(shard)

    def _log_fleet_event(self, event: str, shard: _Shard, **extra: Any) -> None:
        entry = {
            "event": event,
            "shard": shard.shard_id,
            "workcell": shard.engine.workcell.name,
            "start_time": self._frontier,
        }
        entry.update(extra)
        self.fleet_events.append(entry)

    def _shard_quiescent(self, shard: _Shard) -> bool:
        """True once a shard has no pending events and no unfinished dispatcher.

        A transport-backed shard additionally waits for every in-flight
        completion its hardware still owes (``transport_idle``), so a drain
        can never retire a workcell whose driver threads are mid-delivery.
        """
        if shard.engine.scheduler.next_time() is not None:
            return False
        if not shard.engine.transport_idle():
            return False
        return all(handle.done for handle in shard.handles)

    def _retire(self, shard: _Shard) -> None:
        shard.state = "drained"
        self._log_fleet_event(
            "workcell-retired", shard, jobs_completed=shard.completed
        )

    def _finalise_draining(self) -> None:
        for shard in self._shards:
            if shard.state == "draining" and self._shard_quiescent(shard):
                self._retire(shard)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_jobs(
        self,
        jobs: Sequence[Any],
        make_program: Callable[[Any, int, Any], Generator],
        *,
        lanes: Optional[Sequence[Sequence[Any]]] = None,
        assignment: str = "work-stealing",
        duration_hint: Optional[Callable[[Any], float]] = None,
    ) -> List[Any]:
        """Execute ``jobs`` across the fleet and return results in job order.

        ``make_program(job, shard, lane)`` builds a job's program once a lane
        has claimed it, binding shard-local resources at claim time.
        ``lanes`` gives each shard's lane keys (default: one anonymous lane
        per shard; must cover every shard, drained ones included, so indices
        line up).  With ``assignment="work-stealing"`` (the default) all
        lanes pull from one shared queue in least-finish-time order; with
        ``"stealing-lpt"`` the same shared queue is ordered
        longest-predicted-duration-first (classic LPT list scheduling --
        starting the long jobs early avoids a lane being handed the longest
        job last, the worst case of arbitrary-order greedy), which requires
        a ``duration_hint`` returning each job's predicted duration in
        seconds (ties keep submission order); with ``"lookahead"`` each
        lane, whenever it frees, re-ranks the remaining queue by predicted
        duration *on that lane*, corrected by the shard's observed
        drift EWMA, and claims the first job no other live lane would
        finish sooner (deferring otherwise) -- the online policy for
        heterogeneous fleets; with ``"static"`` job ``i`` is pinned to lane
        ``i % L`` of the flattened lane list -- kept for benchmarking
        against the dynamic policies.

        ``duration_hint`` may take one argument (``hint(job)``, one global
        prediction) or two (``hint(job, durations)``, called with each
        predicting shard's :class:`~repro.sim.durations.DurationTable` --
        lane-aware, e.g.
        :func:`~repro.core.campaign.predict_experiment_duration`).  With a
        lane-aware hint, ``"stealing-lpt"`` orders the queue by consensus
        *normalized* predicted size (per-shard predictions divided by that
        shard's mean, averaged), so the ordering stays meaningful when lane
        speeds diverge; see ``docs/scheduling.md``.

        Run listeners (:meth:`add_run_listener`) fire as each job completes,
        and :meth:`attach_workcell` / :meth:`drain_workcell` may reshape the
        fleet while this runs; both only work under work stealing.

        Blocks until every claimed job has finished and every shard's event
        queue has drained; only then does it return, so anything a listener
        streamed (e.g. portal records) is complete before the caller resumes.
        Raises :class:`ConcurrencyError` if any shard stalls or draining left
        jobs unclaimed, and re-raises the first stored program error, exactly
        like :meth:`ConcurrentWorkflowEngine.run_until_complete`.
        """
        if assignment not in ASSIGNMENT_POLICIES:
            raise ValueError(
                f"unknown assignment policy {assignment!r}; expected one of {ASSIGNMENT_POLICIES}"
            )
        if assignment in ("stealing-lpt", "lookahead") and duration_hint is None:
            raise ValueError(
                f"assignment={assignment!r} needs a duration_hint(job) predictor "
                "to order the shared queue by predicted duration"
            )
        if self._campaign is not None:
            raise RuntimeError("run_jobs is already in flight on this coordinator")
        if lanes is not None:
            if len(lanes) != len(self._shards):
                raise ValueError("lanes must provide one lane list per workcell engine")
            for shard, shard_lanes in zip(self._shards, lanes):
                shard.lanes = list(shard_lanes)
        active = [shard for shard in self._shards if shard.state == "active"]
        if not any(shard.lanes for shard in active):
            raise ValueError("at least one lane on an active shard is required")

        results: List[Any] = [None] * len(jobs)
        self.assignments = [None] * len(jobs)
        for shard in self._shards:
            shard.handles = []
            shard.queues = []

        hint_arity = _hint_arity(duration_hint) if duration_hint is not None else 1
        shared: Optional[Deque[tuple]] = None
        if assignment in ("work-stealing", "lookahead"):
            # Lookahead keeps submission order: each lane re-ranks the
            # remaining queue itself at every claim.
            shared = deque(enumerate(jobs))
        elif assignment == "stealing-lpt":
            shared = self._lpt_queue(jobs, duration_hint, hint_arity, active)
        context = _CampaignContext(
            jobs=jobs,
            make_program=make_program,
            assignment=assignment,
            results=results,
            queue=shared,
            enqueue_wall={index: time.monotonic() for index in range(len(jobs))},
            duration_hint=duration_hint,
            hint_arity=hint_arity,
        )
        self._campaign = context
        try:
            if shared is None:
                self._submit_static_lanes(context, active, jobs)
            else:
                # Register every lane before submitting any dispatcher:
                # submission runs a dispatcher inline to its first claim,
                # and a lookahead claim must see all its competitors.
                for shard in active:
                    self._register_lookahead_lanes(shard, context)
                for shard in active:
                    self._submit_lane_dispatchers(shard, context)
            self._run_merged()
            self._finalise_draining()
            if shared:
                # A dispatcher killed by a listener exception also leaves jobs
                # unclaimed; surface the real error before the generic one.
                for shard in self._shards:
                    for handle in shard.handles:
                        if handle.error is not None:
                            raise handle.error
                unclaimed = sorted(index for index, _ in shared)
                raise ConcurrencyError(
                    f"jobs never claimed because every shard drained: {unclaimed}"
                )
        finally:
            self._campaign = None
        for shard in self._shards:
            # The merged loop drained every queue; this validates each shard
            # finished cleanly and re-raises any stored error.
            shard.engine.run_until_complete()
        return results

    def _submit_static_lanes(
        self, context: _CampaignContext, active: List[_Shard], jobs: Sequence[Any]
    ) -> None:
        flat_lanes = [
            (shard, lane) for shard in active for lane in shard.lanes
        ]
        queues: List[Deque[tuple]] = [deque() for _ in flat_lanes]
        for index, job in enumerate(jobs):
            queues[index % len(flat_lanes)].append((index, job))
        for position, (shard, lane) in enumerate(flat_lanes):
            self._submit_dispatcher(shard, lane, queues[position], context, position)

    def _predict(self, context: _CampaignContext, shard: _Shard, index: int, job: Any) -> float:
        """Raw (drift-uncorrected) predicted duration of ``job`` on ``shard``.

        Lane-aware when the campaign's hint takes the lane's duration table
        (arity 2); cached per ``(shard, job)`` since each shard's table is
        fixed for the campaign.
        """
        key = (shard.shard_id, index)
        cached = context.predictions.get(key)
        if cached is None:
            if context.hint_arity >= 2:
                cached = float(context.duration_hint(job, shard.engine.workcell.durations))
            else:
                cached = float(context.duration_hint(job))
            context.predictions[key] = cached
        return cached

    def _lpt_queue(
        self,
        jobs: Sequence[Any],
        duration_hint: Callable[..., float],
        hint_arity: int,
        active: List[_Shard],
    ) -> Deque[tuple]:
        """The ``"stealing-lpt"`` shared queue: longest-predicted-first.

        With a legacy 1-argument hint every lane predicts the same number,
        so the queue is ordered by it directly.  With a lane-aware hint the
        shards may disagree (a 2x-OT-2 shard predicts every run shorter), so
        each job is ranked by its *consensus normalized* size: each active
        shard's predictions are divided by that shard's mean prediction
        (removing the shard's overall speed) and averaged across shards --
        the intrinsic LPT size that stays meaningful when lane speeds
        diverge.  Stable sort: equal predictions keep submission order, so
        the assignment stays deterministic.
        """
        if not jobs:
            return deque()
        if hint_arity >= 2 and active:
            per_shard: List[List[float]] = []
            for shard in active:
                table = shard.engine.workcell.durations
                predictions = [float(duration_hint(job, table)) for job in jobs]
                mean = sum(predictions) / len(predictions)
                if mean > 0:
                    per_shard.append([p / mean for p in predictions])
            if per_shard:
                keys = [
                    sum(column) / len(per_shard) for column in zip(*per_shard)
                ]
            else:
                keys = [0.0] * len(jobs)
        else:
            keys = [float(duration_hint(job)) for job in jobs]
        return deque(sorted(enumerate(jobs), key=lambda item: -keys[item[0]]))

    def _live_competitors(
        self, context: _CampaignContext, lane_key: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        """Other lanes that can still claim from the shared queue."""
        competitors = []
        for key, other_shard in context.lane_shards.items():
            if key == lane_key or other_shard.state != "active":
                continue
            handle = context.lane_handles.get(key)
            if handle is not None and handle.done:
                continue
            competitors.append(key)
        return competitors

    def _lookahead_select(
        self, shard: _Shard, lane_key: Tuple[int, int], context: _CampaignContext
    ) -> Callable[[Deque[tuple]], Any]:
        """Build one lane's ``"lookahead"`` claim rule (see :func:`claim_jobs`).

        Each time this lane frees it re-ranks the remaining queue by
        drift-corrected predicted duration *on this lane* (longest first)
        and claims the first job no other live lane would finish sooner --
        comparing ``now + my_corrected_duration`` against each competitor's
        ``max(predicted_free_time, now) + its_corrected_duration``.  When
        every job would finish sooner elsewhere, the lane defers: it sleeps
        until the earliest competitor is predicted to free (at least
        :data:`LOOKAHEAD_MIN_DEFER_S`, so deferral strictly advances
        simulated time) and re-evaluates.  The ``max(..., now)`` clamp makes
        an idle competitor's availability "now", which reduces the contest
        to a pure duration comparison -- two idle lanes can never defer to
        each other for the same job, so some lane always claims and the
        queue drains.
        """

        def corrected(other: _Shard, index: int, job: Any) -> float:
            drift = other.drift_ewma if other.drift_ewma is not None else 1.0
            return self._predict(context, other, index, job) * drift

        def select(queue: Deque[tuple]) -> Any:
            now = shard.engine.clock.now()
            order = sorted(
                range(len(queue)),
                key=lambda position: -corrected(shard, *queue[position]),
            )
            competitors = self._live_competitors(context, lane_key)
            for position in order:
                index, job = queue[position]
                my_finish = now + corrected(shard, index, job)
                other_best = float("inf")
                for key in competitors:
                    other_shard = context.lane_shards[key]
                    avail = max(context.lane_avail.get(key, 0.0), now)
                    other_best = min(
                        other_best, avail + corrected(other_shard, index, job)
                    )
                if my_finish <= other_best + _LOOKAHEAD_EPS:
                    del queue[position]
                    return (index, job)
            earliest = min(
                max(context.lane_avail.get(key, 0.0), now) for key in competitors
            )
            return max(earliest - now, LOOKAHEAD_MIN_DEFER_S)

        return select

    def _register_lookahead_lanes(self, shard: _Shard, context: _CampaignContext) -> None:
        """Pre-register a shard's lanes as lookahead competitors.

        Must happen for every lane *before* any dispatcher is submitted:
        submission runs a dispatcher inline to its first claim, and that
        first claim must already see the other lanes to defer to them.
        """
        if context.assignment != "lookahead":
            return
        for position in range(len(shard.lanes)):
            key = (shard.shard_id, position)
            context.lane_shards[key] = shard
            context.lane_avail.setdefault(key, 0.0)

    def _submit_lane_dispatchers(self, shard: _Shard, context: _CampaignContext) -> None:
        self._register_lookahead_lanes(shard, context)
        for position, lane in enumerate(shard.lanes):
            self._submit_dispatcher(shard, lane, context.queue, context, position)

    def _submit_dispatcher(
        self,
        shard: _Shard,
        lane: Any,
        queue: Deque[tuple],
        context: _CampaignContext,
        position: int,
    ) -> None:
        """Submit one lane's claim-loop program, wired into fleet bookkeeping."""
        program_name = f"shard{shard.shard_id}-lane-{lane if lane is not None else position}"
        span_hooks = RunSpanHooks(shard.engine, program_name)
        lane_key = (shard.shard_id, position)
        lookahead = context.assignment == "lookahead"
        hinted = context.duration_hint is not None

        def on_claim(index: int, job: Any) -> None:
            shard.claimed += 1
            self.assignments[index] = ShardAssignment(
                job_index=index,
                shard=shard.shard_id,
                workcell=shard.engine.workcell.name,
                lane=lane,
            )
            enqueued = context.enqueue_wall.get(index)
            if enqueued is not None and shard.queue_wait is not None:
                shard.queue_wait.observe(time.monotonic() - enqueued)
            if hinted:
                now = shard.engine.clock.now()
                raw = self._predict(context, shard, index, job)
                context.claim_info[index] = (raw, now)
                if lookahead:
                    drift = shard.drift_ewma if shard.drift_ewma is not None else 1.0
                    context.lane_avail[lane_key] = now + raw * drift
            span_hooks.claimed(index, job)

        def on_done(index: int, job: Any, result: Any) -> None:
            span_hooks.done(index, job, result)
            shard.completed += 1
            now = shard.engine.clock.now()
            claim = context.claim_info.pop(index, None)
            if claim is not None:
                raw, claimed_at = claim
                if raw > 0:
                    ratio = (now - claimed_at) / raw
                    if shard.drift_ewma is None:
                        shard.drift_ewma = ratio
                    else:
                        shard.drift_ewma += LOOKAHEAD_DRIFT_ALPHA * (
                            ratio - shard.drift_ewma
                        )
            if lookahead:
                context.lane_avail[lane_key] = now
            completion = RunCompletion(
                job_index=index,
                job=job,
                result=result,
                assignment=self.assignments[index],
                time=now,
            )
            for listener in list(self._run_listeners):
                listener(completion)

        shard.queues.append(queue)
        select = self._lookahead_select(shard, lane_key, context) if lookahead else None
        handle = shard.engine.submit_program(
            claim_jobs(
                queue,
                context.results,
                lambda job: context.make_program(job, shard.shard_id, lane),
                on_claim,
                should_stop=lambda: shard.state != "active",
                on_done=on_done,
                select=select,
            ),
            name=program_name,
        )
        shard.handles.append(handle)
        if lookahead:
            context.lane_handles[lane_key] = handle

    def _run_merged(self) -> None:
        """Drive all shards, always stepping the earliest pending event.

        Shards share nothing but the job queue, so this ordering only matters
        when two lanes race for the queue -- and then the lane that frees
        earliest in simulated time must claim the next job for the
        least-finish-time guarantee to hold.  Ties go to the lower shard, so
        execution is deterministic.  The shard list is re-read every
        iteration, so workcells attached from inside an event join the merge
        immediately; draining shards are retired the moment they quiesce.
        """
        while True:
            best_shard = None
            best_time = None
            for shard in self._shards:
                pending = shard.engine.scheduler.next_time()
                if pending is None:
                    continue
                if best_time is None or pending < best_time:
                    best_time = pending
                    best_shard = shard
            if best_shard is None:
                return
            self._frontier = max(self._frontier, best_time)
            best_shard.engine.scheduler.step()
            self._finalise_draining()
