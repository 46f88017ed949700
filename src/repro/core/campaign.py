"""Multi-run campaigns (the paper's Figure 3 experiment).

The data-portal view in Figure 3 summarises "an experiment performed on
August 16th, 2023, involving 12 runs each with 15 samples, for a total of 180
experiments".  :func:`run_campaign` reproduces that usage pattern: a sequence
of short colour-picker runs, each published to the same experiment on the
portal, optionally cycling through different target colours.

Every campaign runs on a
:class:`~repro.wei.coordinator.MultiWorkcellCoordinator`.  By default it is
a one-shard fleet: one workcell with one OT-2/barty lane, which executes
the runs one after another on the same devices, as the paper's 12 runs
shared one physical workcell.

With ``n_ot2 > 1`` the campaign becomes the paper's Section 4 ablation,
*executed* rather than planned: the shared workcell is built with ``n_ot2``
OT-2/barty lanes and the runs are interleaved by its
:class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` -- each lane works
through its share of the runs while the pf400, sciclops and camera are shared
(more commands in flight, lower total wall time; the CCWH/TWH trade-off).
Lanes *steal* the next pending run as they free (least-finish-time
assignment) unless ``assignment="static"`` pins run ``i`` to lane ``i % k``.

With ``n_workcells > 1`` the fleet has several independent workcells:
every lane of every workcell pulls from one shared run queue, the runs'
records merge into a single portal experiment with their original
``run_index``es, and the campaign makespan is the slowest shard's.

With ``transport="wire"`` the campaign runs in *real time*: every workcell
is backed by a :class:`~repro.wei.drivers.protocol.WireProtocolTransport`
whose actions travel as CRC-checked frames to a device that paces each
action's sampled duration against a wall clock compressed by ``speedup``;
completions arrive out-of-band from the transport's reader thread.  The
simulated timestamps -- and therefore every sample and score -- are
identical to the sim-clock campaign with the same seed; only the real
elapsed time (and the completion-delivery plumbing) differs.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.obs import tracer as obs_tracer
from repro.publish.portal import DataPortal, PortalBackend
from repro.publish.records import RunRecord, SampleRecord
from repro.sim.durations import DurationTable, ModuleSpeedProfile, paper_calibrated_durations
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import (
    ASSIGNMENT_POLICIES,
    MultiWorkcellCoordinator,
    RunCompletion,
    ShardAssignment,
)
from repro.wei.drivers.registry import DriverRegistry
from repro.wei.workcell import build_color_picker_workcell

__all__ = [
    "TRANSPORT_MODES",
    "CampaignResult",
    "TransportReport",
    "predict_experiment_duration",
    "run_campaign",
]

#: Execution modes understood by :func:`run_campaign` (and the CLI):
#: ``"sim"`` completes every action inline on the simulated clock,
#: ``"wire"`` delivers completions out-of-band at wall-clock pace / speedup
#: over the framed byte-stream protocol (CRC-checked frames, ACK/retry,
#: reconnect-with-resync) and accepts a seeded
#: :class:`~repro.wei.chaos.ChaosSchedule` to attack it.
TRANSPORT_MODES = ("sim", "wire")


@dataclass(frozen=True)
class TransportReport:
    """Typed fleet-wide transport snapshot for a campaign.

    Replaces the untyped ``transport_stats`` dict: every counter is composed
    from per-component snapshots each taken atomically under its owning lock
    (:class:`~repro.wei.drivers.bridge.BridgeStats` under the bridge
    condition, :class:`~repro.wei.concurrent.TransportRetryStats` from the
    wire transports' own conditions), so the report can never mix counters
    from two different instants of one component.

    Read the counters as attributes, or :meth:`to_dict` for the historical
    dict shape.  ``present`` is ``False`` for sim campaigns.
    """

    delivered: int = 0
    rejected_duplicate: int = 0
    rejected_late: int = 0
    timed_out: int = 0
    wall_elapsed_s: float = 0.0
    mean_delivery_latency_s: float = 0.0
    max_delivery_latency_s: float = 0.0
    retries: int = 0
    resyncs: int = 0
    crc_errors: int = 0
    duplicates_dropped: int = 0
    completions_retransmitted: int = 0
    #: Whether the campaign had a transport at all (``False`` for sim).
    present: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """The historical dict shape (``{}`` when no transport ran)."""
        if not self.present:
            return {}
        data = asdict(self)
        del data["present"]
        return data


@dataclass
class CampaignResult:
    """The outcome of a campaign of runs published to a shared portal."""

    experiment_id: str
    #: Any portal backend: the in-memory :class:`DataPortal` or the durable
    #: :class:`~repro.publish.store.DurableDataPortal` behave identically here.
    portal: PortalBackend
    runs: List[ExperimentResult] = field(default_factory=list)
    #: Number of OT-2 lanes per workcell (1 = sequential within a workcell).
    n_ot2: int = 1
    #: Number of independent workcells the campaign was sharded across.
    n_workcells: int = 1
    #: Total simulated time of the whole campaign: the coordinator's
    #: makespan, i.e. the slowest shard's clock when the last run finished.
    makespan_s: float = 0.0
    #: Per-shard makespans when ``n_workcells > 1`` (empty otherwise).
    workcell_makespans: List[float] = field(default_factory=list)
    #: Which shard/lane executed each run, in run order.
    assignments: List[Optional[ShardAssignment]] = field(default_factory=list)
    #: Execution mode the campaign ran under (``"sim"`` or ``"wire"``).
    transport: str = "sim"
    #: Transport-layer report for transport campaigns: completion counts,
    #: the real wall seconds the campaign took, delivery-latency summary
    #: statistics and wire recovery counters (``present`` is ``False`` for
    #: sim campaigns).
    transport_stats: TransportReport = field(default_factory=TransportReport)

    @property
    def n_runs(self) -> int:
        """Number of runs executed."""
        return len(self.runs)

    @property
    def total_samples(self) -> int:
        """Total samples across all runs (the paper's 12 x 15 = 180)."""
        return sum(run.n_samples for run in self.runs)

    @property
    def best_score(self) -> float:
        """Best score achieved by any run."""
        return min((run.best_score for run in self.runs), default=float("inf"))

    def summary_view(self) -> Dict[str, Any]:
        """The portal's experiment summary view (Figure 3, left)."""
        return self.portal.summary_view(self.experiment_id)

    def detail_view(self, run_index: int) -> Dict[str, Any]:
        """The portal's per-run detail view (Figure 3, right)."""
        records = self.portal.search(experiment_id=self.experiment_id)
        for record in records:
            if record.run_index == run_index:
                return self.portal.detail_view(record.run_id)
        raise KeyError(f"campaign has no published run with index {run_index}")


#: Wells per plate (standard 96-well SBS plate, matching
#: :class:`~repro.hardware.labware.Plate`), dyes the barty fills/drains per
#: plate (the CMYK set every colour-picker workcell mounts) and µl per OT-2
#: dye reservoir (:func:`~repro.wei.workcell.build_color_picker_workcell`).
_PLATE_CAPACITY = 96
_N_DYES = 4
_RESERVOIR_CAPACITY_UL = 20_000.0


def predict_experiment_duration(
    config: ExperimentConfig, durations: Optional[DurationTable] = None
) -> float:
    """Predicted run duration (seconds) from :class:`DurationTable` means.

    Walks the actions one colour-picker experiment issues, mirroring
    :meth:`ColorPickerApp.program`:

    * per plate, ``cp_wf_newplate`` (sciclops ``get_plate`` + pf400
      ``transfer`` + barty ``fill_colors`` over the dye set) and
      ``cp_wf_trashplate`` (pf400 ``transfer`` + barty ``drain_colors``) --
      every plate is trashed, the intermediates by ``_acquire_new_plate``
      and the last one at the end of the run;
    * per batch, the solver step, ``cp_wf_mix_colors`` (OT-2
      ``run_protocol`` over the batch's wells + two pf400 ``transfer`` moves
      + camera ``take_picture``), image processing, and the optional portal
      upload.

    Pass ``durations`` to predict against the table a specific lane actually
    runs (heterogeneous fleets); the default is the paper-calibrated table.

    Known approximations -- this is deliberately a *prediction*, built to
    rank jobs for LPT/lookahead scheduling where relative ordering matters,
    not to forecast the makespan:

    * jitter is ignored (``DurationModel.mean`` per action);
    * reservoir refills (``cp_wf_replenish``) and OT-2 tip-rack replacement
      are ignored -- both depend on runtime consumable state;
    * retries and human interventions are ignored;
    * plate packing assumes batches fill plates in order, exact whenever the
      plate capacity (96) is a multiple of the batch size.
    """
    table = durations if durations is not None else paper_calibrated_durations()
    batch = max(1, min(config.batch_size, config.n_samples))
    full, remainder = divmod(config.n_samples, batch)
    batch_sizes = [batch] * full + ([remainder] if remainder else [])
    plates = max(1, math.ceil(config.n_samples / _PLATE_CAPACITY))
    n_dyes = _N_DYES

    # cp_wf_newplate and cp_wf_trashplate, once per plate each.
    total = plates * (
        table.mean("sciclops", "get_plate")
        + table.mean("pf400", "transfer")
        + table.mean("barty", "fill_colors", units=n_dyes)
    )
    total += plates * (
        table.mean("pf400", "transfer") + table.mean("barty", "drain_colors", units=n_dyes)
    )
    for wells in batch_sizes:
        total += (
            table.mean("compute", "solver")
            + table.mean("ot2", "run_protocol", units=wells)
            + 2.0 * table.mean("pf400", "transfer")
            + table.mean("camera", "take_picture")
            + table.mean("compute", "image_processing")
        )
        if config.publish:
            total += table.mean("publish", "upload")
    return total


def workcell_stock(configs: Sequence[ExperimentConfig]) -> Dict[str, float]:
    """Consumable sizing for a workcell that may execute every one of ``configs``.

    Returns ``plates_per_tower`` / ``bulk_capacity_ul`` keyword arguments for
    :func:`~repro.wei.workcell.build_color_picker_workcell`.  Any lane of any
    shard may claim every job, so one tower holds a plate for each plate-load
    of every job, and each barty's bulk vessels hold, per dye, one reservoir
    fill per plate (plus the reservoir left full at the end) and the most
    every sample can draw.  Short job lists keep the bench defaults (20
    plates per tower, 500 ml of each dye).
    """
    plates = 0
    dye_ul = _RESERVOIR_CAPACITY_UL
    for config in configs:
        batch = max(1, min(config.batch_size, config.n_samples))
        per_plate = max(1, _PLATE_CAPACITY // batch) * batch
        job_plates = math.ceil(config.n_samples / per_plate)
        plates += job_plates
        dye_ul += (
            job_plates * _RESERVOIR_CAPACITY_UL
            + config.n_samples * config.max_component_volume_ul
        )
    return {"plates_per_tower": max(20, plates), "bulk_capacity_ul": max(500_000.0, dye_ul)}


def _campaign_config(
    *,
    experiment_id: str,
    run_index: int,
    samples_per_run: int,
    targets: Optional[Sequence[Any]],
    batch_size: int,
    solver: str,
    measurement: str,
    seed: Optional[int],
) -> ExperimentConfig:
    target = targets[run_index % len(targets)] if targets else "paper-grey"
    run_seed = None if seed is None else seed + run_index
    return ExperimentConfig(
        target=target,
        n_samples=samples_per_run,
        batch_size=min(batch_size, samples_per_run),
        solver=solver,
        measurement=measurement,
        seed=run_seed,
        publish=False,  # the campaign publishes one consolidated record per run
        experiment_id=experiment_id,
        run_id=f"{experiment_id}-run{run_index:03d}",
        run_index=run_index,
    )


def _campaign_record(
    config: ExperimentConfig, result: ExperimentResult, solver: str, run_index: int
) -> RunRecord:
    return RunRecord(
        experiment_id=config.experiment_id,
        run_id=config.run_id,
        run_index=run_index,
        target_rgb=list(config.target.rgb),
        solver=solver,
        metadata={"batch_size": config.batch_size, "seed": config.seed},
        timings={
            "elapsed_s": result.elapsed_s,
            "synthesis_s": result.metrics.synthesis_time_s if result.metrics else 0.0,
            "transfer_s": result.metrics.transfer_time_s if result.metrics else 0.0,
        },
        samples=[
            SampleRecord(
                sample_index=sample.sample_index,
                well=sample.well,
                plate_barcode=sample.plate_barcode,
                volumes_ul=sample.volumes_ul,
                measured_rgb=list(sample.measured_rgb),
                score=sample.score,
                proposed_by=solver,
                timestamp=sample.elapsed_s,
            )
            for sample in result.samples
        ],
    )


def run_campaign(
    n_runs: int = 12,
    samples_per_run: int = 15,
    *,
    experiment_id: str = "acdc-campaign",
    targets: Optional[Sequence[Any]] = None,
    batch_size: int = 1,
    solver: str = "evolutionary",
    measurement: str = "direct",
    seed: Optional[int] = 816,
    portal: Optional[PortalBackend] = None,
    n_ot2: int = 1,
    n_workcells: int = 1,
    assignment: str = "work-stealing",
    module_speeds: Optional[Any] = None,
    coordinator: Optional[MultiWorkcellCoordinator] = None,
    on_run_complete: Optional[Callable[[RunCompletion], None]] = None,
    transport: str = "sim",
    speedup: float = 1000.0,
    completion_timeout_s: float = 60.0,
    chaos: Optional[Any] = None,
) -> CampaignResult:
    """Run ``n_runs`` short experiments and publish each to the same portal experiment.

    Parameters
    ----------
    targets:
        Optional sequence of target colours to cycle through (defaults to the
        paper's grey for every run).
    seed:
        Campaign seed; run ``i`` uses ``seed + i`` so runs are independent but
        the whole campaign is reproducible.
    n_ot2:
        Number of OT-2/barty lanes per workcell.  1 (the default) runs the
        campaign sequentially on one lane; ``n_ot2 > 1`` *executes* the runs
        concurrently over the workcell's lanes.  With ``measurement="direct"``
        (the default) solver proposals and measured scores are identical for
        every lane count with the same seed (only the timing differs), which
        is what makes the TWH-vs-CCWH comparison meaningful; ``"vision"``
        mode draws camera frame keys from the shared device in claim order,
        so scores differ slightly.
    n_workcells:
        Number of independent workcells to shard the campaign across.  With
        ``n_workcells > 1`` a :class:`MultiWorkcellCoordinator` drives one
        engine per workcell (each with ``n_ot2`` lanes) and every lane pulls
        the next pending run from one shared queue; the runs' records still
        publish to the single ``experiment_id`` with their original
        ``run_index``es, so the portal view is one merged campaign.
    assignment:
        ``"work-stealing"`` (the default) lets lanes claim the next pending
        run the moment they free -- least-finish-time assignment, which on
        uneven run durations beats ``"static"``'s run-``i``-to-lane-``i % k``
        pinning (kept for comparison benchmarks).  ``"stealing-lpt"`` sorts
        the shared queue longest-predicted-first (lane-aware on
        heterogeneous fleets); ``"lookahead"`` re-ranks the remaining queue
        each time a lane frees, correcting predictions with the observed
        drift per shard.  See ``docs/scheduling.md`` for the full policy
        matrix.
    module_speeds:
        Per-module hardware speed factors describing a heterogeneous fleet:
        a :class:`~repro.sim.durations.ModuleSpeedProfile`, a mapping like
        ``{"ot2": 2.5}``, a spec string ``"ot2=2.5,pf400=0.5"`` (all
        broadcast to every workcell), or a sequence of ``n_workcells`` such
        values giving each shard its own profile.  A speed of 2.5 means
        that module runs 2.5x faster than the paper-calibrated baseline.
        Speeds only rescale action *durations*; with
        ``measurement="direct"`` the science (proposals, scores, portal
        records) stays bit-identical to the homogeneous campaign with the
        same seed.  Rejected together with an explicit ``coordinator``
        (whose engines already own their duration tables).
    coordinator:
        An existing :class:`MultiWorkcellCoordinator` to run the campaign on
        (overrides ``n_workcells``); each of its workcells needs at least
        ``n_ot2`` OT-2/barty lanes.  Pass one to reshape the fleet while the
        campaign runs: an ``on_run_complete`` hook may call
        ``coordinator.attach_workcell`` / ``drain_workcell`` mid-flight.
        Its engines keep whatever transports they were built with, so
        ``transport`` other than ``"sim"`` and ``chaos`` are rejected
        together with it.
    on_run_complete:
        Callback fired with a :class:`~repro.wei.coordinator.RunCompletion`
        as each run finishes -- *after* its record has been ingested into
        the portal, so the callback sees the streamed state.
    transport:
        ``"sim"`` (the default) completes every action inline on the
        simulated clock; ``"wire"`` backs every workcell with a
        :class:`~repro.wei.drivers.protocol.WireProtocolTransport` whose
        actions travel as CRC-checked frames over a byte pipe with
        ACK/retry and reconnect-with-resync, and whose completions arrive
        out-of-band, paced at wall-clock speed / ``speedup``.  Scores and
        portal records are identical in both modes (same seeds, same
        sampled durations); ``campaign.transport_stats`` reports the
        delivery counters, latency and retry/resync/CRC accounting.
    speedup:
        Wall-clock compression for ``transport="wire"``: 1000 paces 1000
        simulated seconds per real second; ``1`` is hardware speed.
    completion_timeout_s:
        Real seconds a transport-backed engine waits for one completion
        before failing the run with
        :class:`~repro.wei.drivers.base.CompletionTimeout`.
    chaos:
        Optional seeded :class:`~repro.wei.chaos.ChaosSchedule` injected
        into a ``transport="wire"`` campaign's frames (shared across every
        workcell's transport).  The protocol recovers every injected fault,
        so scores and portal contents still match the sim baseline -- the
        invariant ``python -m repro soak`` asserts across a whole seed
        matrix.  Rejected for ``transport="sim"`` and with an explicit
        ``coordinator``.

    The workcells this function builds are stocked for the whole campaign
    (plates and bulk dye, see :func:`workcell_stock`), since any lane may
    claim every run.  Each run's record streams into the portal the moment
    the run completes (never post-hoc), tagged with the executing workcell
    and lane, so the portal holds every record before this function
    returns.  ``transport="wire"`` gives each workcell's engine its own
    :class:`~repro.wei.drivers.registry.DriverRegistry`, all sharing the
    optional ``chaos`` schedule; their threads are stopped before this
    function returns.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if samples_per_run < 1:
        raise ValueError(f"samples_per_run must be >= 1, got {samples_per_run}")
    if n_ot2 < 1:
        raise ValueError(f"n_ot2 must be >= 1, got {n_ot2}")
    if n_workcells < 1:
        raise ValueError(f"n_workcells must be >= 1, got {n_workcells}")
    if assignment not in ASSIGNMENT_POLICIES:
        raise ValueError(
            f"unknown assignment policy {assignment!r}; expected one of {ASSIGNMENT_POLICIES}"
        )
    if transport not in TRANSPORT_MODES:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORT_MODES}"
        )
    if chaos is not None and transport != "wire":
        raise ValueError(
            f"chaos schedules require transport='wire', got transport={transport!r}"
        )
    if not (speedup > 0.0):
        raise ValueError(f"speedup must be > 0, got {speedup}")
    if coordinator is not None and (transport != "sim" or chaos is not None):
        raise ValueError(
            "transport and chaos cannot be combined with an explicit coordinator; "
            "its engines keep the transports they were built with "
            "(pass engine_factory= to MultiWorkcellCoordinator.build_color_picker_fleet)"
        )
    speed_profiles: Optional[tuple] = None
    if module_speeds is not None:
        if coordinator is not None:
            raise ValueError(
                "module_speeds cannot be combined with an explicit coordinator; "
                "build the fleet with the profiles instead "
                "(MultiWorkcellCoordinator.build_color_picker_fleet(module_speeds=...))"
            )
        speed_profiles = ModuleSpeedProfile.broadcast(module_speeds, n_workcells)
        known = set(paper_calibrated_durations().modules())
        for profile in speed_profiles:
            unknown = sorted(set(profile.speeds) - known)
            if unknown:
                raise ValueError(
                    f"unknown module(s) in module_speeds: {', '.join(unknown)}; "
                    f"expected names from {sorted(known)}"
                )
        if all(profile.is_identity for profile in speed_profiles):
            speed_profiles = None
    portal = portal if portal is not None else DataPortal()
    campaign = CampaignResult(
        experiment_id=experiment_id,
        portal=portal,
        n_ot2=n_ot2,
        n_workcells=n_workcells,
        transport=transport,
    )

    configs = [
        _campaign_config(
            experiment_id=experiment_id,
            run_index=run_index,
            samples_per_run=samples_per_run,
            targets=targets,
            batch_size=batch_size,
            solver=solver,
            measurement=measurement,
            seed=seed,
        )
        for run_index in range(n_runs)
    ]

    # Transport registries own driver worker threads: the stack stops them
    # once the runs are done, or if building the fleet fails part-way.
    transports = ExitStack()

    def build_engine(workcell) -> ConcurrentWorkflowEngine:
        if transport == "sim":
            return ConcurrentWorkflowEngine(workcell)
        registry = DriverRegistry.wire(
            workcell, speedup=speedup, name=f"wire[{workcell.name}]", chaos=chaos
        )
        transports.callback(registry.close)
        return ConcurrentWorkflowEngine(
            workcell, drivers=registry, completion_timeout_s=completion_timeout_s
        )

    def make_program(config: ExperimentConfig, shard: int, lane: tuple):
        ot2, barty = lane
        app = ColorPickerApp(
            config,
            workcell=coordinator.engines[shard].workcell,
            portal=portal,
            ot2=ot2,
            barty=barty,
            staging="ot2",
        )
        return app.program()

    def stream_record(completion: RunCompletion) -> None:
        record = _campaign_record(
            completion.job, completion.result, solver, completion.job_index
        )
        record.metadata["workcell"] = completion.assignment.workcell
        record.metadata["lane"] = list(completion.assignment.lane)
        # Fires on the coordinator's merged loop while the "campaign" span
        # is the innermost open span there, so it auto-parents to it.
        with obs_tracer.span(
            "portal.ingest", run_id=record.run_id, run_index=completion.job_index
        ):
            portal.ingest(record)

    # The "campaign" span roots every trace: run spans recorded by the
    # engines (claim→done windows on any shard) attach to it through the
    # "campaign" binding rather than the thread stack.
    with obs_tracer.span(
        "campaign",
        experiment_id=experiment_id,
        n_runs=n_runs,
        samples_per_run=samples_per_run,
        transport=transport,
        n_workcells=n_workcells,
        n_ot2=n_ot2,
    ) as campaign_span:
        if campaign_span.span is not None:
            obs_tracer.bind("campaign", campaign_span.span.span_id)
        try:
            with transports:
                if coordinator is None:
                    stock = workcell_stock(configs)
                    if n_workcells == 1:
                        # A one-shard campaign keeps the default workcell name and seed.
                        durations = None
                        if speed_profiles is not None:
                            durations = speed_profiles[0].apply(paper_calibrated_durations())
                        workcell = build_color_picker_workcell(
                            seed=seed, n_ot2=n_ot2, durations=durations, **stock
                        )
                        coordinator = MultiWorkcellCoordinator([build_engine(workcell)])
                    else:
                        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
                            n_workcells,
                            seed=seed,
                            n_ot2=n_ot2,
                            engine_factory=build_engine,
                            module_speeds=speed_profiles,
                            **stock,
                        )
                lanes = [
                    engine.workcell.ot2_barty_pairs()[:n_ot2] for engine in coordinator.engines
                ]
                listeners = [coordinator.add_run_listener(stream_record)]
                if on_run_complete is not None:
                    listeners.append(coordinator.add_run_listener(on_run_complete))
                wall_start = time.monotonic()
                try:
                    results = coordinator.run_jobs(
                        configs,
                        make_program,
                        lanes=lanes,
                        assignment=assignment,
                        duration_hint=predict_experiment_duration,
                    )
                finally:
                    wall_elapsed = time.monotonic() - wall_start
                    for listener in listeners:
                        coordinator.remove_run_listener(listener)
            campaign.assignments = list(coordinator.assignments)
            campaign.runs.extend(results)
            campaign.n_workcells = coordinator.n_workcells
            if campaign.n_workcells > 1:
                campaign.workcell_makespans = coordinator.shard_makespans()
            campaign.makespan_s = coordinator.makespan
            campaign.transport_stats = _transport_report(coordinator, wall_elapsed)
            return campaign
        finally:
            campaign_span.set_sim(start=0.0, end=campaign.makespan_s)
            obs_tracer.unbind("campaign")


def _transport_report(
    coordinator: MultiWorkcellCoordinator, wall_elapsed_s: float
) -> TransportReport:
    """Fleet-wide transport counters + delivery-latency summary (empty for sim).

    Besides the completion-bridge view (delivered / rejected / timed out /
    latency), the report sums each engine's wire-level recovery counters
    (:meth:`~repro.wei.concurrent.ConcurrentWorkflowEngine.transport_retry_stats`):
    ``retries``, ``resyncs``, ``crc_errors``, ``duplicates_dropped`` and
    ``completions_retransmitted``.  Each per-engine snapshot is
    taken atomically under that component's own lock; this only sums them.
    """
    latencies: List[float] = []
    delivered = rejected_duplicate = rejected_late = timed_out = 0
    recovery = {
        "retries": 0,
        "resyncs": 0,
        "crc_errors": 0,
        "duplicates_dropped": 0,
        "completions_retransmitted": 0,
    }
    any_transport = False
    for engine in coordinator.engines:
        stats = engine.transport_stats()
        if stats is None:
            continue
        any_transport = True
        delivered += stats.delivered
        rejected_duplicate += stats.rejected_duplicate
        rejected_late += stats.rejected_late
        timed_out += stats.timed_out
        latencies.extend(engine.completion_latencies())
        for key, value in engine.transport_retry_stats().to_dict().items():
            recovery[key] += value
    if not any_transport:
        return TransportReport()
    return TransportReport(
        delivered=delivered,
        rejected_duplicate=rejected_duplicate,
        rejected_late=rejected_late,
        timed_out=timed_out,
        wall_elapsed_s=wall_elapsed_s,
        mean_delivery_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
        max_delivery_latency_s=max(latencies, default=0.0),
        present=True,
        **recovery,
    )
