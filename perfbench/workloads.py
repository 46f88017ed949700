"""The benchmark's workloads: inputs from a seed, one timed repetition, checks.

Every workload is a closed loop driven by one client (this process): a
repetition starts only after the previous one has finished and been checked.
A repetition is built from the seed alone, so every repetition of one run
sees the same inputs and must produce the same fingerprint.

Sizing (an 8 GB, 2-core host): a coordinated campaign keeps every
480x640x3 float64 camera frame it renders (~7.4 MB, one per batch) alive in
the engines' run logs until the campaign is dropped -- a defect in ``src/``
left for a later change -- so the fleet campaigns stay under ~100 samples a
repetition and peak near 0.5 GB (``fleet_direct``) and 0.35 GB
(``wire_chaos``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench.hostspeed import HostSpeed, Window
from repro.core.campaign import run_campaign
from repro.publish.portal import DataPortal, PortalBackend
from repro.publish.records import RunRecord, SampleRecord
from repro.publish.store import DurableDataPortal
from repro.wei.chaos import ChaosSchedule
from repro.wei.chaos.soak import campaign_fingerprint
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import MultiWorkcellCoordinator
from repro.wei.drivers.registry import DriverRegistry

__all__ = ["WORKLOADS", "CampaignWorkload", "PortalWorkload", "RepResult", "digest", "publish_and_read"]


def digest(value: Any) -> str:
    """Short stable hash of a JSON-serialisable value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RepResult:
    """What one repetition measured and whether its outputs were right."""

    #: Host seconds of the workload call(s) this repetition timed.
    wall_s: float
    #: Operations attempted and failed (runs for campaigns; ingests and
    #: queries for the portal).  A failed output check counts as a failure.
    attempted: int
    failed: int
    #: Output checks that did not hold, in words.
    problems: List[str] = field(default_factory=list)
    #: Science fingerprint; identical across one run's repetitions.
    fingerprint: str = ""
    #: Raw end-to-end values of this repetition (metric name -> value).
    values: Dict[str, float] = field(default_factory=dict)
    #: Reference-host seconds of each lap of the timed window
    #: (:class:`perfbench.hostspeed.Window`); empty if the window failed.
    laps_s: List[float] = field(default_factory=list)
    #: Per-query latencies in seconds (portal workload only).
    query_s: List[float] = field(default_factory=list)
    #: Counters read off public results (transport stats, latencies, bytes).
    counters: Dict[str, Any] = field(default_factory=dict)


#: Wall-clock compression of the wire transport: high enough that the
#: device's pacing sleeps vanish and only the protocol's waits remain.
WIRE_SPEEDUP = 1e6
#: Seed of the chaos schedule every wire transport runs under.  The adversary
#: is part of the workload, not drawn from the run's seed: on a 2-core host a
#: seed-drawn schedule moved a 16-run campaign's wall by +-15% across seeds (a
#: few long backoff chains), a fixed one by +-2%.
CHAOS_SEED = 101


@dataclass
class CampaignWorkload:
    """A ``run_campaign`` call over a fleet built from the seed."""

    name: str
    why: str
    n_runs: int
    samples_per_run: int
    batch_size: int
    solver: str = "evolutionary"
    measurement: str = "direct"
    #: 0 runs the sequential campaign (one workcell built per run inside
    #: ``run_campaign``); otherwise the benchmark builds a coordinator.
    n_workcells: int = 0
    #: ``"wire"`` binds every shard to the framed wire protocol under the
    #: chaos schedule :data:`CHAOS_SEED`; ``"sim"`` completes actions inline.
    transport: str = "sim"

    def prepare(self, seed: int) -> Dict[str, Any]:
        """Inputs of every repetition: the seed is all a campaign needs."""
        return {"seed": seed}

    def build(self, inputs: Dict[str, Any]) -> "_Fleet":
        """The fleet one repetition runs on (call :meth:`_Fleet.close` after)."""
        seed = inputs["seed"]
        fleet = _Fleet()
        if self.n_workcells == 0:
            return fleet
        factory = ConcurrentWorkflowEngine
        if self.transport == "wire":

            def factory(workcell):
                registry = DriverRegistry.wire(
                    workcell,
                    speedup=WIRE_SPEEDUP,
                    name=f"wire[{workcell.name}]",
                    chaos=ChaosSchedule(CHAOS_SEED),
                )
                fleet.registries.append(registry)
                return ConcurrentWorkflowEngine(workcell, drivers=registry, completion_timeout_s=60.0)

        try:
            fleet.coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
                self.n_workcells,
                seed=seed,
                engine_factory=factory,
                # Every run takes at least one plate and any shard may
                # steal every run, so each tower holds one per run; dye
                # stock is never the limiting resource.
                plates_per_tower=max(20, self.n_runs),
                bulk_capacity_ul=1e9,
            )
        except BaseException:
            fleet.close()
            raise
        return fleet

    def run(self, inputs: Dict[str, Any], recorder: Any = None, speed: Optional[HostSpeed] = None) -> RepResult:
        """One timed ``run_campaign`` call and its output checks.

        With a measuring ``speed`` the rates are corrected to the reference
        host (:mod:`perfbench.hostspeed`).
        """
        speed = speed or HostSpeed(measure=False)
        fleet = self.build(inputs)
        try:
            portal = DataPortal()
            root = recorder.root() if recorder is not None else nullcontext()
            try:
                with speed.window() as timed, root:
                    campaign = run_campaign(
                        self.n_runs,
                        self.samples_per_run,
                        experiment_id=f"bench-{self.name}",
                        batch_size=self.batch_size,
                        solver=self.solver,
                        measurement=self.measurement,
                        seed=inputs["seed"],
                        portal=portal,
                        coordinator=fleet.coordinator,
                    )
            except Exception as exc:  # a failed repetition is reported, not fatal
                return RepResult(
                    wall_s=timed.wall_s,
                    attempted=self.n_runs,
                    failed=self.n_runs,
                    problems=[f"run_campaign raised {type(exc).__name__}: {exc}"],
                )
            latencies = [
                latency
                for engine in (fleet.coordinator.engines if fleet.coordinator else [])
                for latency in engine.completion_latencies()
            ]
        finally:
            fleet.close()
        result = self._check(campaign, portal, timed)
        result.counters["latencies_s"] = latencies
        return result

    def _check(self, campaign, portal: DataPortal, timed: Window) -> RepResult:
        problems: List[str] = []
        failed_runs = self.n_runs - len(campaign.runs)
        if failed_runs:
            problems.append(f"{len(campaign.runs)} of {self.n_runs} runs returned")
        scored = 0
        for run in campaign.runs:
            scores = [sample.score for sample in run.samples]
            finite = sum(1 for score in scores if math.isfinite(score))
            scored += finite
            if len(scores) != self.samples_per_run or finite != len(scores):
                failed_runs += 1
                problems.append(
                    f"{run.config.run_id}: {finite} finite scores of "
                    f"{self.samples_per_run} requested samples"
                )
        if portal.n_runs != self.n_runs:
            failed_runs += 1
            problems.append(f"portal holds {portal.n_runs} records, expected {self.n_runs}")
        stats = campaign.transport_stats
        return RepResult(
            wall_s=timed.wall_s,
            attempted=self.n_runs,
            failed=min(self.n_runs, failed_runs),
            problems=problems,
            fingerprint=digest(campaign_fingerprint(campaign)),
            values={
                "samples": scored,
                "rows": portal.n_runs,
                "samples_per_s": scored / timed.corrected_s,
                "host_samples_per_s": scored / timed.wall_s,
                "slowdown": timed.slowdown,
                "makespan_h": campaign.makespan_s / 3600.0,
            },
            laps_s=timed.laps_s,
            counters={
                "retries": stats.retries,
                "resyncs": stats.resyncs,
                "crc_errors": stats.crc_errors,
                "delivered": stats.delivered,
                "samples": campaign.total_samples,
            },
        )


@dataclass
class _Fleet:
    """A repetition's coordinator and the transports it must close."""

    coordinator: Optional[MultiWorkcellCoordinator] = None
    registries: List[DriverRegistry] = field(default_factory=list)

    def close(self) -> None:
        """Stop every transport's threads (waits for them to end)."""
        while self.registries:
            self.registries.pop().close()


@dataclass
class Publication:
    """What :func:`publish_and_read` measured."""

    ingest: Window
    reopen_s: float
    wall_s: float
    query_s: List[float]
    answers: List[Any]
    n_stored: int
    bytes_written: int
    problems: List[str]


def _query(portal: PortalBackend, kind: str, args: Dict[str, Any], times: List[float]) -> Any:
    """Run one read of a mix, timing every portal call on its own.

    ``walk`` pages through a whole ``search_page`` result (one timed call
    per page).  Make answers comparable with :func:`_plain`.
    """
    if kind == "walk":
        pages, cursor = [], None
        while True:
            start = time.perf_counter()
            page = portal.search_page(cursor=cursor, **args)
            times.append(time.perf_counter() - start)
            pages.append(page.records)
            cursor = page.next_cursor
            if cursor is None:
                return pages
    start = time.perf_counter()
    if kind == "search":
        result = portal.search(**args)
    elif kind == "summary_view":
        result = portal.summary_view(args["experiment_id"])
    else:
        result = portal.detail_view(args["run_id"])
    times.append(time.perf_counter() - start)
    return result


def _plain(kind: str, answer: Any) -> Any:
    """An answer of :func:`_query` in a form two backends' answers compare in.

    Records stay records (dataclass equality compares every field); a
    ``walk`` becomes the run ids of its pages.
    """
    if answer is None:  # the read failed
        return None
    if kind == "walk":
        return [[record.run_id for record in page] for page in answer]
    return answer


def _answers_digest(queries: List[tuple], answers: List[Any]) -> str:
    """Fingerprint of a read mix's answers (records by run id)."""
    return digest(
        [
            [record.run_id for record in answer] if kind == "search" and answer else answer
            for (kind, _), answer in zip(queries, answers)
        ]
    )


#: Records per lap of the timed ingest: the host's speed is read between
#: laps, with the append kernel (:mod:`perfbench.hostspeed`).
LAP_RECORDS = 150


def publish_and_read(
    records: List[RunRecord],
    queries: List[tuple],
    recorder: Any = None,
    speed: Optional[HostSpeed] = None,
) -> Publication:
    """Ingest ``records`` into a fresh durable portal, reopen it, run ``queries``.

    The store lives in a temporary directory beside this file (inside the
    checkout) and is removed before returning.  The ingest window runs from
    opening the new store to closing it, under ``speed``, in laps of
    :data:`LAP_RECORDS` records; the publication's wall adds the reopen and
    the reads (not ``speed``'s reference kernel).  With a ``recorder`` the
    publication is its root span.
    """
    directory = Path(tempfile.mkdtemp(prefix="_work-", dir=Path(__file__).resolve().parent))
    speed = speed or HostSpeed(measure=False)
    span = recorder.span if recorder is not None else _no_span
    problems: List[str] = []
    times: List[float] = []
    answers: List[Any] = []
    try:
        with recorder.root() if recorder is not None else nullcontext():
            with speed.window(repeats=1, append_to=directory / "host-speed.jsonl") as ingest:
                with span("publish.open", "publish"):
                    store = DurableDataPortal(directory / "store")
                try:
                    for index, record in enumerate(records, start=1):
                        try:
                            store.ingest(record)
                        except Exception as exc:  # a failed ingest is counted, not fatal
                            problems.append(f"ingest {record.run_id}: {type(exc).__name__}: {exc}")
                        if index % LAP_RECORDS == 0:
                            ingest.lap()
                finally:
                    with span("publish.close", "publish"):
                        store.close()
            start = time.perf_counter()
            with span("publish.reopen", "publish"):
                store = DurableDataPortal(directory / "store")
            reopen_s = time.perf_counter() - start
            try:
                for kind, args in queries:
                    try:
                        answers.append(_query(store, kind, args, times))
                    except Exception as exc:  # a failed query is counted, not fatal
                        answers.append(None)
                        problems.append(f"{kind} {args}: {type(exc).__name__}: {exc}")
                n_stored = store.n_runs
            finally:
                with span("publish.close", "publish"):
                    store.close()
            wall = ingest.wall_s + time.perf_counter() - start
        bytes_written = sum(path.stat().st_size for path in (directory / "store").glob("*.jsonl"))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    answers = [_plain(kind, answer) for (kind, _), answer in zip(queries, answers)]
    return Publication(ingest, reopen_s, wall, times, answers, n_stored, bytes_written, problems)


def _no_span(name: str, layer: str) -> nullcontext:
    return nullcontext()


_SOLVERS = ("evolutionary", "bayesian", "random", "sobol")
_DYES = ("cyan", "magenta", "yellow", "black")
#: Shape of the generated history: experiments, and samples per run record.
_N_EXPERIMENTS = 8
_MAX_SAMPLES = 12


@dataclass
class PortalWorkload:
    """One client ingesting run records into a durable portal, then reading.

    The read mix is fixed by the seed: per experiment a ``search``, a
    ``summary_view`` and a full ``search_page`` walk; filtered searches by
    solver and score; and ``detail_view`` of sampled runs.
    """

    name: str
    why: str
    n_records: int = 1500
    page_limit: int = 50
    n_details: int = 24

    def prepare(self, seed: int) -> Dict[str, Any]:
        """Generate the records and the read mix from ``seed``."""
        rng = np.random.default_rng(seed)
        records = []
        for index in range(self.n_records):
            experiment = int(rng.integers(_N_EXPERIMENTS))
            n_samples = int(rng.integers(1, _MAX_SAMPLES + 1))
            volumes = rng.uniform(0.0, 90.0, size=(n_samples, len(_DYES)))
            rgb = rng.uniform(0.0, 255.0, size=(n_samples, 3))
            scores = rng.uniform(0.0, 120.0, size=n_samples)
            solver = _SOLVERS[int(rng.integers(len(_SOLVERS)))]
            records.append(
                RunRecord(
                    experiment_id=f"exp-{experiment:02d}",
                    run_id=f"exp-{experiment:02d}-run{index:05d}",
                    run_index=index,
                    target_rgb=rng.uniform(0.0, 255.0, size=3).tolist(),
                    solver=solver,
                    metadata={"seed": int(seed) + index, "workcell": index % 4},
                    timings={"elapsed_s": float(rng.uniform(600.0, 4000.0))},
                    samples=[
                        SampleRecord(
                            sample_index=sample,
                            well=f"{'ABCDEFGH'[sample % 8]}{sample // 8 + 1}",
                            plate_barcode=f"plate-{index:05d}",
                            volumes_ul=dict(zip(_DYES, volumes[sample].tolist())),
                            measured_rgb=rgb[sample].tolist(),
                            score=float(scores[sample]),
                            proposed_by=solver,
                            timestamp=float(sample),
                        )
                        for sample in range(n_samples)
                    ],
                )
            )
        experiments = sorted({record.experiment_id for record in records})
        queries: List[tuple] = []
        for experiment in experiments:
            queries.append(("search", {"experiment_id": experiment}))
            queries.append(("summary_view", {"experiment_id": experiment}))
            queries.append(("walk", {"experiment_id": experiment, "limit": self.page_limit}))
        for solver in _SOLVERS:
            queries.append(("search", {"solver": solver, "max_best_score": 20.0}))
        queries.append(("search", {"metadata": {"workcell": 1}, "max_best_score": 10.0}))
        for position in rng.choice(len(records), size=self.n_details, replace=False):
            queries.append(("detail_view", {"run_id": records[int(position)].run_id}))
        order = rng.permutation(len(queries))
        return {"records": records, "queries": [queries[int(i)] for i in order], "expected": None}

    def build(self, inputs: Dict[str, Any]) -> _Fleet:
        """Nothing to build: the store is created inside the timed ingest."""
        return _Fleet()

    def run(self, inputs: Dict[str, Any], recorder: Any = None, speed: Optional[HostSpeed] = None) -> RepResult:
        """Ingest every record, reopen the store, run the read mix, check.

        With a measuring ``speed`` the ingest rates are corrected to the
        reference host (:mod:`perfbench.hostspeed`).
        """
        records, queries = inputs["records"], inputs["queries"]
        publication = publish_and_read(records, queries, recorder, speed)
        ingest = publication.ingest
        if inputs["expected"] is None:
            # The same read mix answered by an in-memory portal fed the
            # same records (computed once, after the first repetition).
            reference = DataPortal()
            for record in records:
                reference.ingest(record)
            inputs["expected"] = [
                _plain(kind, _query(reference, kind, args, [])) for kind, args in queries
            ]
        problems = list(publication.problems)
        failed = len(problems)
        if publication.n_stored != len(records):
            failed += 1
            problems.append(f"reopened portal holds {publication.n_stored} records, expected {len(records)}")
        for (kind, args), answer, want in zip(queries, publication.answers, inputs["expected"]):
            if answer is not None and answer != want:  # a failed read is already a problem
                failed += 1
                problems.append(f"{kind} {args}: answer differs from the in-memory portal")
        # The simulated lab hours the history covers, read back through the
        # per-experiment searches (every record sits in exactly one).
        history_s = sum(
            record.timings["elapsed_s"]
            for (kind, args), answer in zip(queries, publication.answers)
            if kind == "search" and set(args) == {"experiment_id"} and answer
            for record in answer
        )
        attempted = len(records) + len(queries)
        n_samples = sum(len(record.samples) for record in records)
        return RepResult(
            wall_s=publication.wall_s,
            attempted=attempted,
            failed=min(failed, attempted),
            problems=problems,
            fingerprint=_answers_digest(queries, publication.answers),
            values={
                "samples": n_samples,
                "rows": len(records),
                "samples_per_s": n_samples / ingest.corrected_s,
                "host_samples_per_s": n_samples / ingest.wall_s,
                "slowdown": ingest.slowdown,
                "makespan_h": history_s / 3600.0,
                "reopen_s": publication.reopen_s,
            },
            laps_s=ingest.laps_s,
            query_s=publication.query_s,
            counters={"bytes_written": publication.bytes_written},
        )


WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        CampaignWorkload(
            name="fleet_direct",
            why=(
                "4-workcell stealing fleet, direct mode: ~94% of host time renders frames it "
                "discards; loads vision.render, wei (rows: render, wei/sim, retention); 24x4 "
                "samples: ~0.5 GB as src keeps frames"
            ),
            n_runs=24,
            samples_per_run=4,
            batch_size=2,
            n_workcells=4,
        ),
        CampaignWorkload(
            name="vision_bo",
            why=(
                "the paper pipeline: sequential Bayesian campaign with vision measurement; loads "
                "vision.extract, vision.render, solvers (rows: extract, solvers; render predicted "
                "flat); 3x12 samples, ~0.16 GB"
            ),
            n_runs=3,
            samples_per_run=12,
            batch_size=3,
            solver="bayesian",
            measurement="vision",
        ),
        CampaignWorkload(
            name="wire_chaos",
            why=(
                "2-workcell campaign over the wire protocol under fixed chaos schedule 101: the "
                "engine blocks in ACK retries and completion waits; loads wei.drivers (rows: "
                "drivers); 16x4 samples, ~0.35 GB"
            ),
            n_runs=16,
            samples_per_run=4,
            batch_size=2,
            n_workcells=2,
            transport="wire",
        ),
        PortalWorkload(
            name="portal_history",
            why=(
                "publish is ~0% of every campaign: ingest 1500 generated records into a durable "
                "portal, reopen it, run a fixed read mix; loads publish (rows: publish ingest, "
                "query, reopen)"
            ),
        ),
    )
}
