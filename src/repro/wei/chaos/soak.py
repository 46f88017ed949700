"""The deterministic soak harness: chaos campaigns vs the sim baseline.

The paper's claim -- identical science under concurrent, hardware-paced
fleet execution -- is only credible if it survives a lossy wire and
adversarial fault interleavings.  :func:`run_soak` is the proof machine: it
runs one multi-workcell campaign in pure simulation to establish the
baseline fingerprint, then replays the *same* campaign over the framed wire
protocol once per chaos seed, each time under a fresh
:class:`~repro.wei.chaos.ChaosSchedule`, and asserts the soak invariant:

    Chaos may change wall time and retry counts.  It may never change
    scores, run counts, or portal contents.

A fingerprint (:func:`campaign_fingerprint`) covers exactly the science: the
set of run indexes, every sample's well / volumes / measured RGB / score,
and each run's simulated timings.  Wall-clock fields, retry counters and
workcell/lane placement metadata are deliberately excluded -- those are the
things chaos is *allowed* to move.

Every case's verdict, transport recovery counters and injected-fault log
are collected into a :class:`SoakReport`; :meth:`SoakReport.write_logs`
dumps them as JSON (one file per seed plus a summary), which is what the CI
soak job uploads as artifacts when a seed breaks the invariant.  Because
chaos decisions are keyed by frame identity, re-running ``python -m repro
soak --seeds <the failing seed>`` replays the exact fault schedule.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.campaign import CampaignResult, run_campaign
from repro.obs import recorder as obs_recorder
from repro.publish.portal import DataPortal
from repro.wei.chaos.schedule import ChaosSchedule

__all__ = [
    "DEFAULT_SEED_MATRIX",
    "campaign_fingerprint",
    "SoakCase",
    "SoakReport",
    "run_soak",
]

#: The default chaos-seed matrix (CI runs exactly these).  Three seeds keep
#: the non-blocking soak job fast; a nightly or local run can pass a wider
#: matrix through ``python -m repro soak --seeds ...``.
DEFAULT_SEED_MATRIX = (101, 202, 303)

#: How many of a seed's most recent injected faults its case keeps.
_KEEP_EVENTS = 200


def _round9(values: List[float]) -> List[float]:
    """``[round(v, 9) for v in values]``, vectorised but bit-identical.

    ``np.round`` scales by ``1e9``, rints and divides back, which
    double-rounds: for a value whose scaled form lands within a few ulps of
    a ``k + 0.5`` boundary it can pick the other side than Python's
    correctly-rounded ``round``.  Those boundary cases are detectable from
    the scaled value alone, so this routine rounds everything with numpy and
    re-rounds only the risky elements (empirically ~1 in 10^4) with the
    builtin.  Non-finite values always take the builtin path, preserving its
    exact semantics (``round(inf, 9)`` is ``inf``, NaN stays NaN).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return []
    scaled = arr * 1e9
    with np.errstate(invalid="ignore"):  # inf/NaN land in the unsafe set
        frac = np.abs(scaled - np.floor(scaled) - 0.5)
        # A wrong rint can only happen within ~1 ulp of the half-way point; 8
        # ulps (plus a floor for tiny values) is a comfortably conservative band.
        tol = np.spacing(np.abs(scaled)) * 8.0 + 1e-9
        safe = (frac > tol) & np.isfinite(scaled)
    out = np.round(arr, 9)
    if not safe.all():
        for index in np.flatnonzero(~safe):
            out[index] = round(float(arr[index]), 9)
    return out.tolist()


def campaign_fingerprint(campaign: CampaignResult) -> Dict[str, Any]:
    """The science-only fingerprint of a campaign, keyed by run index.

    Everything in here must be bit-identical between the sim baseline and
    any chaos-injected wire campaign with the same campaign seed; anything
    chaos may legitimately change (wall time, retries, placement metadata)
    is excluded.  Portal records are the source, so the fingerprint also
    proves the streamed portal contents -- not just the in-memory results --
    survived the chaos.

    Rounding used to be the hot spot (eight ``round`` calls per sample, and
    a 10k-run campaign has ~10^5 samples), so the builder makes two passes:
    one flattening every value to round into a single buffer for
    :func:`_round9`, one rebuilding the per-run dicts by slicing the rounded
    stream back out.  The output is bit-identical to the obvious
    one-pass/``round`` formulation.
    """
    records = campaign.portal.search(experiment_id=campaign.experiment_id)
    # Pass 1: flatten volumes, rgb and score of every sample into one buffer.
    flat: List[float] = []
    extend = flat.extend
    for record in records:
        for sample in record.samples:
            extend(sample.volumes_ul.values())
            extend(sample.measured_rgb)
            flat.append(sample.score)
    best_at = len(flat)
    extend(run.best_score for run in campaign.runs)
    rounded = _round9(flat)
    # Pass 2: rebuild the nested structure by slicing the rounded stream.
    runs: Dict[str, Any] = {}
    pos = 0
    for record in records:
        samples = []
        for sample in record.samples:
            names = sample.volumes_ul
            n_vol = len(names)
            n_rgb = len(sample.measured_rgb)
            end = pos + n_vol + n_rgb
            samples.append(
                [
                    sample.sample_index,
                    sample.well,
                    dict(zip(names, rounded[pos : pos + n_vol])),
                    rounded[pos + n_vol : end],
                    rounded[end],
                ]
            )
            pos = end + 1
        runs[str(record.run_index)] = {
            "run_id": record.run_id,
            "target_rgb": list(record.target_rgb),
            "solver": record.solver,
            "samples": samples,
        }
    return {
        "experiment_runs": campaign.n_runs,
        "total_samples": campaign.total_samples,
        "portal_run_count": len(records),
        "best_scores": rounded[best_at:],
        "runs": runs,
    }


def _diff_fingerprints(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[str]:
    """Human-readable mismatches between two fingerprints (empty = identical)."""
    mismatches: List[str] = []
    if baseline == candidate:
        # The soak invariant holding is the overwhelmingly common case, and
        # dict equality is one C-level deep compare -- skip the per-run walk.
        return mismatches
    for key in ("experiment_runs", "total_samples", "portal_run_count", "best_scores"):
        if baseline[key] != candidate[key]:
            mismatches.append(f"{key}: baseline {baseline[key]!r} != chaos {candidate[key]!r}")
    baseline_runs, candidate_runs = baseline["runs"], candidate["runs"]
    if baseline_runs == candidate_runs:
        return mismatches
    # One sorted merge pass over the union of run keys classifies every run
    # as missing / extra / differing (the old three-set version built and
    # sorted three intermediate sets).
    missing: List[str] = []
    extra: List[str] = []
    differing: List[str] = []
    sentinel = object()
    for run_index in sorted(set(baseline_runs) | set(candidate_runs), key=int):
        base_run = baseline_runs.get(run_index, sentinel)
        cand_run = candidate_runs.get(run_index, sentinel)
        if cand_run is sentinel:
            missing.append(run_index)
        elif base_run is sentinel:
            extra.append(run_index)
        elif base_run != cand_run:
            differing.append(run_index)
    if missing:
        mismatches.append(f"portal lost runs: {missing}")
    if extra:
        mismatches.append(f"portal grew runs: {extra}")
    for run_index in differing:
        mismatches.append(f"run {run_index}: record contents differ")
    return mismatches


@dataclass
class SoakCase:
    """One chaos seed's verdict against the sim baseline."""

    chaos_seed: int
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    makespan_s: float = 0.0
    #: The campaign's transport report: delivered/latency plus the recovery
    #: counters (retries, resyncs, crc_errors, ...).
    transport_stats: Dict[str, Any] = field(default_factory=dict)
    #: The chaos schedule's configuration and injected-fault totals.
    chaos: Dict[str, Any] = field(default_factory=dict)
    #: Tail of the injected-fault log (what exactly was done to the wire).
    chaos_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Fingerprint of the chaos campaign -- only retained on mismatch, where
    #: it is the debugging artefact.
    fingerprint: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (per-seed soak log)."""
        return {
            "chaos_seed": self.chaos_seed,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "wall_s": self.wall_s,
            "makespan_s": self.makespan_s,
            "transport_stats": self.transport_stats,
            "chaos": self.chaos,
            "chaos_events": self.chaos_events,
            "fingerprint": self.fingerprint,
            "error": self.error,
        }


@dataclass
class SoakReport:
    """The whole soak run: baseline fingerprint + one :class:`SoakCase` per seed."""

    baseline: Dict[str, Any]
    baseline_makespan_s: float
    cases: List[SoakCase] = field(default_factory=list)
    config: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every seed upheld the soak invariant."""
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> List[SoakCase]:
        """The cases that broke the invariant (or errored), if any."""
        return [case for case in self.cases if not case.ok]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (baseline fingerprint elided to its shape)."""
        return {
            "ok": self.ok,
            "config": self.config,
            "baseline_makespan_s": self.baseline_makespan_s,
            "baseline_runs": self.baseline["portal_run_count"],
            "baseline_samples": self.baseline["total_samples"],
            "cases": [case.to_dict() for case in self.cases],
        }

    def write_logs(self, directory: str) -> List[str]:
        """Dump the frame/event logs: one JSON per seed plus ``summary.json``.

        Returns the written paths.  This is the artefact set the CI soak job
        uploads on failure -- enough to replay and diagnose a broken seed
        without re-running anything else.
        """
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        written: List[str] = []
        for case in self.cases:
            path = root / f"soak-seed-{case.chaos_seed}.json"
            path.write_text(json.dumps(case.to_dict(), indent=2, sort_keys=True))
            written.append(str(path))
        summary = root / "summary.json"
        payload = self.to_dict()
        payload["baseline_fingerprint"] = self.baseline
        summary.write_text(json.dumps(payload, indent=2, sort_keys=True))
        written.append(str(summary))
        return written


def run_soak(
    *,
    n_runs: int = 3,
    samples_per_run: int = 4,
    batch_size: int = 2,
    n_workcells: int = 2,
    n_ot2: int = 1,
    campaign_seed: int = 816,
    seeds: Sequence[int] = DEFAULT_SEED_MATRIX,
    speedup: float = 500_000.0,
    on_case: Optional[Callable[[SoakCase], None]] = None,
    flight_dir: Optional[str] = None,
) -> SoakReport:
    """Run the chaos soak matrix and report the invariant's verdict per seed.

    One sim-transport baseline campaign of the default evolutionary solver
    is fingerprinted, then the same campaign (same ``campaign_seed``,
    shards, lanes and assignment policy) is executed over the framed wire
    protocol once per entry of ``seeds``, each under the default-rate
    ``ChaosSchedule(seed)``.  ``on_case`` fires after each seed's verdict
    (the CLI uses it for live progress).

    A mismatching or crashing seed never aborts the matrix: its case is
    recorded as failed (with the mismatch list or the exception) and the
    remaining seeds still run, so one bad seed yields a complete report.

    When a :class:`~repro.obs.recorder.FlightRecorder` is installed, any
    seed that breaks the invariant (or crashes) also dumps the recorder's
    ring of recent spans/events -- into ``flight_dir`` when given, else
    wherever ``REPRO_OBS_FLIGHT_DIR`` points.
    """
    config = {
        "n_runs": n_runs,
        "samples_per_run": samples_per_run,
        "batch_size": batch_size,
        "n_workcells": n_workcells,
        "n_ot2": n_ot2,
        "campaign_seed": campaign_seed,
        "seeds": list(seeds),
        "speedup": speedup,
    }
    shared: Dict[str, Any] = dict(
        n_runs=n_runs,
        samples_per_run=samples_per_run,
        batch_size=batch_size,
        seed=campaign_seed,
        n_workcells=n_workcells,
        n_ot2=n_ot2,
    )
    # Baseline and every chaos case share one experiment id (each campaign
    # writes to its own portal, so there is no collision): run ids and every
    # other portal field must then match *verbatim*, not just structurally.
    baseline_campaign = run_campaign(
        experiment_id="soak", portal=DataPortal(), **shared
    )
    baseline = campaign_fingerprint(baseline_campaign)
    report = SoakReport(
        baseline=baseline,
        baseline_makespan_s=baseline_campaign.makespan_s,
        config=config,
    )
    for chaos_seed in seeds:
        report.cases.append(
            _run_case(
                chaos_seed,
                baseline,
                shared,
                speedup=speedup,
                flight_dir=flight_dir,
            )
        )
        if on_case is not None:
            on_case(report.cases[-1])
    return report


def _run_case(
    chaos_seed: int,
    baseline: Dict[str, Any],
    shared: Dict[str, Any],
    *,
    speedup: float,
    flight_dir: Optional[str] = None,
) -> SoakCase:
    """Execute one chaos seed's campaign and judge it against the baseline."""
    chaos = ChaosSchedule(chaos_seed)
    wall_start = time.monotonic()
    try:
        campaign = run_campaign(
            experiment_id="soak",
            portal=DataPortal(),
            transport="wire",
            speedup=speedup,
            chaos=chaos,
            **shared,
        )
    except Exception as exc:  # a crash is a failed case, not a failed matrix
        obs_recorder.flight_dump(
            "soak-campaign-error",
            directory=flight_dir,
            chaos_seed=chaos_seed,
            error=f"{type(exc).__name__}: {exc}",
        )
        return SoakCase(
            chaos_seed=chaos_seed,
            ok=False,
            mismatches=[f"campaign raised {type(exc).__name__}: {exc}"],
            wall_s=time.monotonic() - wall_start,
            chaos=chaos.describe(),
            chaos_events=chaos.events[-_KEEP_EVENTS:],
            error=f"{type(exc).__name__}: {exc}",
        )
    fingerprint = campaign_fingerprint(campaign)
    mismatches = _diff_fingerprints(baseline, fingerprint)
    ok = not mismatches
    if not ok:
        obs_recorder.flight_dump(
            "soak-invariant-break",
            directory=flight_dir,
            chaos_seed=chaos_seed,
            mismatches=mismatches[:20],
        )
    return SoakCase(
        chaos_seed=chaos_seed,
        ok=ok,
        mismatches=mismatches,
        wall_s=time.monotonic() - wall_start,
        makespan_s=campaign.makespan_s,
        transport_stats=campaign.transport_stats.to_dict(),
        chaos=chaos.describe(),
        chaos_events=chaos.events[-_KEEP_EVENTS:],
        fingerprint=None if ok else fingerprint,
    )
