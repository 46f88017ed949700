"""The pinned bench scenario matrix, one function per area.

Each area function runs a fixed, seeded scenario and returns an
:class:`AreaResult` with

* ``metrics`` -- the headline numbers (throughputs, makespans) the perf
  trajectory tracks across commits via ``--compare``,
* ``hot_paths`` -- in-process baseline-vs-optimised timings, where the
  baseline is the frozen pre-optimisation implementation from
  :mod:`repro.bench.reference` run in the *same* process (so the recorded
  speedup never depends on another machine's committed numbers), and
* ``science`` -- digests proving the optimised paths produce bit-identical
  results (the point of a perf pass over a reproduction is that the numbers
  move and the science does not).

Scenario sizes are part of the persisted ``config``: ``--compare`` refuses
to diff two files whose configs differ, so changing a size here starts a
fresh trajectory instead of silently polluting the old one.  Tests shrink
the scenarios through the ``scale`` knob rather than their own configs for
the same reason.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.bench import reference
from repro.utils.rng import ensure_rng

__all__ = ["AreaResult", "AREA_ORDER", "run_area"]

#: Canonical area order (also the order ``python -m repro bench`` runs them).
AREA_ORDER = ("events", "codec", "campaign", "portal", "vision", "obs")


@dataclass
class AreaResult:
    """Everything one area's scenario measured."""

    area: str
    config: Dict[str, Any]
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    hot_paths: List[Dict[str, Any]] = field(default_factory=list)
    science: Dict[str, str] = field(default_factory=dict)


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum elapsed seconds of ``fn`` over ``repeats`` runs.

    Min, not mean: scheduler noise on a shared machine only ever adds time,
    so the minimum is the most stable estimator of the true cost (and the
    one that makes baseline/optimised ratios reproducible run-to-run).
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _hot_path(
    name: str,
    baseline: Callable[[], Any],
    optimised: Callable[[], Any],
    repeats: int,
    unit: str = "s/op",
) -> Dict[str, Any]:
    """Interleaved baseline/optimised timing for one hot path.

    Alternating the two keeps a machine-load drift from landing entirely on
    one side of the ratio.
    """
    base_best = float("inf")
    opt_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        baseline()
        base_best = min(base_best, time.perf_counter() - start)
        start = time.perf_counter()
        optimised()
        opt_best = min(opt_best, time.perf_counter() - start)
    return {
        "name": name,
        "baseline_s": base_best,
        "optimised_s": opt_best,
        "speedup": base_best / opt_best if opt_best > 0 else float("inf"),
        "unit": unit,
    }


def _digest(value: Any) -> str:
    """Stable sha256 of a JSON-serialisable value."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _rate(name: str, count: float, seconds: float, unit: str, direction: str = "higher") -> Tuple[str, Dict[str, Any]]:
    return name, {"value": count / seconds if seconds > 0 else float("inf"), "unit": unit, "direction": direction}


# ---------------------------------------------------------------------------
# events: engine event throughput at n_workcells in {1, 4, 16}
# ---------------------------------------------------------------------------


def _bench_events(repeats: int, scale: float) -> AreaResult:
    from repro.sim.events import EventScheduler

    n_events = max(int(60_000 * scale), 500)
    merge_events = max(int(48_000 * scale), 480)
    config = {
        "n_events": n_events,
        "merge_events": merge_events,
        "cancel_every": 3,
        "step_every": 7,
        "n_workcells": [1, 4, 16],
    }
    result = AreaResult(area="events", config=config)

    def churn(make_scheduler: Callable[[], Any]) -> None:
        # The coordinator's traffic shape: schedule ahead, cancel a third
        # (timeouts/retries), interleave stepping with scheduling.
        sched = make_scheduler()
        sink = []
        callback = sink.append
        for index in range(n_events):
            event = sched.schedule_after(
                (index % 97) * 0.25 + 0.01, lambda: callback(None), label="churn"
            )
            if index % config["cancel_every"] == 0:
                event.cancel()
            if index % config["step_every"] == 0:
                sched.step()
        while sched.step() is not None:
            pass

    def merged_throughput(n_workcells: int) -> float:
        # The fleet merge loop: always step the shard with the earliest
        # next event (exactly what MultiWorkcellCoordinator._run_merged does).
        shards = [EventScheduler() for _ in range(n_workcells)]
        per_shard = merge_events // n_workcells

        def reschedule(sched, remaining):
            if remaining[0] > 0:
                remaining[0] -= 1
                sched.schedule_after(1.0, lambda: reschedule(sched, remaining))

        for sched in shards:
            remaining = [per_shard]
            sched.schedule_after(0.5, lambda s=sched, r=remaining: reschedule(s, r))
        start = time.perf_counter()
        while True:
            best = None
            best_time = None
            for sched in shards:
                pending = sched.next_time()
                if pending is None:
                    continue
                if best_time is None or pending < best_time:
                    best, best_time = sched, pending
            if best is None:
                break
            best.step()
        elapsed = time.perf_counter() - start
        executed = sum(sched.processed for sched in shards)
        return executed / elapsed if elapsed > 0 else float("inf")

    for n_workcells in config["n_workcells"]:
        rates = [merged_throughput(n_workcells) for _ in range(repeats)]
        name, metric = _rate(
            f"events_per_s_{n_workcells}wc", 1.0, 1.0 / float(np.median(rates)), "events/s"
        )
        result.metrics[name] = metric

    result.hot_paths.append(
        _hot_path(
            "scheduler-churn",
            lambda: churn(reference.ReferenceEventScheduler),
            lambda: churn(EventScheduler),
            repeats,
        )
    )
    return result


# ---------------------------------------------------------------------------
# codec: frame encode/decode throughput, clean and under chaos
# ---------------------------------------------------------------------------


def _make_traffic(n_actions: int) -> List[Any]:
    """The wire protocol's real traffic shape: every device action crosses
    the pipe four times (SUBMIT, ACK, COMPLETE, ACK)."""
    from repro.wei.drivers.protocol import Frame

    frames: List[Any] = []
    for index in range(n_actions):
        seq = index * 2
        frames.append(
            Frame(
                kind="SUBMIT",
                seq=seq,
                payload={
                    "ticket_id": f"wire:{index}",
                    "module": "ot2" if index % 3 else "camera",
                    "action": "run_protocol",
                    "duration_s": 12.5 + (index % 7),
                },
            )
        )
        frames.append(Frame(kind="ACK", seq=seq, payload={}))
        frames.append(
            Frame(
                kind="COMPLETE",
                seq=seq + 1,
                payload={
                    "ticket_id": f"wire:{index}",
                    "ok": True,
                    "result": {"well": f"A{index % 12 + 1}", "score": 12.25 + index * 1e-6},
                },
            )
        )
        frames.append(Frame(kind="ACK", seq=seq + 1, payload={}))
    return frames


def _corrupt_stream(stream: bytes, seed: int) -> bytes:
    """Deterministically damage a frame stream: flipped bytes plus garbage
    runs, the same wire faults the chaos schedule injects."""
    rng = ensure_rng(seed)
    data = bytearray(stream)
    n_flips = max(len(data) // 400, 1)
    for position in rng.integers(0, len(data), size=n_flips):
        data[int(position)] ^= int(rng.integers(1, 256))
    garbage_at = sorted(int(p) for p in rng.integers(0, len(data), size=8))
    for offset, position in enumerate(garbage_at):
        junk = bytes(rng.integers(0, 256, size=37, dtype=np.uint8))
        data[position + offset * 37 : position + offset * 37] = junk
    return bytes(data)


def _bench_codec(repeats: int, scale: float) -> AreaResult:
    from repro.wei.drivers.protocol import FrameDecoder, encode_frame

    n_actions = max(int(4_000 * scale), 50)
    config = {"n_actions": n_actions, "frames": n_actions * 4, "chaos_seed": 9090}
    result = AreaResult(area="codec", config=config)

    frames = _make_traffic(n_actions)
    clean_stream = b"".join(encode_frame(frame) for frame in frames)
    chaos_stream = _corrupt_stream(clean_stream, config["chaos_seed"])

    encode_s = _best_of(lambda: [encode_frame(frame) for frame in frames], repeats)

    def decode(stream: bytes) -> int:
        decoder = FrameDecoder()
        return len(decoder.feed(stream))

    decode_s = _best_of(lambda: decode(clean_stream), repeats)
    chaos_s = _best_of(lambda: decode(chaos_stream), repeats)
    recovered = decode(chaos_stream)

    for name, metric in (
        _rate("frames_per_s_encode", len(frames), encode_s, "frames/s"),
        _rate("frames_per_s_decode", len(frames), decode_s, "frames/s"),
        _rate("frames_per_s_decode_chaos", recovered, chaos_s, "frames/s"),
    ):
        result.metrics[name] = metric
    result.metrics["chaos_recovered_frames"] = {
        "value": float(recovered), "unit": "frames", "direction": "higher",
    }

    def roundtrip(encode, make_decoder) -> None:
        decoder = make_decoder()
        for frame in frames:
            decoder.feed(encode(frame))

    result.hot_paths.append(
        _hot_path(
            "encode-decode-roundtrip",
            lambda: roundtrip(reference.reference_encode_frame, reference.ReferenceFrameDecoder),
            lambda: roundtrip(encode_frame, FrameDecoder),
            repeats,
        )
    )
    result.science["clean_stream_sha256"] = hashlib.sha256(clean_stream).hexdigest()
    reference_stream = b"".join(reference.reference_encode_frame(frame) for frame in frames)
    if reference_stream != clean_stream:  # pragma: no cover - equivalence guard
        raise AssertionError("optimised encoder is not byte-identical to the reference")
    return result


# ---------------------------------------------------------------------------
# campaign: the ROADMAP's 10k-run, 16-workcell stealing campaign
# ---------------------------------------------------------------------------


#: The heterogeneous scheduling scenario: one big run among fifteen small
#: ones on a two-workcell fleet whose second workcell runs its OT-2 and arm
#: twice as fast.  Fixed-size (it is seconds of wall time at any ``--scale``)
#: so the lookahead-vs-speed-blind makespans stay comparable release over
#: release.
_HETERO_SPEEDS = ({}, {"ot2": 2.0, "pf400": 2.0})
_HETERO_RUNS = ((64, 2),) + ((4, 4),) * 15
_HETERO_SEED = 99


def _run_heterogeneous_campaign(assignment: str, duration_hint) -> Tuple[float, int, list]:
    """(makespan_s, shard of the big run, per-run score lists) for one policy."""
    from repro.core.campaign import color_picker_programs
    from repro.core.experiment import ExperimentConfig
    from repro.wei.coordinator import MultiWorkcellCoordinator

    coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
        2, seed=_HETERO_SEED, module_speeds=list(_HETERO_SPEEDS)
    )
    jobs = [
        ExperimentConfig(
            n_samples=n_samples,
            batch_size=batch_size,
            solver="random",
            seed=_HETERO_SEED + index,
            publish=False,
            experiment_id="bench-hetero",
            run_id=f"bench-hetero-run{index}",
            run_index=index,
        )
        for index, (n_samples, batch_size) in enumerate(_HETERO_RUNS)
    ]
    lanes = [engine.workcell.ot2_barty_pairs()[:1] for engine in coordinator.engines]
    results = coordinator.run_jobs(
        jobs,
        color_picker_programs(coordinator),
        lanes=lanes,
        assignment=assignment,
        duration_hint=duration_hint,
    )
    scores = [[float(score) for score in run.scores()] for run in results]
    return coordinator.makespan, coordinator.assignments[0].shard, scores


def _bench_campaign(repeats: int, scale: float) -> AreaResult:
    from repro.core.campaign import predict_experiment_duration, run_campaign
    from repro.publish.portal import DataPortal
    from repro.wei.chaos.soak import _diff_fingerprints, campaign_fingerprint
    from repro.wei.coordinator import MultiWorkcellCoordinator

    n_runs = max(int(10_000 * scale), 32)
    n_workcells = 16 if n_runs >= 512 else 4
    config = {
        "n_runs": n_runs,
        "samples_per_run": 1,
        "n_workcells": n_workcells,
        "assignment": "work-stealing",
        "seed": 816,
        # Consumables must outlast the campaign: 10k runs / 16 workcells is
        # ~625 plates per workcell *if stealing were perfectly even* -- it
        # is not, so provision each 2-tower sciclops far past the skew.
        "plates_per_tower": 2000,
        "bulk_capacity_ul": 1e9,
        # The fixed-size heterogeneous scheduling scenario (see
        # docs/scheduling.md): speed-blind stealing-lpt vs lookahead.
        "heterogeneous": {
            "module_speeds": [dict(profile) for profile in _HETERO_SPEEDS],
            "runs": [list(run) for run in _HETERO_RUNS],
            "seed": _HETERO_SEED,
        },
    }
    result = AreaResult(area="campaign", config=config)

    # One pass regardless of --repeat: the campaign is minutes of wall time,
    # and its headline number (simulated makespan) is deterministic anyway.
    coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
        n_workcells,
        seed=config["seed"],
        plates_per_tower=config["plates_per_tower"],
        bulk_capacity_ul=config["bulk_capacity_ul"],
    )
    wall_start = time.perf_counter()
    campaign = run_campaign(
        n_runs=n_runs,
        samples_per_run=config["samples_per_run"],
        seed=config["seed"],
        portal=DataPortal(),
        experiment_id="bench-campaign",
        coordinator=coordinator,
        assignment=config["assignment"],
    )
    wall_s = time.perf_counter() - wall_start

    result.metrics["makespan_h"] = {
        "value": campaign.makespan_s / 3600.0, "unit": "h", "direction": "lower",
    }
    name, metric = _rate("runs_per_wall_s", campaign.n_runs, wall_s, "runs/s")
    result.metrics[name] = metric
    result.metrics["wall_s"] = {"value": wall_s, "unit": "s", "direction": "lower"}

    baseline_fp = reference.reference_campaign_fingerprint(campaign)
    optimised_fp = campaign_fingerprint(campaign)
    if optimised_fp != baseline_fp:  # pragma: no cover - equivalence guard
        raise AssertionError("optimised fingerprint is not identical to the reference")
    result.science["campaign_fingerprint_sha256"] = _digest(optimised_fp)

    result.hot_paths.append(
        _hot_path(
            "fingerprint-and-diff",
            lambda: reference.reference_diff_fingerprints(
                baseline_fp, reference.reference_campaign_fingerprint(campaign)
            ),
            lambda: _diff_fingerprints(optimised_fp, campaign_fingerprint(campaign)),
            max(repeats, 3),
        )
    )

    # Heterogeneous scheduling scenario: same 16 runs, same mixed-speed
    # fleet, two policies.  A hint that ignores the shard's table prices
    # every shard off the default calibration (speed-blind); the predictor
    # itself is the lane-aware hint lookahead re-ranks with.
    blind_makespan, blind_shard, blind_scores = _run_heterogeneous_campaign(
        "stealing-lpt", lambda job, _table: predict_experiment_duration(job)
    )
    look_makespan, look_shard, look_scores = _run_heterogeneous_campaign(
        "lookahead", predict_experiment_duration
    )
    if blind_scores != look_scores:  # pragma: no cover - equivalence guard
        raise AssertionError("scheduling policy changed the heterogeneous campaign's science")
    result.metrics["hetero_blind_makespan_h"] = {
        "value": blind_makespan / 3600.0, "unit": "h", "direction": "lower",
    }
    result.metrics["hetero_lookahead_makespan_h"] = {
        "value": look_makespan / 3600.0, "unit": "h", "direction": "lower",
    }
    result.metrics["hetero_lookahead_speedup"] = {
        "value": blind_makespan / look_makespan, "unit": "x", "direction": "higher",
    }
    result.science["hetero_scores_sha256"] = _digest(look_scores)
    result.science["hetero_big_run_shards"] = {
        "stealing-lpt-blind": blind_shard, "lookahead": look_shard,
    }
    return result


# ---------------------------------------------------------------------------
# portal: ingest and search throughput
# ---------------------------------------------------------------------------


def _bench_portal(repeats: int, scale: float) -> AreaResult:
    from repro.publish.portal import DataPortal
    from repro.publish.records import RunRecord, SampleRecord

    n_records = max(int(5_000 * scale), 64)
    config = {"n_records": n_records, "samples_per_record": 4, "seed": 4242}
    result = AreaResult(area="portal", config=config)

    rng = ensure_rng(config["seed"])
    records = []
    for index in range(n_records):
        samples = [
            SampleRecord(
                sample_index=sample_index,
                well=f"A{sample_index + 1}",
                plate_barcode=f"plate-{index:05d}",
                volumes_ul={
                    dye: float(volume)
                    for dye, volume in zip(
                        ("cyan", "magenta", "yellow", "black"), rng.uniform(0.0, 200.0, 4)
                    )
                },
                measured_rgb=rng.uniform(0.0, 255.0, 3).tolist(),
                score=float(rng.uniform(0.0, 441.0)),
            )
            for sample_index in range(config["samples_per_record"])
        ]
        records.append(
            RunRecord(
                experiment_id=f"bench-{index % 8}",
                run_id=f"run-{index:06d}",
                run_index=index,
                target_rgb=rng.uniform(0.0, 255.0, 3).tolist(),
                samples=samples,
                solver="evolutionary",
            )
        )

    def ingest_all() -> DataPortal:
        portal = DataPortal()
        for record in records:
            portal.ingest(record)
        return portal

    ingest_s = _best_of(ingest_all, repeats)
    portal = ingest_all()
    search_s = _best_of(
        lambda: [portal.search(experiment_id=f"bench-{bucket}") for bucket in range(8)], repeats
    )

    for name, metric in (
        _rate("rows_per_s_ingest", n_records, ingest_s, "rows/s"),
        _rate("rows_per_s_search", n_records, search_s, "rows/s"),
    ):
        result.metrics[name] = metric

    # Durable-backend scenarios over the SAME pinned record set (the shared
    # ``config`` is untouched, so the in-memory metrics' trajectory
    # continues; these metrics are simply new rows in the same scenario).
    import shutil
    import tempfile

    from repro.publish.store import DurableDataPortal

    work_dir = tempfile.mkdtemp(prefix="bench-portal-")
    try:
        def durable_ingest_all() -> None:
            store_dir = f"{work_dir}/ingest"
            shutil.rmtree(store_dir, ignore_errors=True)
            with DurableDataPortal(store_dir) as store:
                for record in records:
                    store.ingest(record)

        durable_ingest_s = _best_of(durable_ingest_all, repeats)

        durable_dir = f"{work_dir}/query"
        with DurableDataPortal(durable_dir) as store:
            for record in records:
                store.ingest(record)
            durable_search_s = _best_of(
                lambda: [store.search(experiment_id=f"bench-{bucket}") for bucket in range(8)],
                repeats,
            )
            # The durable backend must return the exact same rows as the
            # in-memory portal -- a parity guard on the measured scenario.
            memory_rows = [record.to_dict() for record in portal.search()]
            durable_rows = [record.to_dict() for record in store.search()]
            if durable_rows != memory_rows:  # pragma: no cover - parity guard
                raise AssertionError("durable portal is not identical to the in-memory portal")
            result.science["portal_rows_sha256"] = _digest(memory_rows)

        def durable_reopen() -> None:
            DurableDataPortal(durable_dir).close()

        durable_reopen_s = _best_of(durable_reopen, repeats)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, metric in (
        _rate("rows_per_s_ingest_durable", n_records, durable_ingest_s, "rows/s"),
        _rate("rows_per_s_search_durable", n_records, durable_search_s, "rows/s"),
        _rate("rows_per_s_reopen_durable", n_records, durable_reopen_s, "rows/s"),
    ):
        result.metrics[name] = metric
    return result


# ---------------------------------------------------------------------------
# vision: well scoring throughput
# ---------------------------------------------------------------------------


#: The Bayesian solver's surrogate late in a run: observations it is fitted
#: on, and the candidates each ``predict`` scores (512 random ratios plus 64
#: perturbed incumbents, the solver's defaults).
_GP_OBSERVATIONS = 36
_GP_CANDIDATES = 576


def _bench_vision(repeats: int, scale: float) -> AreaResult:
    from repro.color.mixing import SubtractiveMixingModel
    from repro.hardware.labware import Plate, well_names
    from repro.solvers.gp import GaussianProcess
    from repro.vision.extraction import WellColorExtractor
    from repro.vision.render import render_plate_image, well_pixel_centers

    n_passes = max(int(60 * scale), 3)
    config = {"n_passes": n_passes, "rows": 8, "cols": 12, "seed": 77}
    result = AreaResult(area="vision", config=config)

    chemistry = SubtractiveMixingModel()
    rng = ensure_rng(config["seed"])
    plate = Plate(barcode="bench-vision")
    for name in well_names(config["rows"], config["cols"]):
        well = plate.well(name)
        for dye, volume in zip(("cyan", "magenta", "yellow", "black"), rng.uniform(5.0, 60.0, 4)):
            well.add(dye, float(volume))
    image = render_plate_image(plate, chemistry, rng=ensure_rng(config["seed"] + 1))

    # The camera: one frame per pass, each keyed by its own stream.
    def render_frames() -> None:
        for key in range(n_passes):
            render_plate_image(plate, chemistry, rng=np.random.default_rng(key))

    render_s = _best_of(render_frames, repeats)
    name, metric = _rate("render_frames_per_s", n_passes, render_s, "frames/s")
    result.metrics[name] = metric

    extractor = WellColorExtractor(rows=config["rows"], cols=config["cols"])
    centers = well_pixel_centers(plate)

    def score_all() -> Dict[str, np.ndarray]:
        return extractor.sample_colors(image, centers)

    scoring_s = _best_of(lambda: [score_all() for _ in range(n_passes)], repeats)
    wells_scored = n_passes * len(centers)
    name, metric = _rate("wells_per_s_scoring", wells_scored, scoring_s, "wells/s")
    result.metrics[name] = metric

    optimised = score_all()
    baseline = reference.reference_sample_colors(extractor, image, centers)
    if list(baseline) != list(optimised) or any(
        not np.array_equal(baseline[well], optimised[well]) for well in baseline
    ):  # pragma: no cover - equivalence guard
        raise AssertionError("vectorised well scoring is not bit-identical to the reference")
    result.science["well_colors_sha256"] = _digest(
        {well: optimised[well].tolist() for well in optimised}
    )

    result.hot_paths.append(
        _hot_path(
            "well-color-scoring",
            lambda: [reference.reference_sample_colors(extractor, image, centers) for _ in range(n_passes)],
            lambda: [score_all() for _ in range(n_passes)],
            repeats,
        )
    )

    # The paper's loop per frame: fiducial, Hough circles, grid, scoring.
    extracted = extractor.extract(image)
    old_extracted = reference.reference_extract(extractor, image)
    same_colors = list(extracted.well_colors) == list(old_extracted.well_colors) and all(
        np.array_equal(extracted.well_colors[well], old_extracted.well_colors[well])
        for well in extracted.well_colors
    )
    same_geometry = (
        extracted.well_centers,
        extracted.fiducial,
        extracted.circles,
        extracted.grid,
        extracted.used_grid_completion,
    ) == (
        old_extracted.well_centers,
        old_extracted.fiducial,
        old_extracted.circles,
        old_extracted.grid,
        old_extracted.used_grid_completion,
    )
    if not (same_colors and same_geometry):  # pragma: no cover - equivalence guard
        raise AssertionError("frame extraction is not bit-identical to the reference")
    result.hot_paths.append(
        _hot_path(
            "frame-extraction",
            lambda: [reference.reference_extract(extractor, image) for _ in range(n_passes)],
            lambda: [extractor.extract(image) for _ in range(n_passes)],
            repeats,
        )
    )

    # The Bayesian solver's surrogate scoring its candidate pool.
    gp_rng = ensure_rng(config["seed"] + 2)
    observed = gp_rng.uniform(size=(_GP_OBSERVATIONS, 4))
    gp = GaussianProcess().fit(observed, np.linalg.norm(observed - 0.5, axis=1))
    candidates = gp_rng.uniform(size=(_GP_CANDIDATES, 4))
    mean, std = gp.predict(candidates)
    old_mean, old_std = reference.reference_gp_predict(gp, candidates)
    same_prediction = np.array_equal(mean, old_mean) and np.array_equal(std, old_std)
    if not same_prediction:  # pragma: no cover - equivalence guard
        raise AssertionError("GP predict is not bit-identical to the reference")
    result.hot_paths.append(
        _hot_path(
            "gp-predict",
            lambda: [reference.reference_gp_predict(gp, candidates) for _ in range(n_passes)],
            lambda: [gp.predict(candidates) for _ in range(n_passes)],
            repeats,
        )
    )
    return result


# ---------------------------------------------------------------------------
# obs: tracing-off vs tracing-on overhead on the 16-workcell campaign
# ---------------------------------------------------------------------------


def _bench_obs(repeats: int, scale: float) -> AreaResult:
    from repro import obs
    from repro.core.campaign import run_campaign
    from repro.obs import tracer as obs_tracer
    from repro.publish.portal import DataPortal
    from repro.wei.chaos.soak import campaign_fingerprint
    from repro.wei.coordinator import MultiWorkcellCoordinator

    n_runs = max(int(1024 * scale), 32)
    n_workcells = 16 if n_runs >= 512 else 4
    guard_ops = max(int(200_000 * scale), 2_000)
    config = {
        "n_runs": n_runs,
        "samples_per_run": 1,
        "n_workcells": n_workcells,
        "assignment": "work-stealing",
        "seed": 816,
        "plates_per_tower": 2000,
        "bulk_capacity_ul": 1e9,
        "guard_ops": guard_ops,
    }
    result = AreaResult(area="obs", config=config)

    def campaign_pass() -> Tuple[Any, float]:
        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
            n_workcells,
            seed=config["seed"],
            plates_per_tower=config["plates_per_tower"],
            bulk_capacity_ul=config["bulk_capacity_ul"],
        )
        start = time.perf_counter()
        campaign = run_campaign(
            n_runs=n_runs,
            samples_per_run=config["samples_per_run"],
            seed=config["seed"],
            portal=DataPortal(),
            experiment_id="bench-obs",
            coordinator=coordinator,
            assignment=config["assignment"],
        )
        return campaign, time.perf_counter() - start

    # Interleaved off/on pairs, the first side alternating, so drift on a
    # shared host hits both sides alike.  At least three pairs whatever
    # --repeat says: one pair gives no spread.
    walls_off: List[float] = []
    walls_on: List[float] = []
    fingerprints = set()
    n_spans = 0
    for index in range(max(repeats, 3)):
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                with obs.observed() as session:
                    campaign, wall = campaign_pass()
                n_spans = len(session.spans)
                walls_on.append(wall)
            else:
                campaign, wall = campaign_pass()
                walls_off.append(wall)
            fingerprints.add(_digest(campaign_fingerprint(campaign)))
    if len(fingerprints) != 1:  # pragma: no cover - equivalence guard
        raise AssertionError("tracing changed the campaign's science")
    result.science["campaign_fingerprint_sha256"] = fingerprints.pop()
    wall_off = float(np.median(walls_off))
    wall_on = float(np.median(walls_on))

    # The disabled fast path every instrumentation site pays: one global
    # read plus a shared no-op context manager.  Baseline is the same loop
    # with a live tracer recording, so the hot path's speedup is "what
    # turning tracing off buys".
    def guard_loop() -> None:
        for _ in range(guard_ops):
            with obs_tracer.span("bench.guard"):
                pass

    def traced_loop() -> None:
        obs_tracer.install(obs_tracer.Tracer())
        try:
            guard_loop()
        finally:
            obs_tracer.uninstall()

    hot = _hot_path("null-span-guard", traced_loop, guard_loop, repeats)
    result.hot_paths.append(hot)

    # Tracing-off overhead: the measured per-site guard cost scaled by how
    # many sites the instrumented campaign actually hit, as a percentage of
    # the uninstrumented campaign's wall time.  This is the <2% acceptance
    # gate enforced by tools/check_bench.py.
    per_op_off_s = hot["optimised_s"] / guard_ops
    off_overhead_pct = per_op_off_s * n_spans / wall_off * 100.0 if wall_off > 0 else 0.0
    # Tracing-on overhead: the median over pairs of on wall / off wall,
    # minus one, never clamped -- a negative median says the cost is inside
    # the noise, whose size the IQR gives.
    on_overheads_pct = [(on / off - 1.0) * 100.0 for off, on in zip(walls_off, walls_on)]
    q1, on_overhead_pct, q3 = np.percentile(on_overheads_pct, [25, 50, 75])

    result.metrics["tracing_off_overhead_pct"] = {
        "value": max(off_overhead_pct, 0.0), "unit": "%", "direction": "lower",
    }
    result.metrics["tracing_on_overhead_pct"] = {
        "value": float(on_overhead_pct), "unit": "%", "direction": "lower", "signed": True,
    }
    result.metrics["tracing_on_overhead_iqr_pct"] = {
        "value": float(q3 - q1), "unit": "%", "direction": "lower",
    }
    result.metrics["span_record_cost_us"] = {
        "value": hot["baseline_s"] / guard_ops * 1e6, "unit": "us/span", "direction": "lower",
    }
    result.metrics["spans_per_campaign"] = {
        "value": float(n_spans), "unit": "spans", "direction": "higher",
    }
    result.metrics["wall_off_s"] = {"value": wall_off, "unit": "s", "direction": "lower"}
    result.metrics["wall_on_s"] = {"value": wall_on, "unit": "s", "direction": "lower"}
    return result


_AREA_FUNCTIONS = {
    "events": _bench_events,
    "codec": _bench_codec,
    "campaign": _bench_campaign,
    "portal": _bench_portal,
    "vision": _bench_vision,
    "obs": _bench_obs,
}


def run_area(area: str, repeats: int = 3, scale: float = 1.0) -> AreaResult:
    """Run one area's pinned scenario.

    ``repeats`` is the measurement repeat count (medians/minima are taken
    over it); ``scale`` shrinks scenario sizes proportionally and exists for
    tests and smoke runs -- results from a scaled run are persisted with the
    scaled config and therefore never compare against full-size baselines.
    """
    try:
        fn = _AREA_FUNCTIONS[area]
    except KeyError:
        raise ValueError(f"unknown bench area {area!r}; expected one of {AREA_ORDER}") from None
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not (scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    return fn(repeats, scale)
