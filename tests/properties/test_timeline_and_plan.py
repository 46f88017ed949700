"""Property-style tests for resource timelines and executed lane schedules.

Randomised (but deterministically seeded) checks of the invariants the
concurrent engine and the Section 4 ablation rely on:

* :class:`ResourceTimeline` interval clipping in ``utilisation`` and the
  gap/busy partition produced by ``idle_gaps``,
* mixing batches executed on ``n_ot2`` OT-2 lanes by the
  :class:`ConcurrentWorkflowEngine` forming physically possible schedules.
"""

import numpy as np
import pytest

from repro.core.protocol import build_mix_protocol
from repro.hardware.labware import Plate
from repro.sim.resources import ResourceTimeline
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.workcell import build_color_picker_workcell
from repro.wei.workflow import WorkflowSpec


def random_timeline(rng, n=20):
    timeline = ResourceTimeline("prop")
    for _ in range(n):
        timeline.reserve(float(rng.uniform(0, 500)), float(rng.uniform(0, 60)))
    return timeline


class TestResourceTimelineProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_utilisation_clips_intervals_to_horizon(self, seed):
        rng = np.random.default_rng(seed)
        timeline = random_timeline(rng)
        for horizon in (1.0, 100.0, timeline.available_at, timeline.available_at * 2):
            busy_inside = sum(
                max(0.0, min(end, horizon) - min(start, horizon))
                for start, end in timeline.intervals
            )
            assert timeline.utilisation(horizon) == pytest.approx(busy_inside / horizon)
            assert 0.0 <= timeline.utilisation(horizon) <= 1.0

    def test_utilisation_with_horizon_inside_an_interval(self):
        timeline = ResourceTimeline("clip")
        timeline.reserve(10.0, 10.0)  # busy [10, 20]
        assert timeline.utilisation(15.0) == pytest.approx(5.0 / 15.0)
        assert timeline.utilisation(10.0) == pytest.approx(0.0)
        assert timeline.utilisation(20.0) == pytest.approx(0.5)

    def test_utilisation_requires_positive_horizon(self):
        timeline = ResourceTimeline("empty")
        with pytest.raises(ValueError):
            timeline.utilisation(0.0)
        with pytest.raises(ValueError):
            timeline.utilisation(-5.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gaps_and_busy_partition_the_horizon(self, seed):
        rng = np.random.default_rng(100 + seed)
        timeline = random_timeline(rng)
        gaps = timeline.idle_gaps()
        # Gaps never overlap reservations and are strictly positive.
        for start, end in gaps:
            assert end > start
            for b_start, b_end in timeline.intervals:
                assert end <= b_start + 1e-9 or start >= b_end - 1e-9
        # Together, gaps and busy time tile [0, available_at] exactly.
        total_gap = sum(end - start for start, end in gaps)
        assert total_gap + timeline.busy_time == pytest.approx(timeline.available_at)

    def test_no_gaps_for_back_to_back_reservations(self):
        timeline = ResourceTimeline("dense")
        timeline.reserve(0.0, 5.0)
        timeline.reserve(0.0, 5.0)  # pushed back to [5, 10]
        assert timeline.idle_gaps() == []

    def test_leading_gap_reported(self):
        timeline = ResourceTimeline("late")
        timeline.reserve(7.0, 1.0)
        assert timeline.idle_gaps() == [(0.0, 7.0)]


def mix_batch_spec(ot2):
    """One mixing batch: mix, carry to the camera, image, carry back."""
    deck_location = f"{ot2}.deck"
    spec = WorkflowSpec(name=f"mix_{ot2}")
    spec.add_step(ot2, "run_protocol", protocol="$payload.protocol")
    spec.add_step("pf400", "transfer", source=deck_location, target="camera.stage")
    spec.add_step("camera", "take_picture")
    spec.add_step("pf400", "transfer", source="camera.stage", target=deck_location)
    return spec


def execute_lanes(batch_sizes, n_ot2, seed=0):
    """Execute ``batch_sizes`` round-robin on ``n_ot2`` lanes, one program per lane.

    Each lane program runs its batches one after another on one plate, as a
    colour-picker lane does; the lanes share the pf400 and the camera.
    Returns the engine and, per OT-2, its batches' step results in order.
    """
    workcell = build_color_picker_workcell(seed=seed, n_ot2=n_ot2)
    lanes = [ot2 for ot2, _ in workcell.ot2_barty_pairs()]
    dye_names = workcell.chemistry.dyes.names
    well_names = Plate(barcode="well-names").empty_wells
    for ot2 in lanes:
        device = workcell.module(ot2).device
        workcell.deck.place(Plate(barcode=f"plate-{ot2}"), device.deck_location)
        for reservoir in device.reservoirs.values():
            reservoir.fill()

    protocols = {ot2: [] for ot2 in lanes}
    wells_used = {ot2: 0 for ot2 in lanes}
    for index, batch_size in enumerate(batch_sizes):
        ot2 = lanes[index % n_ot2]
        start = wells_used[ot2]
        wells_used[ot2] += batch_size
        protocols[ot2].append(
            build_mix_protocol(
                name=f"batch_{index:02d}",
                wells=well_names[start : start + batch_size],
                ratios=[[0.25, 0.25, 0.25, 0.25]] * batch_size,
                dye_names=dye_names,
                max_component_volume_ul=40.0,
            )
        )

    def lane_program(ot2):
        results = []
        for protocol in protocols[ot2]:
            result = yield ("workflow", mix_batch_spec(ot2), {"protocol": protocol})
            results.append(result)
        return results

    engine = ConcurrentWorkflowEngine(workcell)
    handles = {ot2: engine.submit_program(lane_program(ot2), name=ot2) for ot2 in lanes}
    engine.run_until_complete()
    assert all(handle.success for handle in handles.values())
    return engine, {ot2: handle.result for ot2, handle in handles.items()}


class TestExecutedLaneScheduleInvariants:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ot2", [1, 2, 3])
    def test_no_overlapping_reservations_per_device(self, seed, n_ot2):
        rng = np.random.default_rng(seed)
        batch_sizes = [int(v) for v in rng.integers(1, 10, size=10)]
        engine, _ = execute_lanes(batch_sizes, n_ot2, seed=seed)
        assert "pf400" in engine.timelines
        for name, timeline in engine.timelines.items():
            intervals = sorted(timeline.intervals)
            for (_, end), (start, _) in zip(intervals, intervals[1:]):
                assert start >= end - 1e-9, f"device {name} double-booked"

    @pytest.mark.parametrize("seed", range(4))
    def test_deck_free_respected_per_ot2(self, seed):
        rng = np.random.default_rng(50 + seed)
        batch_sizes = [int(v) for v in rng.integers(1, 16, size=12)]
        _, runs = execute_lanes(batch_sizes, 2, seed=seed)
        for lane_runs in runs.values():
            for previous, current in zip(lane_runs, lane_runs[1:]):
                # A lane cannot mix its next batch before its plate is back
                # on the deck from the camera.
                assert current.steps[0].start_time >= previous.steps[-1].end_time - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_makespan_monotone_non_increasing_in_n_ot2(self, seed):
        rng = np.random.default_rng(200 + seed)
        batch_sizes = [int(v) for v in rng.integers(1, 12, size=8)]
        makespans = [execute_lanes(batch_sizes, n, seed=seed)[0].makespan for n in (1, 2, 4, 8)]
        for wider, narrower in zip(makespans[1:], makespans[:-1]):
            assert wider <= narrower + 1e-9

    def test_stage_chain_ordering_within_each_batch(self):
        _, runs = execute_lanes([4] * 6, 2)
        for lane_runs in runs.values():
            assert len(lane_runs) == 3
            for run in lane_runs:
                mix, transfer_in, imaging, transfer_out = run.steps
                assert mix.end_time <= transfer_in.start_time + 1e-9
                assert transfer_in.end_time <= imaging.start_time + 1e-9
                assert imaging.end_time <= transfer_out.start_time + 1e-9


def execute_free_batches(batch_sizes, n_ot2, seed=0):
    """Submit every batch at once as its own workflow, round-robin over OT-2s.

    No lane program orders the batches: all of them are in flight together
    (``engine.run_all``), so deck admission alone keeps each OT-2's plate
    from being mixed while it is away or carried off while it is mixed.
    Returns the engine and, per OT-2, its workflows' results.
    """
    workcell = build_color_picker_workcell(seed=seed, n_ot2=n_ot2)
    lanes = [ot2 for ot2, _ in workcell.ot2_barty_pairs()]
    dye_names = workcell.chemistry.dyes.names
    well_names = Plate(barcode="well-names").empty_wells
    for ot2 in lanes:
        device = workcell.module(ot2).device
        workcell.deck.place(Plate(barcode=f"plate-{ot2}"), device.deck_location)
        for reservoir in device.reservoirs.values():
            reservoir.fill()

    specs, payloads, owners = [], [], []
    wells_used = {ot2: 0 for ot2 in lanes}
    for index, batch_size in enumerate(batch_sizes):
        ot2 = lanes[index % n_ot2]
        start = wells_used[ot2]
        wells_used[ot2] += batch_size
        protocol = build_mix_protocol(
            name=f"batch_{index:02d}",
            wells=well_names[start : start + batch_size],
            ratios=[[0.25, 0.25, 0.25, 0.25]] * batch_size,
            dye_names=dye_names,
            max_component_volume_ul=40.0,
        )
        specs.append(mix_batch_spec(ot2))
        payloads.append({"protocol": protocol})
        owners.append(ot2)

    engine = ConcurrentWorkflowEngine(workcell)
    results = engine.run_all(specs, payloads)
    assert all(result.success for result in results)
    runs = {ot2: [] for ot2 in lanes}
    for ot2, result in zip(owners, results):
        runs[ot2].append(result)
    return engine, runs


class TestFreeSubmittedDeckAdmission:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_ot2", [1, 2, 3])
    def test_no_mix_while_the_plate_is_away_or_moving(self, seed, n_ot2):
        rng = np.random.default_rng(300 + seed)
        batch_sizes = [int(v) for v in rng.integers(1, 8, size=3 * n_ot2 + 2)]
        _, runs = execute_free_batches(batch_sizes, n_ot2, seed=seed)
        for lane_runs in runs.values():
            mixes = [run.steps[0] for run in lane_runs]
            # From the start of the carry to the camera to the end of the
            # carry back, the plate is off its deck (or on the arm).
            away = [(run.steps[1].start_time, run.steps[3].end_time) for run in lane_runs]
            for mix in mixes:
                for start, end in away:
                    assert mix.end_time <= start + 1e-9 or mix.start_time >= end - 1e-9, (
                        f"mix [{mix.start_time}, {mix.end_time}] overlaps the plate's "
                        f"trip [{start}, {end}]"
                    )

    def test_tip_replacement_does_not_hold_the_plate(self):
        # Only mixing keeps an OT-2's plate on its deck: replace_tips does
        # not touch the plate, so a transfer off the deck runs alongside it.
        workcell = build_color_picker_workcell(seed=0)
        ot2 = workcell.ot2_barty_pairs()[0][0]
        deck_location = workcell.module(ot2).device.deck_location
        workcell.deck.place(Plate(barcode="plate"), deck_location)
        tips = WorkflowSpec(name="tips")
        tips.add_step(ot2, "replace_tips")
        carry = WorkflowSpec(name="carry")
        carry.add_step("pf400", "transfer", source=deck_location, target="camera.stage")
        tips_result, carry_result = ConcurrentWorkflowEngine(workcell).run_all([tips, carry])
        assert carry_result.success and tips_result.success
        assert carry_result.steps[0].start_time < tips_result.steps[0].end_time
