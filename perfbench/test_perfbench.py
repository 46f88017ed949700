"""Fast checks of the benchmark itself, at scaled-down workload sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.hostspeed import HostSpeed, corrected_s
from perfbench.spans import SpanRecorder, entry_points, summarise
from perfbench.workloads import RepResult, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

SMALL_FLEET = replace(WORKLOADS["fleet_direct"], n_runs=4, samples_per_run=2, n_workcells=2)
SMALL_VISION = replace(WORKLOADS["vision_bo"], n_runs=1, samples_per_run=4)
SMALL_WIRE = replace(WORKLOADS["wire_chaos"], n_runs=3, samples_per_run=2)
SMALL_PORTAL = replace(WORKLOADS["portal_history"], n_records=60, n_details=5, page_limit=7)


def _declared(kind: str) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def test_wrappers_restore_every_original():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in entry_points()]
    recorder = SpanRecorder()
    inputs = SMALL_VISION.prepare(3)
    with recorder.installed():
        assert any(vars(owner)[attr] is not original for owner, attr, original in originals)
        rep = SMALL_VISION.run(inputs, recorder)
    assert rep.failed == 0, rep.problems
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
    summary = summarise(recorder)
    for name in ("vision.render", "vision.extract", "solver.propose", "color.score"):
        assert summary.calls.get(name, 0) > 0, name


def test_traced_and_untraced_runs_give_the_same_fingerprint():
    inputs = SMALL_FLEET.prepare(5)
    untraced = SMALL_FLEET.run(inputs)
    recorder = SpanRecorder()
    with recorder.installed():
        traced = SMALL_FLEET.run(inputs, recorder)
    assert untraced.failed == traced.failed == 0
    assert untraced.fingerprint == traced.fingerprint
    assert 0.9 < summarise(recorder).coverage <= 1.0


def test_wire_chaos_fingerprint_equals_the_sim_fleet():
    sim = replace(SMALL_WIRE, transport="sim")
    wire = SMALL_WIRE.run(SMALL_WIRE.prepare(7))
    baseline = sim.run(sim.prepare(7))
    assert wire.failed == baseline.failed == 0, wire.problems + baseline.problems
    assert wire.fingerprint == baseline.fingerprint
    assert wire.counters["delivered"] > 0


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    with recorder.root():
        with recorder.span("outer", "wei"):
            time.sleep(0.02)
            with recorder.span("inner", "hardware"):
                time.sleep(0.03)
    summary = summarise(recorder)
    (thread,) = recorder.threads()
    _, outer, inner = thread.spans
    outer_s, inner_s = outer[3] - outer[2], inner[3] - inner[2]
    assert summary.self_s["inner"] == inner_s >= 0.03
    assert summary.self_s["outer"] == pytest.approx(outer_s - inner_s, abs=1e-12)
    assert summary.self_s["outer"] >= 0.02
    assert summary.coverage > 0.9


def test_host_speed_correction_scales_only_the_busy_share():
    assert corrected_s(2.0, 2.0, 2.0) == pytest.approx(1.0)
    assert corrected_s(2.0, 0.5, 2.0) == pytest.approx(1.75)  # waiting is kept
    assert corrected_s(2.0, 3.0, 0.5) == pytest.approx(4.0)  # busy is at most the wall
    with HostSpeed(measure=False).window() as timed:
        time.sleep(0.01)
    assert timed.slowdown == 1.0 and timed.corrected_s == timed.wall_s >= 0.01


def test_rate_takes_each_lap_median_over_repetitions():
    reps = [
        RepResult(wall_s=1.0, attempted=1, failed=0, values={"rows": 10}, laps_s=laps)
        for laps in ([1.0, 1.0], [1.0, 9.0], [3.0, 1.0])
    ]
    assert bench.rate(reps, "rows") == pytest.approx(10 / 2.0)


def test_portal_answers_are_checked_against_the_in_memory_portal():
    inputs = SMALL_PORTAL.prepare(11)
    good = SMALL_PORTAL.run(inputs)
    assert good.failed == 0, good.problems
    inputs["expected"] = [None] * len(inputs["expected"])
    bad = SMALL_PORTAL.run(inputs)
    assert bad.failed == len(inputs["queries"])
    attempted, failed, problems = bench._verdict([good, bad])
    assert failed > 0 and problems


def test_printed_metric_names_equal_the_declared_names():
    for workload in (SMALL_FLEET, SMALL_PORTAL):
        outcome = bench.end_to_end(workload, 2, 0.0)
        assert outcome["failed"] == 0, outcome["problems"]
        assert set(outcome["metrics"]) == _declared("end_to_end")
        assert all(value > 0 for value, _ in outcome["metrics"].values()), outcome["metrics"]
        traced = bench.traced(workload, 2, 0.0)
        assert set(traced["metrics"]) == _declared("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why

