"""Benchmark: regenerate Table 1 (proposed SDL metrics for the B = 1 run).

Runs the paper's headline experiment -- batch size 1, 128 samples, GA solver
-- and computes the proposed SDL metrics from the run's own executed steps,
printing them side by side with the paper's reported values.
"""

import pytest

from repro.analysis.table1 import render_table1, table1_comparison
from repro.core.app import ColorPickerApp
from repro.core.experiment import ExperimentConfig
from repro.core.metrics import PAPER_TABLE1
from repro.sim.durations import paper_calibrated_durations
from repro.wei.workcell import build_color_picker_workcell

SEED = 816


def run_b1_experiment(jitter_cv: float = 0.05):
    config = ExperimentConfig(
        target="paper-grey",
        n_samples=128,
        batch_size=1,
        solver="evolutionary",
        measurement="direct",
        seed=SEED,
        experiment_id="table1",
        run_id="table1-B1",
    )
    workcell = build_color_picker_workcell(
        seed=SEED, durations=paper_calibrated_durations(jitter_cv=jitter_cv)
    )
    return ColorPickerApp(config, workcell=workcell).run()


@pytest.mark.benchmark(group="table1")
def test_table1_sdl_metrics(benchmark, report):
    result = benchmark.pedantic(run_b1_experiment, rounds=1, iterations=1)
    metrics = result.metrics

    report("Table 1 reproduction", render_table1(metrics))
    report("Simulated run, paper-format table", metrics.as_table())

    assert metrics.total_colors == 128

    # Paper-vs-measured ratios: the simulated workcell is calibrated to land
    # within ~20 % of every Table 1 entry.
    for row in table1_comparison(metrics):
        assert 0.8 <= row["ratio"] <= 1.25, f"{row['metric']} ratio {row['ratio']:.2f} out of band"

    # Structural identities the paper's numbers satisfy.
    assert metrics.synthesis_time_s + metrics.transfer_time_s == pytest.approx(
        metrics.time_without_humans_s
    )
    assert metrics.synthesis_fraction == pytest.approx(0.63, abs=0.08)
    assert metrics.time_per_color_s == pytest.approx(PAPER_TABLE1["time_per_color_s"], rel=0.2)
    # ~3 robotic commands per colour plus plate handling, as in the paper's 387.
    assert 350 <= metrics.commands_completed <= 430


@pytest.mark.benchmark(group="table1")
def test_table1_duration_noise_ablation(benchmark, report):
    """DESIGN.md ablation: the metrics are driven by the calibrated means, not the jitter.

    Re-running the B = 1 experiment with deterministic (zero-jitter) action
    durations must land within a few percent of the jittered run on every
    aggregate metric -- the duration noise models realism, it does not carry
    the result.
    """
    deterministic = benchmark.pedantic(
        run_b1_experiment, kwargs={"jitter_cv": 0.0}, rounds=1, iterations=1
    )
    jittered = run_b1_experiment(jitter_cv=0.05)

    report(
        "Duration-noise ablation (B = 1): deterministic vs. jittered durations",
        "deterministic: " + deterministic.metrics.as_table().replace("\n", " | ")
        + "\njittered:      " + jittered.metrics.as_table().replace("\n", " | "),
    )

    det, jit = deterministic.metrics, jittered.metrics
    assert det.total_colors == jit.total_colors == 128
    assert det.time_without_humans_s == pytest.approx(jit.time_without_humans_s, rel=0.05)
    assert det.synthesis_time_s == pytest.approx(jit.synthesis_time_s, rel=0.05)
    assert det.commands_completed == pytest.approx(jit.commands_completed, abs=12)
