"""Benchmark: the paced transport delivers sim-identical science in real time.

The acceptance claim of the driver-subsystem PR: a campaign run with
``--transport paced --speedup 1000`` produces per-run scores identical to
the sim-clock engine, with every action completion delivered out-of-band
from a driver worker thread.  This benchmark runs both modes, verifies the
science matches sample-for-sample, and reports the transport's real elapsed
time, effective speedup and completion-delivery latency.
"""

import time

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.core.campaign import run_campaign

SEED = 424
SPEEDUP = 1000.0


def run_both_transports():
    shared = dict(
        n_runs=3, samples_per_run=4, batch_size=2, solver="evolutionary", seed=SEED
    )
    wall_start = time.monotonic()
    sim = run_campaign(experiment_id="bench-sim-transport", **shared)
    sim_wall = time.monotonic() - wall_start
    paced = run_campaign(
        experiment_id="bench-paced-transport",
        transport="paced",
        speedup=SPEEDUP,
        **shared,
    )
    return sim, sim_wall, paced


@pytest.mark.benchmark(group="drivers")
def test_paced_transport_matches_sim_and_reports_latency(benchmark, report):
    sim, sim_wall, paced = benchmark.pedantic(run_both_transports, rounds=1, iterations=1)
    stats = paced.transport_stats

    effective = paced.makespan_s / stats.wall_elapsed_s
    report(
        f"Sim-clock vs paced transport at --speedup {SPEEDUP:g} "
        f"({paced.n_runs} runs, {paced.total_samples} samples)",
        format_table(
            ["transport", "sim makespan", "real elapsed", "effective speedup"],
            [
                ("sim", f"{sim.makespan_s / 3600:.2f} h", f"{sim_wall:.2f} s", "-"),
                (
                    "paced",
                    f"{paced.makespan_s / 3600:.2f} h",
                    f"{stats.wall_elapsed_s:.2f} s",
                    f"{effective:.0f}x",
                ),
            ],
        )
        + "\n\n"
        + format_table(
            ["completion delivery", "value"],
            [
                ("completions delivered", stats.delivered),
                ("duplicates rejected", stats.rejected_duplicate),
                ("late rejected", stats.rejected_late),
                ("timed out", stats.timed_out),
                ("mean latency", f"{stats.mean_delivery_latency_s * 1000:.2f} ms"),
                ("max latency", f"{stats.max_delivery_latency_s * 1000:.2f} ms"),
            ],
        ),
    )

    # Identical science, sample for sample.
    assert [run.best_score for run in paced.runs] == [run.best_score for run in sim.runs]
    for sim_run, paced_run in zip(sim.runs, paced.runs):
        np.testing.assert_allclose(sim_run.scores(), paced_run.scores())
    # Every completion was delivered out-of-band, none lost or duplicated.
    assert stats.delivered > 0
    assert stats.timed_out == 0
    assert stats.rejected_duplicate == 0 and stats.rejected_late == 0
    # Pacing is real: the campaign took at least its simulated time / speedup
    # (serialised on one lane), and delivery latency stayed sane.
    assert stats.wall_elapsed_s >= 0.8 * paced.makespan_s / SPEEDUP
    assert stats.mean_delivery_latency_s < 1.0
