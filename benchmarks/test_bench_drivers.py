"""Benchmark: the wire transport delivers sim-identical science in real time.

A campaign run with ``--transport wire --speedup 1000`` produces per-run
scores identical to the sim-clock engine, with every action completion
delivered out-of-band from the transport's reader thread.  This benchmark
runs both modes, verifies the science matches sample-for-sample, and reports
the transport's real elapsed time, effective speedup and completion-delivery
latency (the "Speedup pacing" table in ``docs/drivers.md``).
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
    wire = run_campaign(
        experiment_id="bench-wire-transport",
        transport="wire",
        speedup=SPEEDUP,
        **shared,
    )
    return sim, sim_wall, wire


@pytest.mark.benchmark(group="drivers")
def test_wire_transport_matches_sim_and_reports_latency(benchmark, report):
    sim, sim_wall, wire = benchmark.pedantic(run_both_transports, rounds=1, iterations=1)
    stats = wire.transport_stats

    effective = wire.makespan_s / stats.wall_elapsed_s
    report(
        f"Sim-clock vs wire transport at --speedup {SPEEDUP:g} "
        f"({wire.n_runs} runs, {wire.total_samples} samples)",
        format_table(
            ["transport", "sim makespan", "real elapsed", "effective speedup"],
            [
                ("sim", f"{sim.makespan_s / 3600:.2f} h", f"{sim_wall:.2f} s", "-"),
                (
                    "wire",
                    f"{wire.makespan_s / 3600:.2f} h",
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
    assert wire.transport == "wire"
    assert wire.makespan_s == sim.makespan_s
    assert [run.best_score for run in wire.runs] == [run.best_score for run in sim.runs]
    for sim_run, wire_run in zip(sim.runs, wire.runs):
        np.testing.assert_allclose(sim_run.scores(), wire_run.scores())
    # Every completion was delivered out-of-band, none lost or duplicated.
    assert stats.delivered > 0
    assert stats.timed_out == 0
    assert stats.rejected_duplicate == 0 and stats.rejected_late == 0
    # Pacing is real: the campaign took at least its simulated time / speedup
    # (serialised on one lane), and delivery latency stayed sane.
    assert stats.wall_elapsed_s >= 0.8 * wire.makespan_s / SPEEDUP
    assert stats.mean_delivery_latency_s < 1.0
