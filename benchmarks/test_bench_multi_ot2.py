"""Benchmark: the Section 4 "multiple OT-2s" ablation.

The paper's discussion proposes integrating additional OT-2s "so that multiple
plates of colors could be mixed at once.  This would lead to an increase in
CCWH, but potentially a lower TWH for the same experimental results."  This
benchmark quantifies that trade-off two ways:

* the same 128-sample workload (8 runs of 16 samples, batches of 16) is
  executed as a campaign on 1, 2 and 4 OT-2 lanes, reporting makespan and
  robotic commands;
* the full application runs against a two-OT-2 workcell, alternating batches
  between the OT-2s, and is compared with the single-OT-2 run.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.app import ColorPickerApp
from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig

N_SAMPLES = 128
BATCH_SIZE = 16
SEED = 99


def run_lane_ablation():
    return {
        n_ot2: run_campaign(
            n_runs=N_SAMPLES // BATCH_SIZE,
            samples_per_run=BATCH_SIZE,
            batch_size=BATCH_SIZE,
            measurement="direct",
            seed=SEED,
            n_ot2=n_ot2,
            experiment_id=f"multi-ot2-x{n_ot2}",
        )
        for n_ot2 in (1, 2, 4)
    }


def robotic_commands(campaign) -> int:
    return sum(run.metrics.commands_completed for run in campaign.runs)


@pytest.mark.benchmark(group="multi-ot2")
def test_multi_ot2_lane_ablation(benchmark, report):
    campaigns = benchmark.pedantic(run_lane_ablation, rounds=1, iterations=1)

    rows = [
        (
            n_ot2,
            f"{campaign.makespan_s / 3600:.2f} h",
            robotic_commands(campaign),
            f"{campaign.best_score:.2f}",
        )
        for n_ot2, campaign in campaigns.items()
    ]
    report(
        "Multi-OT-2 ablation (executed): makespan vs. number of liquid handlers",
        format_table(["OT-2s", "makespan (TWH)", "robotic commands", "best score"], rows),
    )

    assert all(campaign.total_samples == N_SAMPLES for campaign in campaigns.values())
    # CCWH (robotic commands for the same workload) is unchanged...
    assert robotic_commands(campaigns[1]) == robotic_commands(campaigns[2]) == robotic_commands(campaigns[4])
    # ...while TWH (makespan) drops with more OT-2s, which is the paper's point.
    assert campaigns[2].makespan_s < campaigns[1].makespan_s
    assert campaigns[4].makespan_s <= campaigns[2].makespan_s
    # Two OT-2s should get close to halving the mix-dominated makespan.
    assert campaigns[2].makespan_s < campaigns[1].makespan_s * 0.75


def run_dual_ot2_application(make_workcell):
    """Run half the budget on each OT-2 of a dual-OT-2 workcell."""
    workcell = make_workcell(seed=SEED, n_ot2=2)
    results = []
    for index, (ot2, barty) in enumerate((("ot2", "barty"), ("ot2_2", "barty_2"))):
        config = ExperimentConfig(
            n_samples=N_SAMPLES // 2,
            batch_size=BATCH_SIZE,
            seed=SEED + index,
            measurement="direct",
            publish=False,
            experiment_id="multi-ot2",
            run_id=f"multi-ot2-{ot2}",
        )
        app = ColorPickerApp(config, workcell=workcell, ot2=ot2, barty=barty)
        results.append(app.run())
    return workcell, results


@pytest.mark.benchmark(group="multi-ot2")
def test_multi_ot2_application_run(benchmark, report, make_workcell):
    workcell, results = benchmark.pedantic(
        run_dual_ot2_application, args=(make_workcell,), rounds=1, iterations=1
    )

    total_samples = sum(result.n_samples for result in results)
    total_commands = workcell.total_commands(robotic_only=True)
    report(
        "Multi-OT-2 ablation (application): two OT-2s sharing one workcell",
        format_table(
            ["ot2", "samples", "best score"],
            [
                (result.config.run_id.split("-")[-1], result.n_samples, f"{result.best_score:.2f}")
                for result in results
            ],
        ),
    )

    assert total_samples == N_SAMPLES
    # Both OT-2s did real work.
    assert workcell.module("ot2").device.wells_filled == N_SAMPLES // 2
    assert workcell.module("ot2_2").device.wells_filled == N_SAMPLES // 2
    # Commands scale with the workload regardless of which OT-2 executed it
    # (~3 robotic commands per batch iteration plus plate handling).
    assert total_commands >= 3 * (N_SAMPLES // BATCH_SIZE)
