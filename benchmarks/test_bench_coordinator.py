"""Benchmark: work-stealing vs. static lane pinning, and multi-workcell sharding.

Two claims of the two-phase/coordinator PR are measured here:

* on an *uneven-duration* workload (the Figure 4 batch-size sweep, where the
  B=1 experiment issues ~8x the transfers of the B=32 one) least-finish-time
  work stealing beats pinning experiment ``i`` to lane ``i % k``;
* sharding a campaign across two coordinated workcells cuts the makespan
  close to in half while publishing the identical per-run science.
"""

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.core.batch import run_batch_sweep
from repro.core.campaign import color_picker_programs, predict_experiment_duration, run_campaign
from repro.core.experiment import ExperimentConfig

SEED = 99
#: Deliberately skewed sweep: B=1 runs far longer than B=32 at equal samples,
#: and the ordering pins both long experiments (B=1, B=2) to lane 0 under
#: static i % k -- the pathological split work stealing repairs.
UNEVEN_BATCH_SIZES = (1, 32, 2, 16)


def run_sweeps():
    shared = dict(batch_sizes=UNEVEN_BATCH_SIZES, n_samples=32, seed=SEED, n_ot2=2)
    static = run_batch_sweep(assignment="static", **shared)
    stealing = run_batch_sweep(assignment="work-stealing", **shared)
    return static, stealing


@pytest.mark.benchmark(group="coordinator")
def test_work_stealing_beats_static_pinning_on_uneven_sweep(benchmark, report):
    static, stealing = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)

    report(
        "Uneven-duration sweep on 2 OT-2 lanes: static i % k vs. work stealing",
        format_table(
            ["assignment", "makespan", "speedup"],
            [
                ("static i % k", f"{static.makespan_s / 3600:.2f} h", "1.00x"),
                (
                    "work-stealing",
                    f"{stealing.makespan_s / 3600:.2f} h",
                    f"{static.makespan_s / stealing.makespan_s:.2f}x",
                ),
            ],
        ),
    )

    # The science is identical either way...
    for size in UNEVEN_BATCH_SIZES:
        np.testing.assert_allclose(
            static.experiments[size].scores(), stealing.experiments[size].scores()
        )
    # ...but the dynamic assignment finishes strictly earlier on this skew.
    assert stealing.makespan_s < static.makespan_s


def run_sharded_campaigns():
    shared = dict(
        n_runs=6, samples_per_run=12, batch_size=6, measurement="direct", seed=SEED
    )
    single = run_campaign(experiment_id="bench-single", **shared)
    sharded = run_campaign(experiment_id="bench-fleet", n_workcells=2, **shared)
    return single, sharded


@pytest.mark.benchmark(group="coordinator")
def test_two_workcell_fleet_halves_campaign_makespan(benchmark, report):
    single, sharded = benchmark.pedantic(run_sharded_campaigns, rounds=1, iterations=1)

    shards = ", ".join(f"{m / 3600:.2f} h" for m in sharded.workcell_makespans)
    report(
        "Campaign on one workcell vs. a coordinated two-workcell fleet",
        format_table(
            ["fleet", "runs", "makespan", "speedup"],
            [
                ("1 workcell", single.n_runs, f"{single.makespan_s / 3600:.2f} h", "1.00x"),
                (
                    f"2 workcells ({shards})",
                    sharded.n_runs,
                    f"{sharded.makespan_s / 3600:.2f} h",
                    f"{single.makespan_s / sharded.makespan_s:.2f}x",
                ),
            ],
        ),
    )

    for seq_run, shard_run in zip(single.runs, sharded.runs):
        np.testing.assert_allclose(seq_run.scores(), shard_run.scores())
    assert sharded.makespan_s < single.makespan_s
    # Even runs shard cleanly: two workcells should approach a 2x speedup.
    assert single.makespan_s / sharded.makespan_s > 1.6


#: Adversarial queue for plain FIFO stealing: three short runs arrive before
#: one long run, so greedy in-order claiming starts the long run *last* and
#: one lane finishes far behind the other.  LPT ordering (longest predicted
#: duration first, from DurationTable means) starts it first.
LPT_SAMPLE_COUNTS = (4, 4, 4, 16)


def run_lpt_comparison(make_fleet):
    def uneven_jobs():
        return [
            ExperimentConfig(
                n_samples=n_samples,
                batch_size=4,
                solver="random",
                seed=SEED + index,
                publish=False,
                experiment_id="lpt-bench",
                run_id=f"lpt-bench-run{index}",
                run_index=index,
            )
            for index, n_samples in enumerate(LPT_SAMPLE_COUNTS)
        ]

    def run_fleet(assignment):
        coordinator = make_fleet(2, seed=SEED)

        lanes = [engine.workcell.ot2_barty_pairs()[:1] for engine in coordinator.engines]
        results = coordinator.run_jobs(
            uneven_jobs(),
            color_picker_programs(coordinator),
            lanes=lanes,
            assignment=assignment,
            duration_hint=predict_experiment_duration,
        )
        return coordinator, results

    fifo, fifo_results = run_fleet("work-stealing")
    lpt, lpt_results = run_fleet("stealing-lpt")
    return fifo, fifo_results, lpt, lpt_results


@pytest.mark.benchmark(group="coordinator")
def test_lpt_ordering_beats_fifo_stealing_on_skewed_runs(benchmark, report, make_fleet):
    fifo, fifo_results, lpt, lpt_results = benchmark.pedantic(
        run_lpt_comparison, args=(make_fleet,), rounds=1, iterations=1
    )

    report(
        "Skewed campaign (samples %s) on a 2-workcell fleet: FIFO vs LPT queue order"
        % (LPT_SAMPLE_COUNTS,),
        format_table(
            ["queue order", "makespan", "speedup"],
            [
                ("work-stealing (FIFO)", f"{fifo.makespan / 3600:.2f} h", "1.00x"),
                (
                    "stealing-lpt (longest first)",
                    f"{lpt.makespan / 3600:.2f} h",
                    f"{fifo.makespan / lpt.makespan:.2f}x",
                ),
            ],
        ),
    )

    # Queue order never changes the science, only the placement in time.
    for fifo_run, lpt_run in zip(fifo_results, lpt_results):
        np.testing.assert_allclose(fifo_run.scores(), lpt_run.scores())
    # Starting the long run first strictly shortens this skewed campaign.
    assert lpt.makespan < fifo.makespan


#: Heterogeneous fleet: workcell 0 runs at paper-calibrated speed, workcell 1
#: runs its OT-2 and arm twice as fast.  One big run among fifteen small ones
#: makes the placement of the big run decide the makespan.
HETERO_SPEEDS = ({}, {"ot2": 2.0, "pf400": 2.0})
HETERO_RUNS = [(64, 2)] + [(4, 4)] * 15


def run_heterogeneous_comparison(make_fleet):
    def skewed_jobs():
        return [
            ExperimentConfig(
                n_samples=n_samples,
                batch_size=batch_size,
                solver="random",
                seed=SEED + index,
                publish=False,
                experiment_id="hetero-bench",
                run_id=f"hetero-bench-run{index}",
                run_index=index,
            )
            for index, (n_samples, batch_size) in enumerate(HETERO_RUNS)
        ]

    def run_fleet(assignment, hint):
        coordinator = make_fleet(2, seed=SEED, module_speeds=list(HETERO_SPEEDS))

        lanes = [engine.workcell.ot2_barty_pairs()[:1] for engine in coordinator.engines]
        results = coordinator.run_jobs(
            skewed_jobs(),
            color_picker_programs(coordinator),
            lanes=lanes,
            assignment=assignment,
            duration_hint=hint,
        )
        return coordinator, results

    # Speed-blind: a hint that ignores the lane's table predicts from the
    # default calibration, so both shards look alike and the first free
    # (slow) lane takes the big run.  Lookahead: the predictor prices each
    # run on each lane's own table and re-ranks when a lane frees.
    blind, blind_results = run_fleet(
        "stealing-lpt", lambda config, _table: predict_experiment_duration(config)
    )
    lookahead, lookahead_results = run_fleet("lookahead", predict_experiment_duration)
    return blind, blind_results, lookahead, lookahead_results


@pytest.mark.benchmark(group="coordinator")
def test_lookahead_beats_speed_blind_lpt_on_heterogeneous_fleet(benchmark, report, make_fleet):
    blind, blind_results, lookahead, lookahead_results = benchmark.pedantic(
        run_heterogeneous_comparison, args=(make_fleet,), rounds=1, iterations=1
    )

    drift = ", ".join(
        "-" if shard.predictor_drift is None else f"{shard.predictor_drift:.3f}x"
        for shard in lookahead.status().shards
    )
    report(
        "Skewed 16-run campaign on a 2-workcell fleet with 2x module-speed skew",
        format_table(
            ["assignment", "makespan", "speedup", "big run on"],
            [
                (
                    "stealing-lpt (speed-blind)",
                    f"{blind.makespan / 3600:.2f} h",
                    "1.00x",
                    f"workcell-{blind.assignments[0].shard}",
                ),
                (
                    f"lookahead (drift {drift})",
                    f"{lookahead.makespan / 3600:.2f} h",
                    f"{blind.makespan / lookahead.makespan:.2f}x",
                    f"workcell-{lookahead.assignments[0].shard}",
                ),
            ],
        ),
    )

    # Identical science regardless of placement...
    for blind_run, lookahead_run in zip(blind_results, lookahead_results):
        np.testing.assert_allclose(blind_run.scores(), lookahead_run.scores())
    # ...but lookahead routes the big run to the fast workcell and finishes
    # strictly earlier.
    assert blind.assignments[0].shard == 0
    assert lookahead.assignments[0].shard == 1
    assert lookahead.makespan < blind.makespan
