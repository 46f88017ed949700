"""Tests for the concurrent multi-plate modes of campaign / sweep / CLI."""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.app import ColorPickerApp
from repro.core.batch import run_batch_sweep
from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.sim.faults import FaultPolicy
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.workcell import build_color_picker_workcell


class TestConcurrentCampaign:
    def _campaigns(self):
        shared = dict(n_runs=3, samples_per_run=6, batch_size=3, seed=31)
        sequential = run_campaign(experiment_id="seq", **shared)
        concurrent = run_campaign(experiment_id="conc", n_ot2=2, **shared)
        return sequential, concurrent

    def test_concurrent_campaign_completes_all_runs(self):
        _, concurrent = self._campaigns()
        assert concurrent.n_runs == 3
        assert concurrent.total_samples == 18
        assert concurrent.n_ot2 == 2
        assert all(run.n_samples == 6 for run in concurrent.runs)

    def test_concurrent_campaign_is_faster_than_sequential(self):
        sequential, concurrent = self._campaigns()
        assert 0 < concurrent.makespan_s < sequential.makespan_s

    def test_portal_records_keep_campaign_order(self):
        _, concurrent = self._campaigns()
        experiment = concurrent.portal.get_experiment("conc")
        assert [record.run_index for record in experiment.runs] == [0, 1, 2]
        assert concurrent.detail_view(2)["run_index"] == 2

    def test_per_run_metrics_attribute_only_own_lane(self):
        _, concurrent = self._campaigns()
        for run in concurrent.runs:
            metrics = run.metrics
            assert metrics is not None
            # 3 robotic commands per iteration (2 transfers + mix) plus plate
            # handling; far below the whole-workcell command count.
            assert 0 < metrics.commands_completed <= 2 * 3 + 2 * 3 + 4
            assert metrics.synthesis_time_s > 0
            assert metrics.synthesis_time_s <= metrics.time_without_humans_s

    def test_more_lanes_than_runs(self):
        campaign = run_campaign(
            n_runs=2, samples_per_run=4, batch_size=2, seed=5, n_ot2=3, experiment_id="wide"
        )
        assert campaign.n_runs == 2
        assert campaign.total_samples == 8

    def test_invalid_n_ot2_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(n_runs=1, samples_per_run=2, n_ot2=0)


class TestShardedCampaign:
    def _campaigns(self):
        shared = dict(n_runs=4, samples_per_run=4, batch_size=2, seed=29)
        sequential = run_campaign(experiment_id="seq", **shared)
        sharded = run_campaign(experiment_id="shard", n_workcells=2, **shared)
        return sequential, sharded

    def test_sharded_campaign_completes_every_run_once(self):
        _, sharded = self._campaigns()
        assert sharded.n_runs == 4
        assert sharded.n_workcells == 2
        assert all(run.n_samples == 4 for run in sharded.runs)
        assert sorted(p.job_index for p in sharded.assignments) == [0, 1, 2, 3]
        assert {p.shard for p in sharded.assignments} == {0, 1}

    def test_sharding_shrinks_the_makespan(self):
        sequential, sharded = self._campaigns()
        assert 0 < sharded.makespan_s < sequential.makespan_s
        assert sharded.makespan_s == pytest.approx(max(sharded.workcell_makespans))
        assert len(sharded.workcell_makespans) == 2

    def test_portal_view_is_merged_with_stable_run_indexes(self):
        _, sharded = self._campaigns()
        experiment = sharded.portal.get_experiment("shard")
        assert [record.run_index for record in experiment.runs] == [0, 1, 2, 3]
        workcells = {record.metadata["workcell"] for record in experiment.runs}
        assert workcells == {"workcell-0", "workcell-1"}
        summary = sharded.summary_view()
        assert summary["n_runs"] == 4
        assert summary["total_samples"] == 16

    def test_workcells_combine_with_lanes(self):
        campaign = run_campaign(
            n_runs=4,
            samples_per_run=4,
            batch_size=2,
            seed=11,
            n_ot2=2,
            n_workcells=2,
            experiment_id="grid",
        )
        assert campaign.n_runs == 4
        lanes_used = {(p.workcell, p.lane) for p in campaign.assignments}
        assert len(lanes_used) >= 2  # runs spread over the 2x2 lane grid

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(n_runs=1, samples_per_run=2, n_workcells=0)
        with pytest.raises(ValueError):
            run_campaign(n_runs=1, samples_per_run=2, assignment="psychic")


class TestAssignmentPolicies:
    def test_static_campaign_assignment_still_supported(self):
        campaign = run_campaign(
            n_runs=3,
            samples_per_run=4,
            batch_size=2,
            seed=23,
            n_ot2=2,
            assignment="static",
            experiment_id="pinned",
        )
        # Static mode pins run i to lane i % 2, recorded in the assignments.
        lanes = [p.lane[0] for p in campaign.assignments]
        assert lanes == ["ot2", "ot2_2", "ot2"]

    def test_static_and_stealing_scores_match(self):
        shared = dict(batch_sizes=(2, 4), n_samples=8, seed=17, n_ot2=2)
        static = run_batch_sweep(assignment="static", **shared)
        stealing = run_batch_sweep(**shared)
        for size in (2, 4):
            np.testing.assert_allclose(
                static.experiments[size].scores(), stealing.experiments[size].scores()
            )

    def test_invalid_sweep_assignment_rejected(self):
        with pytest.raises(ValueError):
            run_batch_sweep(batch_sizes=(1,), n_samples=2, n_ot2=2, assignment="psychic")


class TestConcurrentFaultRecovery:
    def test_lanes_recover_from_unrecoverable_faults_without_deadlock(self):
        """Interventions clear a lane's stranded plates -- including a plate
        dropped between get_plate and its transfer, which sits at the shared
        exchange and used to block every lane's plate fetches forever."""
        policy = FaultPolicy(command_failure={"pf400": 0.25}, unrecoverable_fraction=1.0)
        workcell = build_color_picker_workcell(seed=13, n_ot2=2, fault_policy=policy)
        engine = ConcurrentWorkflowEngine(workcell)
        apps = []
        for index, (ot2, barty) in enumerate(workcell.ot2_barty_pairs()):
            config = ExperimentConfig(
                n_samples=8,
                batch_size=4,
                seed=13,
                publish=False,
                recover_from_failures=True,
                max_interventions=10,
                experiment_id="faulty",
                run_id=f"faulty-{index}",
            )
            apps.append(
                ColorPickerApp(config, workcell=workcell, ot2=ot2, barty=barty, staging="ot2")
            )
        handles = [
            engine.submit_program(app.program(), name=f"lane{i}") for i, app in enumerate(apps)
        ]
        engine.run_until_complete()
        results = [handle.result for handle in handles]
        assert all(result.n_samples == 8 for result in results)
        # The chosen seed/policy injects at least one unrecoverable failure.
        assert sum(result.interventions for result in results) >= 1
        for result in results:
            assert result.metrics.commands_completed > 0


class TestConcurrentSweep:
    def test_concurrent_sweep_matches_sequential_results(self):
        shared = dict(batch_sizes=(2, 4), n_samples=8, seed=17)
        sequential = run_batch_sweep(**shared)
        concurrent = run_batch_sweep(n_ot2=2, **shared)
        assert concurrent.batch_sizes == [2, 4]
        assert concurrent.n_ot2 == 2
        assert concurrent.makespan_s > 0
        for size in (2, 4):
            np.testing.assert_allclose(
                sequential.experiments[size].scores(), concurrent.experiments[size].scores()
            )

    def test_invalid_n_ot2_rejected(self):
        with pytest.raises(ValueError):
            run_batch_sweep(batch_sizes=(1,), n_samples=2, n_ot2=0)

    def test_concurrent_sweep_preserves_caller_order(self):
        sweep = run_batch_sweep(batch_sizes=(8, 2), n_samples=8, seed=9, n_ot2=2)
        # The raw experiments dict keeps the caller's order, exactly like the
        # sequential path (batch_sizes property sorts in both modes).
        assert list(sweep.experiments) == [8, 2]
        assert sweep.batch_sizes == [2, 8]


class TestCliNOt2:
    def test_campaign_command_accepts_n_ot2(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--runs",
                    "2",
                    "--samples-per-run",
                    "4",
                    "--seed",
                    "3",
                    "--n-ot2",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Concurrent campaign on 2 OT-2 lanes" in out

    def test_sweep_command_accepts_n_ot2(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--batch-sizes",
                    "2,4",
                    "--samples",
                    "4",
                    "--seed",
                    "3",
                    "--n-ot2",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Concurrent sweep on 2 OT-2 lanes" in out


def _experiment_science(result):
    data = result.to_dict()
    # Plate barcodes come from a process-wide counter, so they depend on what
    # ran earlier in the process; they label plates and carry no science.
    for sample in data["samples"]:
        del sample["plate_barcode"]
    return {"result": data, "elapsed_s": result.elapsed_s}


def _parity_science(case):
    kind, measurement, *args = case
    if kind == "app":
        seed, batch_size = args
        config = ExperimentConfig(
            n_samples=6,
            batch_size=batch_size,
            seed=seed,
            measurement=measurement,
            experiment_id="pin",
            run_id="pin",
        )
        return _experiment_science(ColorPickerApp(config).run())
    n_ot2, assignment = args
    # Caller order differs from the longest-predicted-first order, so
    # "stealing-lpt" claims differently from "work-stealing".
    sweep = run_batch_sweep(
        (2, 4, 1, 3),
        n_samples=6,
        seed=7,
        measurement=measurement,
        n_ot2=n_ot2,
        assignment=assignment,
    )
    return {
        "experiments": {
            str(size): _experiment_science(result) for size, result in sweep.experiments.items()
        },
        "makespan_s": sweep.makespan_s,
    }


#: sha256 prefixes of the science of a single ``ColorPickerApp.run()``
#: (``("app", measurement, seed, batch_size)``: samples, scores, metrics and
#: ``elapsed_s``) and of a lane sweep (``("sweep", measurement, n_ot2,
#: assignment)``: per-experiment science plus ``makespan_s``).  They were
#: recorded before the sequential engine and the single-engine lane runners
#: were replaced, and are the reference every execution path must reproduce.
#: They were re-baselined once, when camera frames became lazy: each frame's
#: pose and pixel noise moved onto a stream keyed by one device-rng draw, so
#: direct-mode digests moved only through the camera's duration jitter
#: (timing fields) and vision-mode digests also through the pixel noise.
#: The vision-mode pins moved once more, alone, when a frame's pixel noise
#: became a slice of the per-process noise bank (``repro.vision.render``)
#: at an offset drawn from the frame's stream; direct mode was unchanged.
PARITY_PINS = [
    (("app", "direct", 3, 1), "a7cc2905d42e4d76"),
    (("app", "direct", 3, 3), "cb2c6a47f8c1f2e9"),
    (("app", "direct", 42, 1), "5a78e21bdea13699"),
    (("app", "direct", 42, 3), "cc3264ed39378d51"),
    (("app", "direct", 816, 1), "d115afd341292fa1"),
    (("app", "direct", 816, 3), "23fafdec9314371a"),
    (("app", "vision", 3, 1), "a8fd993dafbb00b9"),
    (("app", "vision", 3, 3), "8edf1c734110028f"),
    (("app", "vision", 42, 1), "8f861b6004d52346"),
    (("app", "vision", 42, 3), "2e1f18c86d265531"),
    (("app", "vision", 816, 1), "cfb0bd0c59eeea52"),
    (("app", "vision", 816, 3), "5b01c03e6fe836ba"),
    (("sweep", "direct", 2, "static"), "98e51192c96439ab"),
    (("sweep", "direct", 2, "work-stealing"), "974a7415090fb681"),
    (("sweep", "direct", 2, "stealing-lpt"), "0f2dda7b8262b793"),
    (("sweep", "direct", 3, "static"), "a69e7ee6ad8a61b8"),
    (("sweep", "direct", 3, "work-stealing"), "0293739c7c3c395b"),
    (("sweep", "direct", 3, "stealing-lpt"), "be6986ebdd8bec96"),
    (("sweep", "vision", 2, "static"), "202ec0195da33f79"),
    (("sweep", "vision", 2, "work-stealing"), "20eb542b7c6bebe0"),
    (("sweep", "vision", 2, "stealing-lpt"), "4d1e39b6a5750234"),
    (("sweep", "vision", 3, "static"), "4cef7bf967773d3e"),
    (("sweep", "vision", 3, "work-stealing"), "88b141d247df8ff4"),
    (("sweep", "vision", 3, "stealing-lpt"), "a686882761f2a208"),
]


@pytest.mark.parametrize(
    "case,expected", PARITY_PINS, ids=["-".join(map(str, case)) for case, _ in PARITY_PINS]
)
def test_science_matches_parity_pin(case, expected):
    science = _parity_science(case)
    assert hashlib.sha256(json.dumps(science, sort_keys=True).encode()).hexdigest()[:16] == expected
