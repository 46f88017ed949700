"""Tests for multi-run campaigns (Figure 3 machinery)."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.app import ColorPickerApp
from repro.core.campaign import predict_experiment_duration, run_campaign, workcell_stock
from repro.core.experiment import ExperimentConfig
from repro.publish.portal import DataPortal
from repro.sim.durations import paper_calibrated_durations
from repro.wei.chaos.soak import campaign_fingerprint
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import MultiWorkcellCoordinator, ShardAssignment
from repro.wei.workcell import build_color_picker_workcell


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(n_runs=4, samples_per_run=5, seed=1, experiment_id="test-campaign")


class TestCampaign:
    def test_run_and_sample_counts(self, small_campaign):
        assert small_campaign.n_runs == 4
        assert small_campaign.total_samples == 20

    def test_portal_has_one_record_per_run(self, small_campaign):
        portal = small_campaign.portal
        assert portal.n_runs == 4
        experiment = portal.get_experiment("test-campaign")
        assert experiment.n_samples == 20

    def test_summary_view_matches_figure3_fields(self, small_campaign):
        summary = small_campaign.summary_view()
        assert summary["n_runs"] == 4
        assert summary["total_samples"] == 20
        assert summary["samples_per_run"] == [5, 5, 5, 5]
        assert summary["best_score"] == pytest.approx(small_campaign.best_score)

    def test_detail_view_for_each_run(self, small_campaign):
        for run_index in range(4):
            detail = small_campaign.detail_view(run_index)
            assert detail["run_index"] == run_index
            assert detail["n_samples"] == 5
            assert len(detail["samples"]) == 5
        with pytest.raises(KeyError):
            small_campaign.detail_view(99)

    def test_runs_have_timing_breakdown(self, small_campaign):
        record = small_campaign.portal.search(experiment_id="test-campaign")[0]
        assert record.timings["elapsed_s"] > 0
        assert record.timings["synthesis_s"] > 0


class TestCampaignOptions:
    def test_targets_cycle(self):
        campaign = run_campaign(
            n_runs=3,
            samples_per_run=3,
            seed=2,
            targets=["teal", "plum"],
            experiment_id="targets-campaign",
        )
        records = campaign.portal.search(experiment_id="targets-campaign")
        target_sets = {tuple(record.target_rgb) for record in records}
        assert len(target_sets) == 2

    def test_shared_portal_accumulates_campaigns(self):
        portal = DataPortal()
        run_campaign(n_runs=2, samples_per_run=3, seed=3, experiment_id="camp-a", portal=portal)
        run_campaign(n_runs=2, samples_per_run=3, seed=4, experiment_id="camp-b", portal=portal)
        assert portal.n_experiments == 2
        assert portal.n_runs == 4

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(n_runs=0)
        with pytest.raises(ValueError):
            run_campaign(samples_per_run=0)


class TestCampaignStock:
    """Workcells built by ``run_campaign`` are stocked for the whole campaign.

    Any lane may claim every run, so the default 40 plates and 500 ml of
    each dye (25 reservoir fills per barty) would run dry mid-campaign.
    """

    def test_one_lane_outlasts_one_bartys_default_dye(self):
        campaign = run_campaign(n_runs=30, samples_per_run=2, seed=3, experiment_id="dye")
        assert campaign.n_runs == 30

    def test_wire_campaign_outlasts_one_bartys_default_dye(self):
        campaign = run_campaign(
            n_runs=30, samples_per_run=2, transport="wire", speedup=1e6, experiment_id="wire-dye"
        )
        assert campaign.n_runs == 30
        assert campaign.transport_stats.timed_out == 0

    def test_two_lanes_outlast_the_default_plate_towers(self):
        campaign = run_campaign(n_runs=60, samples_per_run=2, n_ot2=2, experiment_id="plates")
        assert campaign.n_runs == 60
        assert campaign.portal.n_runs == 60

    def test_short_job_lists_keep_the_bench_defaults(self):
        configs = [ExperimentConfig(n_samples=15, batch_size=1, seed=i) for i in range(12)]
        assert workcell_stock(configs) == {"plates_per_tower": 20, "bulk_capacity_ul": 500_000.0}

    def test_stock_counts_plate_loads_per_job(self):
        # B=7 packs 13 batches (91 wells) per plate: 100 samples need 2 plates.
        configs = [ExperimentConfig(n_samples=100, batch_size=7, seed=i) for i in range(15)]
        stock = workcell_stock(configs)
        assert stock["plates_per_tower"] == 30
        assert stock["bulk_capacity_ul"] == (30 + 1) * 20_000.0 + 15 * 100 * 80.0


class TestPredictorParity:
    """``predict_experiment_duration`` matches the program it predicts.

    With a zero-jitter table the prediction must equal the simulated elapsed
    time exactly, minus the two action families the predictor deliberately
    excludes (reservoir refills and tip replacement -- resource maintenance
    that depends on run history, see the predictor docstring).
    """

    #: 1, 2 and 3 full plates, plus a batch size that does not divide 96
    #: (partial final batch on each plate) and one that leaves a plate
    #: part-filled (N=100, B=7 -> 2 plates).
    CONFIGS = [(96, 4), (192, 4), (288, 4), (96, 8), (10, 4), (100, 7)]

    EXCLUDED = {("barty", "refill_colors"), ("ot2", "replace_tips")}

    @pytest.mark.parametrize("n_samples,batch_size", CONFIGS)
    def test_prediction_equals_program_elapsed(self, n_samples, batch_size):
        table = paper_calibrated_durations(jitter_cv=0.0)
        config = ExperimentConfig(
            n_samples=n_samples,
            batch_size=batch_size,
            solver="random",
            seed=5,
            publish=False,
            measurement="direct",
        )
        # Deep plate towers and an effectively bottomless reservoir keep the
        # run free of mid-campaign restocking, which the predictor excludes.
        workcell = build_color_picker_workcell(
            seed=5, durations=table, plates_per_tower=50, bulk_capacity_ul=1e9
        )
        result = ColorPickerApp(config, workcell=workcell).run()
        records = workcell.action_records()
        excluded = sum(
            record.duration
            for record in records
            if (record.module, record.action) in self.EXCLUDED
        )
        predicted = predict_experiment_duration(config, durations=table)
        assert predicted == pytest.approx(result.elapsed_s - excluded)
        # The per-plate walk is real: one fetch and one drain per plate.
        plates = -(-n_samples // 96)
        assert sum(1 for r in records if r.action == "get_plate") == plates
        assert sum(1 for r in records if r.action == "drain_colors") == plates

    def test_prediction_uses_the_given_table(self):
        config = ExperimentConfig(n_samples=8, batch_size=4, solver="random", seed=1)
        base = paper_calibrated_durations(jitter_cv=0.0)
        slow = base.scaled({"ot2": 2.0})
        assert predict_experiment_duration(config, durations=slow) > predict_experiment_duration(
            config, durations=base
        )


class TestHeterogeneousCampaign:
    """``module_speeds`` and an explicit coordinator: what is rejected.

    That per-workcell speed profiles leave the science unchanged is
    ``tests/properties/test_execution_oracle.py``'s job.
    """

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError, match="unknown module"):
            run_campaign(
                n_runs=2, samples_per_run=3, seed=1, n_workcells=2,
                module_speeds={"warp_drive": 2.0},
            )

    def test_module_speeds_with_explicit_coordinator_rejected(self):
        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=1)
        with pytest.raises(ValueError, match="module_speeds"):
            run_campaign(
                n_runs=2, samples_per_run=3, seed=1,
                coordinator=coordinator, module_speeds={"ot2": 2.0},
            )

    def test_transport_or_chaos_with_explicit_coordinator_rejected(self):
        """An explicit coordinator's engines keep their own transports: a
        transport or chaos schedule passed beside it is an error, not a
        silent sim run reported as the requested transport."""
        from repro.wei.chaos import ChaosSchedule

        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(1, seed=816)
        with pytest.raises(ValueError, match="explicit coordinator"):
            run_campaign(
                n_runs=1, samples_per_run=2, coordinator=coordinator,
                transport="wire", chaos=ChaosSchedule(101),
            )
        with pytest.raises(ValueError, match="explicit coordinator"):
            run_campaign(
                n_runs=1, samples_per_run=2, coordinator=coordinator, transport="wire"
            )
        assert coordinator.assignments == []

    def test_removed_paced_transport_rejected(self):
        """``"paced"`` is no longer a transport mode: asking for it fails up
        front and names the modes that remain."""
        with pytest.raises(ValueError, match=r"unknown transport 'paced'.*\('sim', 'wire'\)"):
            run_campaign(n_runs=1, samples_per_run=2, seed=1, transport="paced")


class TestStreamingElasticCampaign:
    SEED = 11
    N_RUNS = 6
    SAMPLES = 4

    def test_records_stream_before_run_jobs_returns(self):
        """Every run's record must be in the portal at the moment its
        shard-completion callback fires -- streamed, not merged post-hoc."""
        portal = DataPortal()
        seen = []

        def inspect(completion):
            record = portal.get_run(completion.job.run_id)
            assert record.run_index == completion.job_index
            assert record.metadata["workcell"] == completion.assignment.workcell
            assert list(record.metadata["lane"]) == list(completion.assignment.lane)
            seen.append(completion.job_index)

        campaign = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            portal=portal,
            experiment_id="streamed",
            n_workcells=2,
            on_run_complete=inspect,
        )
        assert sorted(seen) == list(range(self.N_RUNS))
        assert portal.n_runs == self.N_RUNS
        assert campaign.portal.get_experiment("streamed").n_samples == self.N_RUNS * self.SAMPLES

    def test_elastic_campaign_matches_sequential_scores(self):
        """Attach mid-flight, drain before the end: per-run scores stay
        identical to the sequential campaign and the portal stays complete."""
        sequential = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            experiment_id="seq",
        )

        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=self.SEED)
        portal = DataPortal()
        completions = []

        def reshape_fleet(completion):
            assert portal.get_run(completion.job.run_id) is not None
            completions.append(completion.job_index)
            if len(completions) == 2:
                workcell = build_color_picker_workcell(name="workcell-late", seed=77)
                coordinator.attach_workcell(
                    ConcurrentWorkflowEngine(workcell),
                    lanes=workcell.ot2_barty_pairs()[:1],
                )
            if len(completions) == 4:
                active = [s for s in coordinator.status().shards if s.state == "active"]
                if len(active) > 1:
                    coordinator.drain_workcell(active[0].shard_id)

        elastic = run_campaign(
            n_runs=self.N_RUNS,
            samples_per_run=self.SAMPLES,
            seed=self.SEED,
            portal=portal,
            experiment_id="elastic",
            coordinator=coordinator,
            on_run_complete=reshape_fleet,
        )

        assert sorted(completions) == list(range(self.N_RUNS))
        assert portal.n_runs == self.N_RUNS
        assert coordinator.n_workcells == 3
        assert elastic.n_workcells == 3
        events = [e["event"] for e in coordinator.fleet_events]
        assert "workcell-attached" in events
        assert "workcell-retired" in events
        # The science is placement-independent: identical per-run scores.
        for seq_run, elastic_run in zip(sequential.runs, elastic.runs):
            np.testing.assert_allclose(seq_run.scores(), elastic_run.scores())
        # Portal run_indexes are stable regardless of completion order.
        runs = portal.get_experiment("elastic").runs
        assert [run.run_index for run in runs] == list(range(self.N_RUNS))

    def test_sequential_campaign_fires_completion_hook(self):
        seen = []
        run_campaign(
            n_runs=2,
            samples_per_run=3,
            seed=5,
            experiment_id="seq-hook",
            on_run_complete=lambda completion: seen.append(
                (completion.job_index, completion.assignment)
            ),
        )
        # A one-lane campaign runs on a one-shard coordinator, so each run
        # carries the lane that executed it.
        lane = ShardAssignment(job_index=0, shard=0, workcell="workcell-0", lane=("ot2", "barty"))
        assert seen == [(0, lane), (1, replace(lane, job_index=1))]


class TestSeededCampaignIsProcessIndependent:
    def test_same_seed_publishes_the_same_records_twice_in_one_process(self):
        def published():
            campaign = run_campaign(2, 2, seed=7)
            records = campaign.portal.search(experiment_id=campaign.experiment_id)
            return [record.to_dict() for record in records]

        first, second = published(), published()
        barcodes = [sample["plate_barcode"] for record in first for sample in record["samples"]]
        assert barcodes == ["sciclops-t0-0001"] * 2 + ["sciclops-t0-0002"] * 2
        # Barcodes included: each plate tower counts its own plates.
        assert second == first


class TestFleetDirectPin:
    """The ``fleet_direct`` benchmark shape, pinned bit for bit.

    Four work-stealing workcells run 24 runs of 4 samples in batches of 2,
    direct measurement, seed 816 (``perfbench/workloads.py``).  Engine and
    labware bookkeeping must not move the science or a single timestamp.
    """

    DIGEST = "d95268998e097c7e"
    MAKESPAN_S = 5826.826884711815

    def test_fingerprint_and_makespan(self):
        fleet = MultiWorkcellCoordinator.build_color_picker_fleet(
            4, seed=816, plates_per_tower=24, bulk_capacity_ul=1e9
        )
        campaign = run_campaign(
            24,
            4,
            experiment_id="bench-fleet_direct",
            batch_size=2,
            solver="evolutionary",
            measurement="direct",
            seed=816,
            portal=DataPortal(),
            coordinator=fleet,
        )
        blob = json.dumps(campaign_fingerprint(campaign), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16] == self.DIGEST
        assert campaign.makespan_s == self.MAKESPAN_S
