"""Tests for seeded chaos schedules and the deterministic soak harness.

Covers :class:`~repro.wei.chaos.ChaosSchedule`'s replay/liveness contract,
the soak fingerprint/diff machinery, the full soak invariant over the
default CI seed matrix (marked ``soak``), and the regression satellite: a
wire campaign -- over a clean link, and under every default chaos seed --
produces scores and portal contents identical to ``transport="sim"``.
"""

import pytest

from repro.core.campaign import run_campaign
from repro.wei.chaos import ChaosDecision, ChaosSchedule
from repro.wei.chaos.soak import (
    DEFAULT_SEED_MATRIX,
    campaign_fingerprint,
    run_soak,
)

#: Small-but-real campaign shape shared by the regression matrix below.
CAMPAIGN = dict(n_runs=2, samples_per_run=3, batch_size=3, seed=42, n_workcells=2)

#: Wall-clock compression for transport-backed test campaigns: effectively
#: instant, but every frame still crosses the pipe and driver threads.
FAST = 1_000_000.0


class TestChaosSchedule:
    def test_decisions_replay_exactly_for_the_same_identity(self):
        first = ChaosSchedule(1234)
        second = ChaosSchedule(1234)
        for seq in range(200):
            for attempt in range(3):
                assert first.decide("w:tx", seq, attempt) == second.decide("w:tx", seq, attempt)

    def test_different_seeds_differ(self):
        a = ChaosSchedule(1)
        b = ChaosSchedule(2)
        decisions_a = [a.decide("w:tx", seq, 0) for seq in range(300)]
        decisions_b = [b.decide("w:tx", seq, 0) for seq in range(300)]
        assert decisions_a != decisions_b

    def test_directions_are_independent_streams(self):
        schedule = ChaosSchedule(7)
        tx = [schedule.decide("w:tx", seq, 0) for seq in range(300)]
        rx = [schedule.decide("w:rx", seq, 0) for seq in range(300)]
        assert tx != rx

    def test_default_rates_actually_inject_faults(self):
        schedule = ChaosSchedule(99, disconnect_rate=0.0)
        decisions = [schedule.decide("w:tx", seq, 0) for seq in range(500)]
        assert any(decision.drop for decision in decisions)
        assert any(decision.corrupt for decision in decisions)
        assert any(decision.duplicate for decision in decisions)
        assert any(decision.delay_s > 0 for decision in decisions)

    def test_liveness_guard_clean_after_n_attempts(self):
        schedule = ChaosSchedule(5, drop_rate=1.0, corrupt_rate=0.0, duplicate_rate=0.0,
                                 delay_rate=0.0, disconnect_rate=0.0, clean_after=4)
        for seq in range(50):
            for attempt in range(4):
                assert schedule.decide("w:tx", seq, attempt).drop
            assert schedule.decide("w:tx", seq, 4) == ChaosDecision()

    def test_disconnect_cap_is_fleet_wide_and_deterministic(self):
        schedule = ChaosSchedule(3, disconnect_rate=1.0, drop_rate=0.0, corrupt_rate=0.0,
                                 duplicate_rate=0.0, delay_rate=0.0, max_disconnects=2)
        fired = [schedule.decide("w:tx", seq, 0).disconnect for seq in range(10)]
        assert fired == [True, True] + [False] * 8
        assert schedule.disconnects_injected == 2

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ChaosSchedule(0, drop_rate=1.5)
        with pytest.raises(ValueError):
            ChaosSchedule(0, max_delay_s=-0.1)
        with pytest.raises(ValueError):
            ChaosSchedule(0, clean_after=0)

    def test_event_log_records_injections(self):
        schedule = ChaosSchedule(0)
        frame = type("F", (), {"kind": "SUBMIT", "seq": 4})()
        schedule.record("w:tx", frame, 1, "drop")
        assert schedule.events == [
            {"direction": "w:tx", "kind": "SUBMIT", "seq": 4, "attempt": 1, "event": "drop"}
        ]
        assert schedule.faults_injected == 1

    def test_describe_is_json_shaped(self):
        description = ChaosSchedule(17).describe()
        assert description["seed"] == 17
        assert "faults_injected" in description and "disconnects_injected" in description


class TestCampaignChaosValidation:
    def test_chaos_requires_wire_transport(self):
        with pytest.raises(ValueError):
            run_campaign(n_runs=1, samples_per_run=2, chaos=ChaosSchedule(1))


class TestTransportRegressionMatrix:
    """Satellite: transport-backed campaigns == sim, across the chaos matrix."""

    @pytest.fixture(scope="class")
    def sim_baseline(self):
        campaign = run_campaign(experiment_id="matrix", **CAMPAIGN)
        return campaign, campaign_fingerprint(campaign)

    def assert_identical_science(self, sim, sim_fingerprint, candidate):
        assert [run.best_score for run in candidate.runs] == [
            run.best_score for run in sim.runs
        ]
        for sim_run, other_run in zip(sim.runs, candidate.runs):
            assert [s.score for s in sim_run.samples] == [
                s.score for s in other_run.samples
            ]
        assert campaign_fingerprint(candidate) == sim_fingerprint

    def test_clean_wire_campaign_matches_sim(self, sim_baseline):
        sim, fingerprint = sim_baseline
        wire = run_campaign(
            experiment_id="matrix", transport="wire", speedup=FAST, **CAMPAIGN
        )
        self.assert_identical_science(sim, fingerprint, wire)
        assert wire.transport_stats.timed_out == 0

    @pytest.mark.parametrize("chaos_seed", DEFAULT_SEED_MATRIX)
    def test_wire_campaign_matches_sim_under_every_default_chaos_seed(
        self, sim_baseline, chaos_seed
    ):
        sim, fingerprint = sim_baseline
        wire = run_campaign(
            experiment_id="matrix",
            transport="wire",
            speedup=FAST,
            chaos=ChaosSchedule(chaos_seed),
            **CAMPAIGN,
        )
        self.assert_identical_science(sim, fingerprint, wire)
        stats = wire.transport_stats
        assert stats.timed_out == 0
        # Chaos really happened; it just wasn't observable in the science.
        assert stats.retries + stats.crc_errors + stats.resyncs > 0

    def test_wire_campaign_accepts_a_stub_schedule(self, sim_baseline):
        """Any object with ``decide``/``record`` can stand in for a
        :class:`ChaosSchedule`: here every first transmission from the
        transport is dropped, so every submit is retried at least once and
        completions are retransmitted for lost ACKs, yet the science is
        unchanged."""
        from tests.wei.wire_stubs import EatFirstAttempt

        sim, fingerprint = sim_baseline
        wire = run_campaign(
            experiment_id="matrix",
            transport="wire",
            speedup=FAST,
            chaos=EatFirstAttempt(),
            **CAMPAIGN,
        )
        self.assert_identical_science(sim, fingerprint, wire)
        stats = wire.transport_stats
        assert stats.timed_out == 0
        assert stats.delivered > 0
        assert stats.retries >= stats.delivered
        assert stats.completions_retransmitted > 0


@pytest.mark.soak
class TestSoakHarness:
    def test_default_matrix_upholds_the_invariant(self):
        report = run_soak(
            n_runs=2,
            samples_per_run=3,
            batch_size=3,
            n_workcells=2,
            seeds=DEFAULT_SEED_MATRIX,
            speedup=FAST,
        )
        failing = [
            (case.chaos_seed, case.mismatches) for case in report.cases if not case.ok
        ]
        assert report.ok, (
            f"soak invariant broken; replay with `python -m repro soak --seeds "
            f"{','.join(str(seed) for seed, _ in failing)}`: {failing}"
        )
        for case in report.cases:
            assert case.transport_stats["delivered"] > 0
            assert case.transport_stats["timed_out"] == 0
            # Retry/resync accounting is surfaced per case...
            assert "retries" in case.transport_stats
            assert "resyncs" in case.transport_stats
            # ...and the chaos log proves faults were really injected.
            assert case.chaos["faults_injected"] > 0

    def test_report_logs_round_trip(self, tmp_path):
        report = run_soak(
            n_runs=1,
            samples_per_run=2,
            batch_size=2,
            n_workcells=1,
            seeds=(101,),
            speedup=FAST,
        )
        written = report.write_logs(tmp_path)
        assert (tmp_path / "soak-seed-101.json").exists()
        assert (tmp_path / "summary.json").exists()
        assert len(written) == 2
        import json

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ok"] is True
        assert summary["cases"][0]["chaos_seed"] == 101

    def test_a_broken_invariant_is_reported_not_raised(self, monkeypatch):
        """A seed whose campaign crashes yields a failed case + full report."""
        import repro.wei.chaos.soak as soak_module

        real_run_campaign = soak_module.run_campaign
        calls = {"n": 0}

        def explode_on_second(*args, **kwargs):
            calls["n"] += 1
            if kwargs.get("transport") == "wire" and calls["n"] == 2:
                raise RuntimeError("injected harness failure")
            return real_run_campaign(*args, **kwargs)

        monkeypatch.setattr(soak_module, "run_campaign", explode_on_second)
        report = run_soak(
            n_runs=1,
            samples_per_run=2,
            batch_size=2,
            n_workcells=1,
            seeds=(101, 202),
            speedup=FAST,
        )
        assert not report.ok
        assert [case.ok for case in report.cases] == [False, True]
        assert "injected harness failure" in report.cases[0].error
