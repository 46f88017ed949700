"""Tests for seeded chaos schedules.

Covers :class:`~repro.wei.chaos.ChaosSchedule`'s replay/liveness contract
and a wire campaign under a stub schedule that eats every first
transmission.  That the science survives real chaos seeds in every
execution configuration is ``tests/properties/test_execution_oracle.py``'s
job.
"""

import pytest

from repro.core.campaign import run_campaign
from repro.wei.chaos import ChaosDecision, ChaosSchedule
from repro.wei.chaos.soak import campaign_fingerprint

#: Small-but-real campaign shape for the stub-schedule campaign below.
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
    def test_wire_campaign_accepts_a_stub_schedule(self):
        """Any object with ``decide``/``record`` can stand in for a
        :class:`ChaosSchedule`: here every first transmission from the
        transport is dropped, so every submit is retried at least once and
        completions are retransmitted for lost ACKs, yet the science is
        unchanged."""
        from tests.wei.wire_stubs import EatFirstAttempt

        sim = run_campaign(experiment_id="matrix", **CAMPAIGN)
        wire = run_campaign(
            experiment_id="matrix",
            transport="wire",
            speedup=FAST,
            chaos=EatFirstAttempt(),
            **CAMPAIGN,
        )
        assert campaign_fingerprint(wire) == campaign_fingerprint(sim)
        stats = wire.transport_stats
        assert stats.timed_out == 0
        assert stats.delivered > 0
        assert stats.retries >= stats.delivered
        assert stats.completions_retransmitted > 0
