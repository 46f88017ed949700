"""Tests for resource timelines."""

import pytest

from repro.sim.resources import ResourceTimeline


class TestReserve:
    def test_first_reservation_starts_on_request(self):
        timeline = ResourceTimeline("ot2")
        assert timeline.reserve(5.0, 10.0) == (5.0, 15.0)

    def test_overlapping_request_is_pushed_back(self):
        timeline = ResourceTimeline("ot2")
        timeline.reserve(0.0, 10.0)
        start, end = timeline.reserve(4.0, 5.0)
        assert start == 10.0 and end == 15.0

    def test_non_overlapping_request_keeps_time(self):
        timeline = ResourceTimeline("ot2")
        timeline.reserve(0.0, 10.0)
        assert timeline.reserve(20.0, 5.0) == (20.0, 25.0)

    def test_busy_time_and_counts(self):
        timeline = ResourceTimeline("pf400")
        timeline.reserve(0.0, 3.0)
        timeline.reserve(10.0, 2.0)
        assert timeline.busy_time == 5.0
        assert timeline.reservations == 2
        assert timeline.available_at == 12.0

    def test_negative_inputs_rejected(self):
        timeline = ResourceTimeline("x")
        with pytest.raises(ValueError):
            timeline.reserve(-1.0, 1.0)
        with pytest.raises(ValueError):
            timeline.reserve(0.0, -1.0)


class TestUtilisation:
    def test_utilisation_fraction(self):
        timeline = ResourceTimeline("ot2")
        timeline.reserve(0.0, 50.0)
        assert timeline.utilisation(100.0) == pytest.approx(0.5)

    def test_utilisation_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            ResourceTimeline("ot2").utilisation(0.0)

    def test_idle_gaps(self):
        timeline = ResourceTimeline("ot2")
        timeline.reserve(5.0, 5.0)
        timeline.reserve(20.0, 5.0)
        assert timeline.idle_gaps() == [(0.0, 5.0), (10.0, 20.0)]

    def test_no_gaps_when_contiguous(self):
        timeline = ResourceTimeline("ot2")
        timeline.reserve(0.0, 5.0)
        timeline.reserve(0.0, 5.0)
        assert timeline.idle_gaps() == []
