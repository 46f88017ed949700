"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(5.0, lambda: order.append("late"))
        scheduler.schedule_at(1.0, lambda: order.append("early"))
        scheduler.schedule_at(3.0, lambda: order.append("middle"))
        scheduler.run()
        assert order == ["early", "middle", "late"]

    def test_clock_advances_to_event_times(self):
        clock = SimClock()
        scheduler = EventScheduler(clock)
        times = []
        scheduler.schedule_at(2.0, lambda: times.append(clock.now()))
        scheduler.schedule_at(7.0, lambda: times.append(clock.now()))
        scheduler.run()
        assert times == [2.0, 7.0]

    def test_ties_run_in_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(1.0, lambda: order.append("first"))
        scheduler.schedule_at(1.0, lambda: order.append("second"))
        scheduler.run()
        assert order == ["first", "second"]

    def test_schedule_after_uses_current_time(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(10.0)
        event = scheduler.schedule_after(5.0, lambda: None)
        assert event.time == 15.0

    def test_scheduling_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.clock.advance(10.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_events_can_schedule_more_events(self):
        scheduler = EventScheduler()
        seen = []

        def chain(step):
            seen.append(step)
            if step < 3:
                scheduler.schedule_after(1.0, lambda: chain(step + 1))

        scheduler.schedule_at(0.0, lambda: chain(0))
        scheduler.run()
        assert seen == [0, 1, 2, 3]
        assert scheduler.clock.now() == 3.0


class TestControl:
    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule_at(1.0, lambda: fired.append("a"))
        scheduler.schedule_at(2.0, lambda: fired.append("b"))
        event.cancel()
        scheduler.run()
        assert fired == ["b"]

    def test_run_until_stops_before_later_events(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule_at(1.0, lambda: fired.append(1))
        scheduler.schedule_at(10.0, lambda: fired.append(10))
        executed = scheduler.run(until=5.0)
        assert executed == 1
        assert fired == [1]
        assert scheduler.active == 1
        assert scheduler.clock.now() == pytest.approx(1.0)

    def test_run_until_idles_clock_when_queue_empty(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.run(until=30.0)
        assert scheduler.clock.now() == 30.0

    def test_max_events_limit(self):
        scheduler = EventScheduler()
        for t in range(5):
            scheduler.schedule_at(float(t), lambda: None)
        assert scheduler.run(max_events=3) == 3
        assert scheduler.active == 2

    def test_step_returns_none_when_empty(self):
        assert EventScheduler().step() is None

    def test_processed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        scheduler.run()
        assert scheduler.processed == 2


class TestCancelledAccounting:
    """``active`` excludes lazily-deleted events, so an all-cancelled queue
    does not look busy."""

    def test_pending_excludes_cancelled(self):
        scheduler = EventScheduler()
        events = [scheduler.schedule_at(float(t + 1), lambda: None) for t in range(4)]
        events[0].cancel()
        events[2].cancel()
        assert scheduler.active == 2
        assert scheduler.queue_size == 4  # husks still on the heap

    def test_double_cancel_counted_once(self):
        scheduler = EventScheduler()
        event = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert scheduler.active == 1

    def test_all_cancelled_queue_reports_idle(self):
        scheduler = EventScheduler()
        events = [scheduler.schedule_at(float(t + 1), lambda: None) for t in range(10)]
        for event in events:
            event.cancel()
        assert scheduler.active == 0
        assert scheduler.next_time() is None
        assert scheduler.step() is None

    def test_merge_loop_does_not_idle_on_all_cancelled_shard(self):
        """Regression: a coordinator merging shards by earliest ``next_time``
        must see a shard whose queue holds nothing but cancelled events as
        done, not repeatedly select it (or spin forever waiting for it)."""
        busy = EventScheduler()
        dead = EventScheduler()
        fired = []
        for t in range(3):
            busy.schedule_at(float(t + 1), lambda t=t: fired.append(t))
        for t in range(50):
            dead.schedule_at(0.5 + t * 0.01, lambda: fired.append("dead")).cancel()
        # The coordinator's _run_merged loop, verbatim in miniature.
        steps = 0
        while steps < 100:
            best, best_time = None, None
            for shard in (dead, busy):
                pending = shard.next_time()
                if pending is None:
                    continue
                if best_time is None or pending < best_time:
                    best, best_time = shard, pending
            if best is None:
                break
            best.step()
            steps += 1
        assert fired == [0, 1, 2]
        assert steps == 3  # never burned an iteration on the dead shard

    def test_compaction_drops_cancelled_majority(self):
        scheduler = EventScheduler()
        keep = [scheduler.schedule_at(1000.0 + t, lambda: None) for t in range(10)]
        doomed = [scheduler.schedule_at(float(t + 1), lambda: None) for t in range(200)]
        for event in doomed:
            event.cancel()
        # Cancelled entries dominated, so the heap was rebuilt without most
        # of them; at most a sub-threshold tail of husks may remain.
        assert scheduler.active == len(keep)
        assert scheduler.queue_size - scheduler.active < 64
        assert scheduler.next_time() == 1000.0

    def test_cancelled_event_popped_then_compaction_still_consistent(self):
        scheduler = EventScheduler()
        first = scheduler.schedule_at(1.0, lambda: None)
        scheduler.schedule_at(2.0, lambda: None)
        first.cancel()
        assert scheduler.next_time() == 2.0  # peek pops the cancelled head
        assert scheduler.active == 1
        assert scheduler.queue_size == 1
        assert scheduler.run() == 1
