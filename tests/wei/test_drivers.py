"""Tests for the asynchronous driver/transport subsystem (`repro.wei.drivers`).

Covers the completion bridge's threading contract, the wire device's
real-time pacing, the engine's transport-backed execution path (identical
science, out-of-band delivery, deterministic fault handling through chaos
stubs) and the coordinator's mixed sim/wire fleets including
drain-while-in-flight.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.campaign import run_campaign
from repro.sim.clock import WallClock
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import MultiWorkcellCoordinator
from repro.wei.drivers import (
    CompletionBridge,
    CompletionTimeout,
    DriverRegistry,
    InBandCompletionError,
    TransportCompletion,
    TransportTicket,
    WireProtocolTransport,
)
from repro.wei.workflow import WorkflowSpec, WorkflowStep
from tests.wei.wire_stubs import (
    FAST,
    DelayFirstComplete,
    DropCompletes,
    DuplicateFirstComplete,
    wait_until,
)


def newplate_spec():
    return WorkflowSpec(
        name="wf_newplate",
        steps=[
            WorkflowStep(module="sciclops", action="get_plate", args={}),
            WorkflowStep(
                module="pf400",
                action="transfer",
                args={"source": "sciclops.exchange", "target": "camera.stage"},
            ),
        ],
    )


def fetch_and_trash_spec():
    """Fetch a plate, stage it, discard it -- safely repeatable on one deck."""
    return WorkflowSpec(
        name="wf_fetch_and_trash",
        steps=[
            WorkflowStep(module="sciclops", action="get_plate", args={}),
            WorkflowStep(
                module="pf400",
                action="transfer",
                args={"source": "sciclops.exchange", "target": "camera.stage"},
            ),
            WorkflowStep(
                module="pf400",
                action="transfer",
                args={"source": "camera.stage", "target": "trash"},
            ),
        ],
    )


def fast_wire_registry(workcell, chaos=None):
    """One wire transport for every module, paced on a no-sleep clock."""
    return DriverRegistry.wire(
        workcell, wall_clock=WallClock(sleep=False, speedup=FAST), chaos=chaos
    )


@pytest.fixture
def make_wire_engine(make_workcell):
    """Factory: a colour-picker engine whose every module rides one wire transport."""

    def _make(seed=7, *, chaos=None, timeout=10.0):
        workcell = make_workcell(seed=seed)
        registry = fast_wire_registry(workcell, chaos)
        engine = ConcurrentWorkflowEngine(
            workcell, drivers=registry, completion_timeout_s=timeout
        )
        return engine, registry

    return _make


def ticket(ticket_id="t:0", module="m", action="a", duration=1.0):
    return TransportTicket(ticket_id=ticket_id, module=module, action=action, duration_s=duration)


def completion_for(t, thread_id=None):
    completion = TransportCompletion.for_ticket(t)
    if thread_id is not None:
        completion.thread_id = thread_id
    return completion


class TestCompletionBridge:
    def test_round_trip_records_latency_and_stats(self):
        bridge = CompletionBridge()
        t = ticket()
        bridge.register(t)
        assert bridge.outstanding() == 1
        bridge.post(completion_for(t, thread_id=12345))
        delivered = bridge.wait_for(t, timeout_s=1.0)
        assert delivered.ticket_id == t.ticket_id
        assert delivered.latency_s is not None and delivered.latency_s >= 0.0
        assert bridge.outstanding() == 0
        stats = bridge.stats()
        assert stats.delivered == 1 and stats.registered == 1
        assert stats.rejected_duplicate == 0 and stats.rejected_late == 0

    def test_out_of_order_completions_are_parked(self):
        bridge = CompletionBridge()
        first, second = ticket("t:0"), ticket("t:1")
        bridge.register(first)
        bridge.register(second)
        bridge.post(completion_for(second, thread_id=1))
        bridge.post(completion_for(first, thread_id=1))
        assert bridge.wait_for(first, timeout_s=1.0).ticket_id == "t:0"
        assert bridge.wait_for(second, timeout_s=1.0).ticket_id == "t:1"

    def test_duplicate_post_rejected_exactly_once(self):
        bridge = CompletionBridge()
        t = ticket()
        bridge.register(t)
        assert bridge.post(completion_for(t, thread_id=1)) is True
        assert bridge.post(completion_for(t, thread_id=1)) is False
        bridge.wait_for(t, timeout_s=1.0)
        # ...and a post after consumption is still a duplicate, not a new delivery.
        assert bridge.post(completion_for(t, thread_id=1)) is False
        stats = bridge.stats()
        assert stats.delivered == 1
        assert stats.rejected_duplicate == 2

    def test_timeout_then_late_arrival_is_rejected_as_late(self):
        bridge = CompletionBridge()
        t = ticket()
        bridge.register(t)
        with pytest.raises(CompletionTimeout):
            bridge.wait_for(t, timeout_s=0.01)
        assert bridge.post(completion_for(t, thread_id=1)) is False
        stats = bridge.stats()
        assert stats.timed_out == 1
        assert stats.rejected_late == 1
        assert bridge.outstanding() == 0

    def test_in_band_delivery_detected(self):
        bridge = CompletionBridge()
        t = ticket()
        bridge.register(t)
        # Post from this very thread: the bridge must refuse to pretend the
        # transport was asynchronous.
        bridge.post(completion_for(t))
        with pytest.raises(InBandCompletionError):
            bridge.wait_for(t, timeout_s=1.0)
        # The refused completion is audited as rejected, never as delivered.
        assert bridge.delivered == []
        assert len(bridge.rejected) == 1
        assert bridge.outstanding() == 0

    def test_grace_period_counts_from_the_due_time(self):
        bridge = CompletionBridge()
        t = TransportTicket(
            ticket_id="t:0",
            module="m",
            action="a",
            duration_s=30.0,
            due_monotonic=time.monotonic() + 0.3,
        )
        bridge.register(t)
        poster = threading.Timer(0.2, lambda: bridge.post(TransportCompletion.for_ticket(t)))
        poster.start()
        # Arrives 0.2s into the wait, before the action is even due: the
        # 0.05s grace has not started yet.
        assert bridge.wait_for(t, timeout_s=0.05).ticket_id == "t:0"
        poster.join()

    def test_post_before_register_is_matched(self):
        bridge = CompletionBridge()
        t = ticket()
        assert bridge.post(completion_for(t, thread_id=1)) is True
        bridge.register(t)
        assert bridge.wait_for(t, timeout_s=1.0).ticket_id == t.ticket_id


class TestWireDevicePacing:
    def test_pacing_respects_speedup_lower_bound(self):
        transport = WireProtocolTransport(speedup=200.0)
        done = threading.Event()
        transport.on_completion(lambda c: done.set())
        start = time.monotonic()
        transport.submit("transfer", module="pf400", duration_s=30.0)
        assert done.wait(5.0)
        elapsed = time.monotonic() - start
        # 30 simulated seconds at 200x is 0.15s of real pacing; sleeping can
        # overshoot but never undershoot.
        assert elapsed >= 0.8 * (30.0 / 200.0)
        transport.close()

    def test_earlier_due_submission_preempts_a_sleeping_worker(self):
        transport = WireProtocolTransport(speedup=100.0)
        order = []
        done = threading.Event()

        def record(completion):
            order.append(completion.action)
            if len(order) == 2:
                done.set()

        transport.on_completion(record)
        transport.submit("slow", module="m", duration_s=40.0)
        transport.submit("fast", module="m", duration_s=5.0)
        assert done.wait(5.0)
        assert order == ["fast", "slow"]
        transport.close()


class TestTransportBackedEngine:
    def test_no_completion_is_ever_posted_on_the_engine_thread(self, make_wire_engine):
        engine, registry = make_wire_engine(seed=3)
        engine.run_all([fetch_and_trash_spec(), fetch_and_trash_spec()])
        assert engine.engine_thread_id == threading.get_ident()
        assert len(registry.bridge.delivered) > 0
        assert all(
            completion.thread_id != engine.engine_thread_id
            for completion in registry.bridge.delivered
        )
        registry.close()

    def test_transport_introspection(self, make_wire_engine):
        engine, registry = make_wire_engine(seed=3)
        assert engine.transport_name == "wire"
        assert engine.transport_idle()
        engine.run_all([newplate_spec()])
        assert engine.transport_idle()
        assert engine.transport_stats().delivered == 2
        assert len(engine.completion_latencies()) == 2
        # The binding lives on the engine's registry, not on the modules.
        assert engine.drivers is registry
        assert "driver" not in engine.workcell.module("sciclops").describe()
        registry.close()

    def test_sim_engine_reports_no_transport(self, make_engine):
        engine = make_engine(seed=3)
        assert engine.transport_name == "sim"
        assert engine.transport_idle()
        assert engine.transport_stats() is None
        assert engine.completion_latencies() == []

    def test_duplicate_completion_deduped_exactly_once(self, make_wire_engine):
        engine, registry = make_wire_engine(seed=7, chaos=DuplicateFirstComplete())
        result = engine.run_all([newplate_spec()])[0]
        assert result.success
        # The wire drops the echo by completion sequence number, so the
        # bridge delivers each ticket once and never sees the copy.
        assert registry.transport.stats().duplicates_dropped >= 1
        stats = registry.bridge.stats()
        assert stats.delivered == 2
        assert stats.rejected_duplicate == 0
        registry.close()

    def test_silent_transport_times_out(self, make_wire_engine):
        engine, registry = make_wire_engine(seed=7, chaos=DropCompletes(), timeout=0.1)
        with pytest.raises(CompletionTimeout):
            engine.run_all([newplate_spec()])
        assert registry.bridge.stats().timed_out == 1
        registry.close()

    def test_late_completion_within_deadline_is_tolerated(self, make_wire_engine):
        engine, registry = make_wire_engine(
            seed=7, chaos=DelayFirstComplete(0.4), timeout=10.0
        )
        result = engine.run_all([newplate_spec()])[0]
        assert result.success
        assert registry.bridge.stats().rejected_late == 0
        registry.close()

    def test_late_completion_past_deadline_is_rejected_late(self, make_wire_engine):
        # Every copy of the first COMPLETE lands 0.4s after the action ends
        # while the engine only waits 0.2s -> timeout, then the eventual
        # arrival must be rejected exactly once as late.
        engine, registry = make_wire_engine(
            seed=7, chaos=DelayFirstComplete(0.4), timeout=0.2
        )
        with pytest.raises(CompletionTimeout):
            engine.run_all([newplate_spec()])
        assert wait_until(lambda: registry.bridge.stats().rejected_late > 0, timeout_s=5.0)
        stats = registry.bridge.stats()
        assert stats.timed_out == 1
        assert stats.rejected_late == 1
        registry.close()

    def test_paced_action_longer_than_the_timeout_completes(self, make_workcell):
        """completion_timeout_s is the grace after the action is due: a
        get_plate paced for 55s / 100 = 0.55s of real time must complete
        under a 0.2s timeout."""
        workcell = make_workcell(seed=7)
        registry = DriverRegistry.wire(workcell, speedup=100.0)
        engine = ConcurrentWorkflowEngine(workcell, drivers=registry, completion_timeout_s=0.2)
        spec = WorkflowSpec(
            name="wf_get_plate",
            steps=[WorkflowStep(module="sciclops", action="get_plate", args={})],
        )
        try:
            result = engine.run_all([spec])[0]
        finally:
            registry.close()
        assert result.success
        assert result.duration / 100.0 > engine.completion_timeout_s
        assert registry.bridge.stats().delivered == 1
        assert registry.bridge.stats().timed_out == 0

    def test_in_band_driver_is_rejected(self, make_workcell):
        class InBandDriver:
            """A misbehaving driver that completes synchronously at submit."""

            name = "in-band"

            def __init__(self):
                self._callbacks = []
                self._count = 0

            def submit(self, action, *, module, duration_s, **kwargs):
                t = TransportTicket(
                    ticket_id=f"ib:{self._count}",
                    module=module,
                    action=action,
                    duration_s=duration_s,
                )
                self._count += 1
                for callback in self._callbacks:
                    callback(TransportCompletion.for_ticket(t))
                return t

            def on_completion(self, callback):
                self._callbacks.append(callback)

            def pending(self):
                return 0

            def close(self):
                pass

        workcell = make_workcell(seed=7)
        engine = ConcurrentWorkflowEngine(workcell, drivers=DriverRegistry(InBandDriver()))
        with pytest.raises(InBandCompletionError):
            engine.run_all([newplate_spec()])


class TestDriverRegistry:
    def test_wire_constructor_binds_only_the_registry(self, make_workcell):
        workcell = make_workcell(seed=1)
        registry = DriverRegistry.wire(workcell, speedup=FAST)
        assert registry.transport.name == "wire"
        assert all(
            "driver" not in module.describe() for module in workcell.modules.values()
        )
        registry.close()

    def test_completions_reach_the_bridge_and_close_closes_the_transport(self):
        class RecordingTransport:
            name = "recording"

            def __init__(self):
                self.callbacks = []
                self.closed = 0

            def on_completion(self, callback):
                self.callbacks.append(callback)

            def close(self):
                self.closed += 1

        transport = RecordingTransport()
        registry = DriverRegistry(transport)
        assert len(transport.callbacks) == 1
        t = ticket()
        registry.bridge.register(t)
        transport.callbacks[0](completion_for(t, thread_id=1))
        assert registry.bridge.wait_for(t, timeout_s=1.0).ticket_id == t.ticket_id
        registry.close()
        assert transport.closed == 1

    def test_retry_stats_are_read_from_the_transport_by_field_name(self, make_workcell):
        counters = dict(
            retries=1,
            resyncs=2,
            crc_errors=3,
            duplicates_dropped=4,
            completions_retransmitted=5,
            rejs_sent=6,
            polls_sent=7,
        )

        class CountingTransport:
            name = "counting"

            def on_completion(self, callback):
                pass

            def stats(self):
                # Carries a field the engine does not report, as WireStats does.
                return SimpleNamespace(frames_sent=99, **counters)

        engine = ConcurrentWorkflowEngine(
            make_workcell(seed=1), drivers=DriverRegistry(CountingTransport())
        )
        assert engine.transport_name == "counting"
        assert engine.transport_retry_stats().to_dict() == counters

    def test_every_action_registers_a_bridge_ticket(self, make_wire_engine):
        engine, registry = make_wire_engine(seed=3)
        try:
            results = engine.run_all([fetch_and_trash_spec(), fetch_and_trash_spec()])
        finally:
            registry.close()
        commands = sum(result.commands for result in results)
        assert commands == 6
        stats = registry.bridge.stats()
        assert stats.registered == commands
        assert stats.delivered == commands


class TestWireFleet:
    def test_mixed_sim_and_wire_shards_coexist(self, make_workcell, make_engine):
        wire_workcell = make_workcell(name="wire-cell", seed=5)
        registry = fast_wire_registry(wire_workcell)
        wire = ConcurrentWorkflowEngine(wire_workcell, drivers=registry)
        sim = make_engine(name="sim-cell", seed=6)
        coordinator = MultiWorkcellCoordinator([wire, sim])

        def make_program(job, shard, lane):
            def fetch():
                result = yield ("workflow", fetch_and_trash_spec(), None)
                return result.success

            return fetch()

        results = coordinator.run_jobs([0, 1, 2, 3], make_program)
        registry.close()
        assert results == [True, True, True, True]
        status = coordinator.status()
        assert status.shards[0].transport == "wire"
        assert status.shards[1].transport == "sim"
        # Both shards actually claimed work (the merged loop interleaves them).
        assert all(shard.completed > 0 for shard in status.shards)

    def test_completion_arrives_during_drain(self, make_workcell):
        """A drain requested while a wire shard is mid-action must wait for
        the in-flight transport completion before retiring the shard."""
        workcells = [
            make_workcell(name=f"cell-{i}", seed=10 + i) for i in range(2)
        ]
        registries = [fast_wire_registry(w) for w in workcells]
        engines = [
            ConcurrentWorkflowEngine(w, drivers=r)
            for w, r in zip(workcells, registries)
        ]
        coordinator = MultiWorkcellCoordinator(engines)
        observed = {}

        def drain_other(completion):
            if observed:
                return
            other = 1 - completion.assignment.shard
            status = coordinator.status()
            observed["drained"] = other
            observed["in_flight_at_drain"] = status.shards[other].in_flight
            observed["delivered_at_drain"] = len(registries[other].bridge.delivered)
            coordinator.drain_workcell(other)

        coordinator.add_run_listener(drain_other)

        def make_program(job, shard, lane):
            def fetch():
                result = yield ("workflow", fetch_and_trash_spec(), None)
                return result.success

            return fetch()

        results = coordinator.run_jobs([0, 1, 2, 3], make_program)
        for registry in registries:
            registry.close()
        assert results == [True, True, True, True]
        drained = observed["drained"]
        # The drained shard had a claimed run in flight when the drain landed...
        assert observed["in_flight_at_drain"] == 1
        # ...whose remaining completions were still delivered afterwards...
        assert (
            len(registries[drained].bridge.delivered)
            > observed["delivered_at_drain"]
        )
        # ...and the shard only retired once its transport went idle.
        assert engines[drained].transport_idle()
        states = {s.shard_id: s.state for s in coordinator.status().shards}
        assert states[drained] == "drained"
        events = [e["event"] for e in coordinator.fleet_events]
        assert events == ["drain-requested", "workcell-retired"]


class TestWireCampaignRegression:
    def test_wire_campaign_completions_off_engine_thread(self):
        portal_runs = []
        campaign = run_campaign(
            n_runs=2,
            samples_per_run=3,
            batch_size=3,
            seed=9,
            experiment_id="wire-threads",
            transport="wire",
            speedup=100_000.0,
            on_run_complete=portal_runs.append,
        )
        assert len(portal_runs) == 2
        assert campaign.transport == "wire"
        stats = campaign.transport_stats
        assert stats.delivered > 0
        assert stats.timed_out == 0
        assert stats.rejected_duplicate == 0 and stats.rejected_late == 0
        assert stats.wall_elapsed_s > 0
        assert stats.mean_delivery_latency_s >= 0.0
        # run_campaign drives the merged loop on this thread; nothing may
        # have been posted from it.
        # (The registries are internal, so assert through the stats instead:
        # an in-band post would have raised InBandCompletionError.)
        assert campaign.portal.n_runs == 2

    def test_explicit_wire_fleet_reports_the_wire(self):
        """A campaign on an explicit coordinator takes its transport label
        from the engines' drivers, not from the ``transport`` argument."""
        registries = []

        def wire_engine(workcell):
            registry = DriverRegistry.wire(
                workcell, speedup=100_000.0, name=f"wire[{workcell.name}]"
            )
            registries.append(registry)
            return ConcurrentWorkflowEngine(workcell, drivers=registry)

        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
            2, seed=9, engine_factory=wire_engine
        )
        try:
            with obs.observed() as session:
                campaign = run_campaign(
                    n_runs=2,
                    samples_per_run=2,
                    batch_size=2,
                    seed=9,
                    experiment_id="wire-label",
                    coordinator=coordinator,
                )
        finally:
            for registry in registries:
                registry.close()
        assert campaign.transport == "wire"
        assert campaign.transport_stats.delivered > 0
        (campaign_span,) = [span for span in session.spans if span.name == "campaign"]
        assert campaign_span.attrs["transport"] == "wire"

    def test_explicit_sim_fleet_reports_sim(self):
        coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=9)
        campaign = run_campaign(
            n_runs=2, samples_per_run=2, batch_size=2, seed=9, coordinator=coordinator
        )
        assert campaign.transport == "sim"
        assert not campaign.transport_stats.present


class TestWallClockSpeedup:
    def test_speedup_compresses_real_time(self):
        clock = WallClock(sleep=False, speedup=100.0)
        clock.advance(50.0)
        assert clock.now() >= 50.0
        assert clock.real_seconds(50.0) == pytest.approx(0.5)
        assert clock.speedup == 100.0
        assert clock.sleeps is False

    def test_sleeping_advance_scales_down(self):
        clock = WallClock(speedup=1000.0)
        start = time.monotonic()
        clock.advance(10.0)  # 10 ms real
        assert time.monotonic() - start < 5.0
        assert clock.now() >= 10.0

    def test_invalid_speedup_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                WallClock(speedup=bad)
