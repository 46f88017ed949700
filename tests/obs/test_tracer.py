"""Tracer unit tests: the off-by-default switch, causality, collection.

The cross-thread drain test is a regression guard: per-thread span state
must be a plain object registered per recording thread, not a
``threading.local`` -- a local resolves to the *draining* thread's
namespace, which silently loses every worker-thread span below the flush
threshold.
"""

import threading

import pytest

from repro.obs import tracer as obs_tracer
from repro.obs.tracer import _NULL_SPAN, Tracer


class TestDisabledFastPath:
    def test_tracing_is_off_by_default(self):
        assert obs_tracer.active() is None

    def test_module_span_returns_shared_null_span_when_off(self):
        first = obs_tracer.span("anything", attr=1)
        second = obs_tracer.span("other")
        assert first is second is _NULL_SPAN
        assert first.span is None

    def test_null_span_is_a_chainable_noop(self):
        with obs_tracer.span("off") as ctx:
            assert ctx.set(key="value") is ctx
            ctx.set_sim(start=0.0, end=1.0)

    def test_event_bind_bound_unbind_are_noops_when_off(self):
        obs_tracer.event("chaos.inject", kind="corrupt")
        obs_tracer.bind("ticket", 7)
        assert obs_tracer.bound("ticket") is None
        obs_tracer.unbind("ticket")

    def test_null_span_swallows_nothing(self):
        with pytest.raises(RuntimeError, match="boom"):
            with obs_tracer.span("off"):
                raise RuntimeError("boom")


class TestRecording:
    def test_with_span_records_and_balances(self, tracer):
        with tracer.span("outer", label="x"):
            pass
        assert tracer.counts() == (1, 1)
        assert tracer.open_spans() == 0
        (span_obj,) = tracer.drain()
        assert span_obj.name == "outer"
        assert span_obj.attrs == {"label": "x"}
        assert span_obj.status == "ok"
        assert span_obj.end_wall is not None
        assert span_obj.duration_s >= 0

    def test_nested_spans_auto_parent_on_the_thread_stack(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.span.parent_id == outer.span.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.span.parent_id == outer.span.span_id
        with tracer.span("after") as after:
            assert after.span.parent_id is None

    def test_exception_marks_status_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("nope")
        (span_obj,) = tracer.drain()
        assert span_obj.status == "error"

    def test_set_sim_records_dual_timestamps(self, tracer):
        with tracer.span("timed", sim_time=10.0) as ctx:
            ctx.set_sim(end=22.5)
        (span_obj,) = tracer.drain()
        assert span_obj.start_sim == 10.0
        assert span_obj.end_sim == 22.5

    def test_record_complete_with_preallocated_id_parents_children(self, tracer):
        span_id = tracer.new_id()
        with tracer.span("child", parent_id=span_id) as child:
            child_id = child.span.span_id
        tracer.record_complete("two-phase", span_id=span_id, start_wall=0.0)
        spans = {span_obj.name: span_obj for span_obj in tracer.drain()}
        assert spans["child"].parent_id == spans["two-phase"].span_id == span_id
        assert child_id != span_id
        assert tracer.counts() == (2, 2)

    def test_event_is_zero_duration_and_auto_parented(self, tracer):
        with tracer.span("frame") as frame:
            tracer.event("chaos.inject", kind="corrupt")
        spans = {span_obj.name: span_obj for span_obj in tracer.drain()}
        injected = spans["chaos.inject"]
        assert injected.parent_id == frame.span.span_id
        assert injected.start_wall == injected.end_wall
        assert injected.attrs == {"kind": "corrupt"}

    def test_max_spans_bounds_memory_and_counts_drops(self):
        tracer = obs_tracer.install(Tracer(max_spans=3))
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        spans = tracer.drain()
        assert len(spans) == 3
        assert tracer.dropped == 2


class TestCausality:
    def test_bind_bound_unbind_round_trip(self, tracer):
        tracer.bind("wire:1", 42)
        assert tracer.bound("wire:1") == 42
        tracer.unbind("wire:1")
        assert tracer.bound("wire:1") is None
        tracer.unbind("wire:1")  # idempotent

    def test_module_bind_ignores_none_span_id(self, tracer):
        obs_tracer.bind("ticket", None)
        assert obs_tracer.bound("ticket") is None

    def test_bound_parent_crosses_threads(self, tracer):
        with tracer.span("action") as action:
            tracer.bind("wire:9", action.span.span_id)

            def deliver():
                with tracer.span("bridge.deliver", parent_id=tracer.bound("wire:9")):
                    pass

            worker = threading.Thread(target=deliver, name="bridge-worker")
            worker.start()
            worker.join()
        spans = {span_obj.name: span_obj for span_obj in tracer.drain()}
        assert spans["bridge.deliver"].parent_id == spans["action"].span_id
        assert spans["bridge.deliver"].thread_name == "bridge-worker"


class TestCollection:
    def test_drain_collects_worker_spans_below_flush_threshold(self, tracer):
        # Regression: with threading.local-based state, a worker's buffer
        # resolved empty from the main thread and its spans vanished.
        def work():
            with tracer.span("worker.op"):
                pass

        workers = [
            threading.Thread(target=work, name=f"worker-{index}") for index in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        spans = tracer.drain()
        assert len([s for s in spans if s.name == "worker.op"]) == 3
        assert {s.thread_name for s in spans} == {"worker-0", "worker-1", "worker-2"}
        assert tracer.counts() == (3, 3)

    def test_buffers_flush_at_threshold_without_explicit_drain(self, tracer):
        for _ in range(obs_tracer._FLUSH_THRESHOLD):
            with tracer.span("hot"):
                pass
        with tracer._lock:
            collected = len(tracer._spans)
        assert collected >= obs_tracer._FLUSH_THRESHOLD

    def test_iter_is_drain(self, tracer):
        with tracer.span("one"):
            pass
        assert [span_obj.name for span_obj in tracer] == ["one"]

    def test_span_to_dict_round_trips_the_fields(self, tracer):
        with tracer.span("named", module="ot2", sim_time=1.0):
            pass
        (span_obj,) = tracer.drain()
        row = span_obj.to_dict()
        assert row["name"] == "named"
        assert row["attrs"] == {"module": "ot2"}
        assert row["start_sim"] == 1.0
        assert isinstance(row["span_id"], int)

    def test_sinks_see_every_finished_span(self, tracer):
        seen = []
        tracer._sinks.append(seen.append)
        with tracer.span("sunk"):
            pass
        assert [span_obj.name for span_obj in seen] == ["sunk"]

    def test_install_uninstall_round_trip(self):
        installed = obs_tracer.install()
        assert obs_tracer.active() is installed
        assert obs_tracer.uninstall() is installed
        assert obs_tracer.active() is None

    def test_rejects_nonpositive_max_spans(self):
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)
