"""Tests for the runtime concurrency detectors (``repro.analysis.runtime``).

The contrived cases: a seeded ABBA interleaving must produce a lock-order
cycle, consistent orderings must not, and a foreign thread touching an
engine-owned structure must raise.  The real case (the acceptance
criterion): a wire-protocol campaign under chaos, run with every driver-layer
lock instrumented, must exercise the graph and report **no** cycles.
"""

import threading

import pytest

from repro.analysis import runtime
from repro.analysis.runtime import (
    InstrumentedCondition,
    InstrumentedLock,
    LockOrderGraph,
    LockOrderViolation,
    OwnershipViolation,
    ThreadOwnershipChecker,
)


def run_in_thread(fn, name):
    """Run ``fn`` on a named thread to completion, re-raising its error."""
    failures = []

    def wrapped():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - test harness relay
            failures.append(exc)

    thread = threading.Thread(target=wrapped, name=name, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert not thread.is_alive(), f"thread {name} hung"
    if failures:
        raise failures[0]


class TestLockOrderGraph:
    def test_abba_interleaving_is_detected(self):
        graph = LockOrderGraph()
        a = InstrumentedLock("A", graph)
        b = InstrumentedLock("B", graph)

        def a_then_b():
            with a:
                with b:
                    pass

        def b_then_a():
            with b:
                with a:
                    pass

        # Sequential execution is enough: the *ordering* is the hazard, the
        # detector must not need an actual deadlock to fire.
        run_in_thread(a_then_b, "abba-1")
        run_in_thread(b_then_a, "abba-2")
        cycles = graph.find_cycles()
        assert cycles, "ABBA ordering went undetected"
        assert sorted(cycles[0][:-1]) == ["A", "B"]
        with pytest.raises(LockOrderViolation, match="A -> B"):
            graph.assert_acyclic()

    def test_consistent_order_is_cycle_free(self):
        graph = LockOrderGraph()
        a = InstrumentedLock("A", graph)
        b = InstrumentedLock("B", graph)

        def ordered():
            with a:
                with b:
                    pass

        run_in_thread(ordered, "ordered-1")
        run_in_thread(ordered, "ordered-2")
        assert [e.to_dict()["held"] + "->" + e.to_dict()["acquired"] for e in graph.edges()] == [
            "A->B"
        ]
        assert graph.find_cycles() == []
        graph.assert_acyclic()

    def test_three_lock_cycle_detected(self):
        graph = LockOrderGraph()
        locks = {name: InstrumentedLock(name, graph) for name in "ABC"}
        for held, acquired in (("A", "B"), ("B", "C"), ("C", "A")):
            def nest(h=held, acq=acquired):
                with locks[h]:
                    with locks[acq]:
                        pass

            run_in_thread(nest, f"cycle-{held}{acquired}")
        cycles = graph.find_cycles()
        assert len(cycles) == 1
        assert sorted(cycles[0][:-1]) == ["A", "B", "C"]

    def test_reentrant_same_instance_is_not_an_edge(self):
        # Condition wraps an RLock, so re-entering the *same* instance is
        # legal and orders nothing.
        graph = LockOrderGraph()
        cond = InstrumentedCondition("shared", graph)
        with cond:
            with cond:
                pass
        assert graph.edges() == []
        assert graph.find_cycles() == []

    def test_same_role_distinct_instances_record_a_self_edge(self):
        # Two byte-pipe locks nested is the same-role ABBA hazard: thread 1
        # holds pipe A and takes pipe B while thread 2 does the reverse, and
        # collapsing to roles must not hide it.  One observed nesting is
        # already the cycle (the reverse order is symmetric by role).
        graph = LockOrderGraph()
        pipe_a = InstrumentedLock("byte-pipe", graph)
        pipe_b = InstrumentedLock("byte-pipe", graph)
        with pipe_a:
            with pipe_b:
                pass
        assert [(e.held, e.acquired) for e in graph.edges()] == [("byte-pipe", "byte-pipe")]
        assert graph.find_cycles() == [["byte-pipe", "byte-pipe"]]
        with pytest.raises(LockOrderViolation, match="byte-pipe -> byte-pipe"):
            graph.assert_acyclic()

    def test_condition_wait_releases_the_held_stack(self):
        # While a thread is parked in cond.wait() the lock is NOT held, so
        # another lock acquired right after wake must not create an edge
        # from a phantom holder.
        graph = LockOrderGraph()
        cond = InstrumentedCondition("cond", graph)
        other = InstrumentedLock("other", graph)

        def waiter():
            with cond:
                cond.wait(timeout=0.01)
            with other:
                pass

        run_in_thread(waiter, "waiter")
        assert [(e.held, e.acquired) for e in graph.edges()] == []

    def test_failed_wait_leaves_no_phantom_held_entry(self):
        # Waiting on an un-acquired condition raises inside the inner wait
        # before anything was released; the held stack must come back empty,
        # not with a phantom entry that poisons every later acquisition.
        graph = LockOrderGraph()
        cond = InstrumentedCondition("cond", graph)
        other = InstrumentedLock("other", graph)
        with pytest.raises(RuntimeError):
            cond.wait(timeout=0.01)
        with other:
            pass
        assert [(e.held, e.acquired) for e in graph.edges()] == []

    def test_report_shape(self):
        graph = LockOrderGraph()
        a = InstrumentedLock("A", graph)
        b = InstrumentedLock("B", graph)
        with a:
            with b:
                pass
        report = graph.to_dict()
        assert set(report) == {"acquisitions", "edges", "cycles"}
        assert report["acquisitions"] >= 2
        assert report["edges"] == [{"held": "A", "acquired": "B", "thread": "MainThread"}]
        assert report["cycles"] == []


class TestThreadOwnership:
    def test_first_touch_claims_then_foreign_thread_raises(self):
        checker = ThreadOwnershipChecker()
        owned = object()
        checker.touch(owned, "engine-side")
        checker.touch(owned, "engine-side")  # same thread: fine

        def foreign():
            with pytest.raises(OwnershipViolation, match="engine-side"):
                checker.touch(owned, "engine-side")

        run_in_thread(foreign, "foreign-toucher")
        assert checker.to_dict()["violations"] == [
            {
                "role": "engine-side",
                "object": "object",
                "owner_thread": "MainThread",
                "touching_thread": "foreign-toucher",
            }
        ]

    def test_distinct_instances_have_independent_owners(self):
        checker = ThreadOwnershipChecker()
        first, second = object(), object()
        checker.touch(first, "engine-side")

        def other_owner():
            checker.touch(second, "engine-side")

        run_in_thread(other_owner, "second-owner")
        assert checker.to_dict()["violations"] == []

    def test_bridge_engine_side_is_ownership_checked(self, instrumented_locks):
        from repro.wei.drivers.base import TransportTicket
        from repro.wei.drivers.bridge import CompletionBridge

        bridge = CompletionBridge()
        ticket = TransportTicket(
            ticket_id="t0", module="ot2", action="mix", duration_s=1.0
        )
        bridge.register(ticket)  # main thread claims the engine side

        def foreign_wait():
            with pytest.raises(OwnershipViolation):
                bridge.wait_for(ticket, timeout_s=0.01)

        run_in_thread(foreign_wait, "not-the-engine")
        assert instrumented_locks.ownership.violations


class TestActivationPlumbing:
    def test_factories_return_plain_primitives_when_disabled(self):
        assert runtime.current() is None or pytest.skip(
            "REPRO_ANALYSIS active process-wide"
        )
        lock = runtime.make_lock("x")
        cond = runtime.make_condition("x")
        assert isinstance(lock, type(threading.Lock()))
        assert isinstance(cond, threading.Condition)

    def test_factories_return_instrumented_primitives_when_active(
        self, instrumented_locks
    ):
        lock = runtime.make_lock("x")
        cond = runtime.make_condition("y")
        assert isinstance(lock, InstrumentedLock)
        assert isinstance(cond, InstrumentedCondition)
        assert lock.graph is instrumented_locks.graph
        assert cond.graph is instrumented_locks.graph

    def test_owner_check_is_a_noop_when_disabled(self):
        if runtime.current() is not None:
            pytest.skip("REPRO_ANALYSIS active process-wide")
        runtime.owner_check(object(), "anything")  # must not raise

    def test_instrumentation_context_manager(self):
        previous = runtime.current()
        with runtime.instrumentation() as instr:
            assert runtime.current() is instr
        assert runtime.current() is None
        if previous is not None:
            runtime.install(previous)


class TestRealLockGraphIsCycleFree:
    """The acceptance criterion: the shipped driver stack, instrumented."""

    def test_chaotic_wire_campaign_records_edges_and_no_cycles(
        self, instrumented_locks
    ):
        from repro.core.campaign import run_campaign
        from repro.wei.chaos import ChaosSchedule

        campaign = run_campaign(
            n_runs=2,
            samples_per_run=3,
            batch_size=3,
            seed=42,
            n_workcells=2,
            transport="wire",
            speedup=1_000_000.0,
            completion_timeout_s=60.0,
            chaos=ChaosSchedule(20230816),
        )
        assert campaign.n_runs == 2
        graph = instrumented_locks.graph
        # The campaign really ran through the instrumented stack ...
        assert graph.acquisitions > 100
        held = {edge.held for edge in graph.edges()} | {
            edge.acquired for edge in graph.edges()
        }
        assert {"byte-pipe"} <= held  # nested orderings were observed
        # ... and the shipped lock graph orders cleanly: no ABBA anywhere.
        assert graph.find_cycles() == []
        graph.assert_acyclic()
        # The engine side stayed single-threaded under chaos, too.
        assert instrumented_locks.ownership.violations == []

    def test_clean_wire_transport_graph_is_cycle_free(self, instrumented_locks):
        from repro.core.campaign import run_campaign

        run_campaign(
            n_runs=2,
            samples_per_run=2,
            seed=7,
            transport="wire",
            speedup=1_000_000.0,
        )
        graph = instrumented_locks.graph
        assert graph.acquisitions > 0
        assert graph.find_cycles() == []


class TestDurablePortalConcurrency:
    """The durable store's lock joins the instrumented graph cleanly.

    8 threads ingest disjoint shard streams through ONE durable portal
    (the coordinator's streaming-ingest shape at fleet scale): every
    record must be visible exactly once, with zero lock-order violations
    and a cycle-free graph -- including when the ingest path interleaves
    with queries, compaction and an instrumented campaign.
    """

    N_THREADS = 8
    RUNS_PER_THREAD = 25

    def _shard_records(self, shard):
        from repro.publish.records import RunRecord, SampleRecord

        return [
            RunRecord(
                experiment_id=f"shard-exp-{shard}",
                run_id=f"shard{shard}-run{index}",
                run_index=index,
                target_rgb=[10.0, 20.0, 30.0],
                solver="evolutionary",
                samples=[
                    SampleRecord(
                        sample_index=0,
                        well="A1",
                        plate_barcode=f"plate-{shard}-{index}",
                        volumes_ul={"cyan": 4.0},
                        measured_rgb=[1.0, 2.0, 3.0],
                        score=float(index),
                    )
                ],
                metadata={"workcell": f"workcell-{shard}", "lane": shard},
            )
            for index in range(self.RUNS_PER_THREAD)
        ]

    def test_eight_shard_threads_ingest_exactly_once(
        self, instrumented_locks, portal_store_dir
    ):
        from repro.publish.store import DurableDataPortal

        store = DurableDataPortal(portal_store_dir, segment_max_bytes=8192)
        assert isinstance(store._lock, InstrumentedLock)
        failures = []
        barrier = threading.Barrier(self.N_THREADS)

        def shard_stream(shard):
            # Each shard serialises its own stream with a lane lock held
            # around ingest (the coordinator-shard shape), so the store's
            # lock nests under it and the ordering lands in the graph.
            lane_lock = runtime.make_lock("shard-lane")
            try:
                barrier.wait(timeout=10.0)
                for record in self._shard_records(shard):
                    with lane_lock:
                        store.ingest(record)
                    # Interleave reads with writes: queries must always see
                    # a record the moment its ingest returned.
                    assert store.version(record.run_id) == 1
                    assert store.get_run(record.run_id).run_id == record.run_id
            except BaseException as exc:  # noqa: BLE001 - test harness relay
                failures.append(exc)

        threads = [
            threading.Thread(target=shard_stream, args=(shard,), name=f"shard-{shard}", daemon=True)
            for shard in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "shard ingest thread hung"
        assert failures == []

        # Exactly-once visibility: every streamed record, no phantoms.
        total = self.N_THREADS * self.RUNS_PER_THREAD
        assert store.n_runs == total
        assert store.ingest_count == total
        assert store.n_experiments == self.N_THREADS
        run_ids = [record.run_id for record in store.search()]
        assert len(run_ids) == total and len(set(run_ids)) == total
        for shard in range(self.N_THREADS):
            assert store.summary_view(f"shard-exp-{shard}")["n_runs"] == self.RUNS_PER_THREAD

        # The store's lock reported to the graph, ordered cleanly under
        # the lane locks -- and no ABBA anywhere.
        graph = instrumented_locks.graph
        assert graph.acquisitions > total
        assert ("shard-lane", "durable-portal") in {
            (edge.held, edge.acquired) for edge in graph.edges()
        }
        assert graph.find_cycles() == []
        graph.assert_acyclic()
        assert instrumented_locks.ownership.violations == []
        store.close()

        # Replay agrees with what the 8 threads wrote.
        reopened = DurableDataPortal(portal_store_dir)
        assert reopened.recovery.clean
        assert reopened.n_runs == total
        reopened.close()

    def test_concurrent_ingest_with_maintenance_stays_acyclic(
        self, instrumented_locks, portal_store_dir
    ):
        from repro.publish.store import DurableDataPortal

        store = DurableDataPortal(portal_store_dir, segment_max_bytes=4096)
        failures = []
        stop = threading.Event()

        def shard_stream(shard):
            try:
                for record in self._shard_records(shard):
                    store.ingest(record)
            except BaseException as exc:  # noqa: BLE001 - test harness relay
                failures.append(exc)

        def maintenance():
            try:
                while not stop.is_set():
                    store.stats()
                    store.search_page(limit=5)
                    store.compact()
            except BaseException as exc:  # noqa: BLE001 - test harness relay
                failures.append(exc)

        workers = [
            threading.Thread(target=shard_stream, args=(shard,), name=f"shard-{shard}", daemon=True)
            for shard in range(4)
        ]
        janitor = threading.Thread(target=maintenance, name="portal-maintenance", daemon=True)
        for thread in workers:
            thread.start()
        janitor.start()
        for thread in workers:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "shard ingest thread hung"
        stop.set()
        janitor.join(timeout=30.0)
        assert not janitor.is_alive(), "maintenance thread hung"
        assert failures == []
        assert store.n_runs == 4 * self.RUNS_PER_THREAD
        graph = instrumented_locks.graph
        assert graph.find_cycles() == []
        graph.assert_acyclic()
        store.close()

    def test_campaign_streaming_into_durable_portal_is_cycle_free(
        self, instrumented_locks, portal_store_dir
    ):
        from repro.core.campaign import run_campaign
        from repro.publish.store import DurableDataPortal

        store = DurableDataPortal(portal_store_dir)
        campaign = run_campaign(
            n_runs=4,
            samples_per_run=2,
            seed=816,
            n_workcells=2,
            portal=store,
            experiment_id="durable-campaign",
        )
        assert campaign.n_runs == 4
        assert store.n_runs == 4
        # The coordinator streamed every record through the store's
        # instrumented lock, and the combined campaign + store lock graph
        # stays acyclic (the streaming path holds no other lock across
        # ingest, so the portal can never participate in an ABBA).
        graph = instrumented_locks.graph
        assert isinstance(store._lock, InstrumentedLock)
        assert graph.acquisitions > 0
        assert graph.find_cycles() == []
        graph.assert_acyclic()
        assert instrumented_locks.ownership.violations == []
        store.close()
        reopened = DurableDataPortal(portal_store_dir)
        assert reopened.recovery.clean
        assert {record.run_id for record in reopened.search()} == {
            record.run_id for record in store.search()
        }
        reopened.close()
