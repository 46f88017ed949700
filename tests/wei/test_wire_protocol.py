"""Tests for the framed wire protocol (`repro.wei.drivers.protocol`).

Covers the frame codec (round trips, CRC rejection, resynchronisation after
corruption), the byte pipe's link semantics, the protocol reliability rules
(idempotent submit retry, completion retransmission, reconnect-with-resync,
giving up on a dead wire), pipelined submits (``submit()`` returns before the
ACK; failures surface where the ticket is awaited), the round-trip-driven
retransmission timers and the transport running a real engine workload with
science identical to pure simulation.
"""

import threading
import time

import pytest

from repro.sim.clock import WallClock
from repro.wei.chaos import ChaosDecision
from repro.wei.drivers import CompletionBridge, DriverRegistry, protocol
from repro.wei.drivers.base import DriverError
from repro.wei.drivers.protocol import (
    MIN_RTO_S,
    BytePipe,
    Frame,
    FrameDecoder,
    FrameError,
    RttEstimator,
    WireProtocolTransport,
    encode_frame,
)
from repro.wei.workflow import WorkflowSpec, WorkflowStep
from tests.wei.wire_stubs import (
    FAST,
    DeadWire,
    EatDeviceAcks,
    EatFirstAttempt,
    FaultFirst,
    SlowAcks,
    set_timers,
    wait_until,
)


@pytest.fixture
def fast_transport(monkeypatch):
    """Factory: a transport on a no-sleep clock.  Upper-case keywords set
    the wire's timer constants for the test (see ``set_timers``); the
    device's ceiling defaults to 20 ms."""

    def _make(chaos=None, wall_clock=None, **timers):
        timers.setdefault("DEVICE_RETRANSMIT_S", 0.02)
        set_timers(monkeypatch, **timers)
        return WireProtocolTransport(
            name="wire-test",
            wall_clock=wall_clock or WallClock(sleep=False, speedup=FAST),
            chaos=chaos,
        )

    return _make


def collect_completions(transport):
    """Register a collector; returns (list, lock) the callback appends into."""
    received = []
    lock = threading.Lock()

    def on_completion(completion):
        with lock:
            received.append(completion)

    transport.on_completion(on_completion)
    return received, lock


def bridged(transport):
    """A completion bridge fed by ``transport``, as an engine's registry builds."""
    bridge = CompletionBridge()
    transport.on_completion(bridge.post)
    return bridge


class TestFrameCodec:
    def test_round_trip(self):
        frame = Frame(kind="SUBMIT", seq=7, payload={"action": "get_plate", "duration_s": 3.5})
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(frame)) == [frame]
        assert decoder.crc_errors == 0

    def test_incremental_feed_across_arbitrary_chunking(self):
        frames = [Frame(kind="ACK", seq=i, payload={"i": i}) for i in range(5)]
        stream = b"".join(encode_frame(frame) for frame in frames)
        decoder = FrameDecoder()
        decoded = []
        for index in range(0, len(stream), 3):  # pathological 3-byte chunks
            decoded.extend(decoder.feed(stream[index : index + 3]))
        assert decoded == frames

    def test_corrupt_body_is_counted_and_skipped(self):
        good = Frame(kind="COMPLETE", seq=2, payload={"ticket_id": "t"})
        corrupted = bytearray(encode_frame(Frame(kind="COMPLETE", seq=1)))
        corrupted[8] ^= 0x40  # flip a bit inside the CRC-protected body
        decoder = FrameDecoder()
        decoded = decoder.feed(bytes(corrupted) + encode_frame(good))
        assert decoded == [good]
        assert decoder.crc_errors == 1

    def test_garbage_between_frames_is_tolerated(self):
        frame = Frame(kind="REJ", seq=0)
        decoder = FrameDecoder()
        decoded = decoder.feed(b"\x00noise\xff" + encode_frame(frame) + b"tail")
        assert decoded == [frame]

    def test_absurd_length_prefix_does_not_wedge_the_decoder(self):
        # magic + a length no frame can have; the real frame follows.
        bogus = b"\xa5\x5a" + (1 << 24).to_bytes(4, "big")
        frame = Frame(kind="ACK", seq=3)
        decoder = FrameDecoder()
        decoded = decoder.feed(bogus + encode_frame(frame))
        assert decoded == [frame]
        assert decoder.crc_errors >= 1

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(FrameError):
            Frame(kind="GOSSIP", seq=0)

    def test_sequence_number_range_enforced(self):
        with pytest.raises(FrameError):
            Frame(kind="ACK", seq=-1)


class TestBytePipe:
    def test_bytes_flow_both_ways(self):
        pipe = BytePipe()
        pipe.write_a(b"to-device")
        assert pipe.read_b(timeout_s=1.0) == b"to-device"
        pipe.write_b(b"to-transport")
        assert pipe.read_a(timeout_s=1.0) == b"to-transport"

    def test_read_times_out_empty(self):
        pipe = BytePipe()
        assert pipe.read_a(timeout_s=0.01) == b""

    def test_disconnect_loses_in_transit_bytes_and_signals_eof(self):
        pipe = BytePipe()
        pipe.write_a(b"doomed")
        pipe.disconnect()
        assert pipe.read_b(timeout_s=0.05) is None  # EOF, not the lost bytes
        assert pipe.write_a(b"void") == 0  # writes vanish while down
        pipe.reconnect()
        pipe.write_a(b"alive")
        assert pipe.read_b(timeout_s=1.0) == b"alive"
        assert pipe.disconnects == 1

    def test_close_is_permanent(self):
        pipe = BytePipe()
        pipe.close()
        assert pipe.read_a(timeout_s=0.01) is None
        with pytest.raises(Exception):
            pipe.reconnect()


class TestWireTransport:
    def test_submit_completes_out_of_band(self, fast_transport):
        transport = fast_transport()
        received, lock = collect_completions(transport)
        ticket = transport.submit("get_plate", module="sciclops", duration_s=40.0)
        assert wait_until(lambda: len(received) == 1)
        completion = received[0]
        assert completion.ticket_id == ticket.ticket_id
        assert completion.module == "sciclops" and completion.action == "get_plate"
        assert completion.thread_id != threading.get_ident()
        stats = transport.stats()
        assert stats.retries == 0 and stats.resyncs == 0 and stats.crc_errors == 0
        transport.close()

    def test_many_submissions_each_complete_exactly_once(self, fast_transport):
        transport = fast_transport()
        received, lock = collect_completions(transport)
        tickets = [transport.submit(f"act{i}", module="m", duration_s=5.0) for i in range(25)]
        assert wait_until(lambda: len(received) == 25)
        time.sleep(0.05)  # a duplicate would land in this window
        with lock:
            delivered = [completion.ticket_id for completion in received]
        assert sorted(delivered) == sorted(t.ticket_id for t in tickets)
        assert len(delivered) == len(set(delivered))
        assert transport.pending() == 0
        transport.close()

    def test_submit_after_close_raises(self, fast_transport):
        transport = fast_transport()
        transport.close()
        with pytest.raises(RuntimeError):
            transport.submit("a", module="m", duration_s=1.0)

    def test_close_wakes_the_device_reader_at_once(self, fast_transport):
        """close() shuts the pipe before the device, so the device's reader
        sees EOF at once instead of waiting out its 0.5 s read timeout."""
        transport = fast_transport()
        received, lock = collect_completions(transport)
        transport.submit("get_plate", module="sciclops", duration_s=1.0)
        assert wait_until(lambda: len(received) == 1)
        time.sleep(0.05)  # both readers are now parked in a fresh read
        start = time.monotonic()
        transport.close()
        elapsed = time.monotonic() - start
        assert not transport.device._reader.is_alive()
        assert elapsed < 0.25, f"close() took {elapsed:.3f} s"

    def test_negative_duration_rejected(self, fast_transport):
        transport = fast_transport()
        with pytest.raises(ValueError):
            transport.submit("a", module="m", duration_s=-1.0)
        transport.close()

    def test_submit_retry_is_idempotent_when_acks_are_eaten(self, fast_transport):
        """Drop the first transmission of every command frame: the transport
        must retransmit under the same sequence number and the device must
        run the action exactly once."""
        transport = fast_transport(chaos=EatFirstAttempt())
        received, lock = collect_completions(transport)
        transport.submit("transfer", module="pf400", duration_s=10.0)
        transport.submit("take_picture", module="camera", duration_s=2.0)
        assert wait_until(lambda: len(received) == 2)
        time.sleep(0.05)
        with lock:
            assert len(received) == 2  # retried commands did not re-run
        stats = transport.stats()
        assert stats.retries >= 2
        transport.close()

    def test_lost_completion_is_retransmitted_until_acked(self, fast_transport):
        """Drop the first transmission of every completion frame: the device
        must retransmit it until the transport ACKs."""

        class EatFirstCompletion:
            def decide(self, direction, seq, attempt, kind=""):
                return ChaosDecision(drop=(attempt == 0 and direction.endswith(":rx")))

            def record(self, *args):
                pass

        transport = fast_transport(chaos=EatFirstCompletion())
        received, lock = collect_completions(transport)
        transport.submit("run_protocol", module="ot2", duration_s=60.0)
        assert wait_until(lambda: len(received) == 1)
        assert transport.stats().completions_retransmitted >= 1
        transport.close()

    def test_disconnect_triggers_resync_and_nothing_is_lost(self, fast_transport):
        transport = fast_transport()
        received, lock = collect_completions(transport)
        transport.submit("get_plate", module="sciclops", duration_s=30.0)
        assert wait_until(lambda: len(received) == 1)
        # Yank the cable, then keep working: the transport must reconnect,
        # resync, and the next action must still complete exactly once.
        transport.pipe.disconnect()
        transport.submit("transfer", module="pf400", duration_s=20.0)
        assert wait_until(lambda: len(received) == 2)
        stats = transport.stats()
        assert stats.resyncs >= 1
        assert stats.disconnects >= 1
        with lock:
            ids = [completion.ticket_id for completion in received]
        assert len(ids) == len(set(ids))
        transport.close()

    def test_close_during_retries_stops_retransmitting(self, fast_transport):
        """Closing the transport mid-retry fails the unACKed submit's ticket
        with the closed-transport error instead of burning every remaining
        retry."""
        transport = fast_transport(chaos=DeadWire(), ACK_TIMEOUT_S=0.1, BACKOFF=1.0)
        bridge = bridged(transport)
        ticket = bridge.register(transport.submit("get_plate", module="sciclops", duration_s=1.0))
        assert wait_until(lambda: transport.stats().retries >= 2)
        retries_at_close = transport.stats().retries
        transport.close()
        with pytest.raises(RuntimeError) as excinfo:
            bridge.wait_for(ticket, timeout_s=5.0)
        assert excinfo.type is RuntimeError and "closed" in str(excinfo.value)
        assert transport.stats().retries == retries_at_close

    def test_dead_wire_gives_up_after_every_retry(self, fast_transport):
        """A device that never ACKs is declared dead after MAX_RETRIES + 1
        transmissions, and never sooner than the backoff schedule allows;
        the error surfaces where the ticket is awaited."""
        wire = DeadWire(dead=False)
        transport = fast_transport(chaos=wire, MAX_RETRIES=3)
        bridge = bridged(transport)
        assert wait_until(lambda: transport.rtt.samples == 1)  # the handshake's
        for i in range(5):
            transport.submit(f"warmup{i}", module="m", duration_s=1.0)
        # Once every warmup has completed no ACK can add a sample: the RTO
        # the schedule below is computed from is final.
        assert wait_until(lambda: transport.pending() == 0)
        rto_s = transport.rtt.rto_s
        assert MIN_RTO_S <= rto_s < protocol.ACK_TIMEOUT_S
        retries_before = transport.stats().retries
        wire.dead = True
        started = time.monotonic()
        ticket = bridge.register(transport.submit("get_plate", module="sciclops", duration_s=1.0))
        with pytest.raises(DriverError, match="after 4 transmissions"):
            bridge.wait_for(ticket, timeout_s=10.0)
        elapsed = time.monotonic() - started
        schedule_s = sum(
            min(rto_s * protocol.BACKOFF**k, protocol.MAX_BACKOFF_S) for k in range(4)
        )
        assert elapsed >= schedule_s
        assert transport.stats().retries - retries_before == 3
        transport.close()

    def test_given_up_submit_is_no_longer_pending(self, fast_transport):
        """A submit that exhausted its retries resolves its ticket, so it does
        not count as in flight forever."""
        transport = fast_transport(chaos=DeadWire(), MAX_RETRIES=1)
        received, lock = collect_completions(transport)
        ticket = transport.submit("get_plate", module="sciclops", duration_s=1.0)
        assert wait_until(lambda: len(received) == 1)
        with lock:
            failed = received[0]
        assert failed.ticket_id == ticket.ticket_id
        assert isinstance(failed.failure, DriverError)
        assert "after 2 transmissions" in str(failed.failure)
        assert transport.pending() == 0
        transport.close()

    def test_close_resolves_unacked_submits(self, fast_transport):
        transport = fast_transport(chaos=DeadWire())
        received, lock = collect_completions(transport)
        transport.submit("get_plate", module="sciclops", duration_s=1.0)
        transport.submit("transfer", module="pf400", duration_s=1.0)
        assert transport.pending() == 2
        transport.close()
        assert transport.pending() == 0
        with lock:
            assert [type(c.failure) for c in received] == [RuntimeError, RuntimeError]

    def test_submits_return_before_their_acks(self, fast_transport):
        """Under ACKs delayed by ``d``, five submits return in well under
        ``d``; each action still runs once and each completion arrives once."""
        delay_s = 1.0

        class RecordingSlowAcks(SlowAcks):
            def __init__(self, delay_s):
                super().__init__(delay_s)
                self.completes_sent = []

            def decide(self, direction, seq, attempt, kind=""):
                if kind == "COMPLETE" and attempt == 0:
                    self.completes_sent.append(seq)
                return super().decide(direction, seq, attempt, kind)

        chaos = RecordingSlowAcks(delay_s)
        transport = fast_transport(chaos=chaos)
        received, lock = collect_completions(transport)
        started = time.monotonic()
        tickets = [transport.submit(f"act{i}", module="m", duration_s=1.0) for i in range(5)]
        assert time.monotonic() - started < delay_s / 4
        assert wait_until(lambda: len(received) == 5)
        time.sleep(delay_s + 0.1)  # every delayed ACK lands in this window
        with lock:
            delivered = [completion.ticket_id for completion in received]
        assert sorted(delivered) == sorted(t.ticket_id for t in tickets)
        assert len(chaos.completes_sent) == 5  # one run per action
        assert transport.pending() == 0
        transport.close()

    def test_complete_ends_retransmission_of_its_submit(self, fast_transport):
        """With every device ACK lost, the COMPLETE is the submit's ACK: the
        retransmissions stop and no round trip is sampled."""
        transport = fast_transport(chaos=EatDeviceAcks(), ACK_TIMEOUT_S=0.02, BACKOFF=1.0)
        received, _ = collect_completions(transport)
        assert wait_until(lambda: transport.rtt.samples == 1)  # the handshake's
        transport.submit("get_plate", module="sciclops", duration_s=1.0)
        assert wait_until(lambda: len(received) == 1)
        retries = transport.stats().retries
        time.sleep(0.2)  # ten more timer periods
        assert transport.stats().retries == retries
        assert received[0].failure is None
        assert transport.rtt.samples == 1  # the submit gave none
        transport.close()

    def test_stats_snapshot_shape(self, fast_transport):
        transport = fast_transport()
        stats = transport.stats().to_dict()
        assert set(stats) == {
            "frames_sent",
            "frames_received",
            "crc_errors",
            "retries",
            "resyncs",
            "duplicates_dropped",
            "completions_retransmitted",
            "disconnects",
            "rejs_sent",
            "polls_sent",
        }
        transport.close()


class TestRttEstimator:
    def test_timeout_before_any_sample_is_the_configured_one(self, fast_transport):
        estimator = RttEstimator(0.05)
        assert estimator.srtt_s is None and estimator.samples == 0
        assert estimator.rto_s == 0.05
        # A lost handshake leaves both ends at their configured timeouts.
        transport = fast_transport(
            ACK_TIMEOUT_S=0.07,
            DEVICE_RETRANSMIT_S=0.03,
            chaos=FaultFirst(quiet=("transport", "device")),
        )
        time.sleep(0.05)  # a handshake sample would land in this window
        assert transport.rtt.rto_s == 0.07
        assert transport.device.rtt.rto_s == 0.03
        transport.close()

    def test_first_sample_rule(self):
        estimator = RttEstimator(1.0)
        estimator.sample(0.010)
        assert estimator.srtt_s == pytest.approx(0.010)
        assert estimator.rttvar_s == pytest.approx(0.005)
        assert estimator.rto_s == pytest.approx(0.010 + 4 * 0.005)

    def test_update_rule(self):
        estimator = RttEstimator(1.0)
        estimator.sample(0.010)
        estimator.sample(0.018)
        # RTTVAR updates from the old SRTT, then SRTT moves.
        rttvar = 0.75 * 0.005 + 0.25 * abs(0.010 - 0.018)
        srtt = 0.875 * 0.010 + 0.125 * 0.018
        assert estimator.rttvar_s == pytest.approx(rttvar)
        assert estimator.srtt_s == pytest.approx(srtt)
        assert estimator.rto_s == pytest.approx(srtt + 4 * rttvar)
        assert estimator.samples == 2

    def test_timeout_is_clamped_to_floor_and_ceiling(self):
        fast = RttEstimator(1.0)
        for _ in range(50):
            fast.sample(1e-5)
        assert fast.rto_s == MIN_RTO_S
        slow = RttEstimator(0.05)
        slow.sample(0.04)  # 0.04 + 4 * 0.02 exceeds the ceiling
        assert slow.rto_s == 0.05

    def test_clean_submits_shrink_the_timeout(self, fast_transport):
        # With the handshake muted every submit goes out under the ceiling,
        # so none is retransmitted and each ACK gives a sample.
        transport = fast_transport(chaos=FaultFirst(quiet=("transport", "device")))
        received, _ = collect_completions(transport)
        for i in range(5):
            transport.submit(f"act{i}", module="m", duration_s=1.0)
        assert wait_until(lambda: transport.rtt.samples == 5)
        assert transport.rtt.rto_s < protocol.ACK_TIMEOUT_S
        assert wait_until(lambda: len(received) == 5)
        assert wait_until(lambda: transport.device.rtt.samples >= 1)
        transport.close()

    def test_retransmitted_submit_gives_no_sample(self, fast_transport):
        """Karn's rule: an ACK after a retransmission may answer either copy.

        The stub eats the HELLO's only transmission too, so the handshake
        gives no sample either."""
        transport = fast_transport(chaos=EatFirstAttempt())
        received, _ = collect_completions(transport)
        transport.submit("transfer", module="pf400", duration_s=10.0)
        assert wait_until(lambda: len(received) == 1)
        assert transport.stats().retries >= 1
        assert transport.rtt.samples == 0 and transport.rtt.srtt_s is None
        assert transport.rtt.rto_s == protocol.ACK_TIMEOUT_S
        transport.close()

    def test_acks_slower_than_the_ceiling_retransmit_safely(self, fast_transport):
        """ACKs later than the RTO ceiling force spurious retransmissions;
        each action still runs once and each completion arrives once.

        The actions are paced to finish after the delayed ACKs: a COMPLETE
        would end its submit's retransmissions as an implicit ACK."""
        transport = fast_transport(
            ACK_TIMEOUT_S=0.05, chaos=SlowAcks(2 * 0.05), wall_clock=WallClock(speedup=5.0)
        )
        received, lock = collect_completions(transport)
        assert wait_until(lambda: transport.rtt.samples == 1)  # the handshake's
        tickets = [transport.submit(f"act{i}", module="m", duration_s=1.0) for i in range(3)]
        assert wait_until(lambda: len(received) == 3)
        time.sleep(0.1)  # a duplicate would land in this window
        stats = transport.stats()
        assert stats.retries >= 1
        assert transport.device.acks_resent >= 1
        assert wait_until(lambda: transport.device.pending() == 0)
        with lock:
            delivered = [completion.ticket_id for completion in received]
        assert sorted(delivered) == sorted(t.ticket_id for t in tickets)
        assert transport.rtt.samples == 1  # no submit gave a sample
        transport.close()


class TestWireBackedEngine:
    def newplate_spec(self):
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

    def fetch_and_trash_spec(self):
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

    def test_wire_run_matches_pure_simulation_exactly(self, make_engine, make_workcell):
        sim_result = make_engine(seed=7).run_all([self.newplate_spec()])[0]
        workcell = make_workcell(seed=7)
        registry = DriverRegistry.wire(
            workcell, wall_clock=WallClock(sleep=False, speedup=FAST)
        )
        try:
            from repro.wei.concurrent import ConcurrentWorkflowEngine

            wire_engine = ConcurrentWorkflowEngine(workcell, drivers=registry)
            wire_result = wire_engine.run_all([self.newplate_spec()])[0]
        finally:
            registry.close()
        assert [step.to_dict() for step in wire_result.steps] == [
            step.to_dict() for step in sim_result.steps
        ]
        assert wire_result.duration == sim_result.duration
        assert wire_engine.transport_name == "wire"
        assert wire_engine.transport_stats().delivered == 2

    def test_engine_surfaces_wire_recovery_counters(self, make_workcell, monkeypatch):
        from repro.wei.chaos import ChaosSchedule
        from repro.wei.concurrent import ConcurrentWorkflowEngine

        workcell = make_workcell(seed=3)
        set_timers(monkeypatch, ACK_TIMEOUT_S=0.02, DEVICE_RETRANSMIT_S=0.02)
        registry = DriverRegistry.wire(
            workcell,
            wall_clock=WallClock(sleep=False, speedup=FAST),
            chaos=ChaosSchedule(11, disconnect_rate=0.0),
        )
        try:
            engine = ConcurrentWorkflowEngine(
                workcell, drivers=registry, completion_timeout_s=30.0
            )
            engine.run_all([self.fetch_and_trash_spec(), self.fetch_and_trash_spec()])
        finally:
            registry.close()
        recovery = engine.transport_retry_stats().to_dict()
        assert set(recovery) == {
            "retries",
            "resyncs",
            "crc_errors",
            "duplicates_dropped",
            "completions_retransmitted",
            "rejs_sent",
            "polls_sent",
        }
        # Chaos seed 11 deterministically injects faults into this workload
        # (decisions are pure functions of the frame identity), so the
        # counters must prove the wire actually recovered from something;
        # the identical-science assertions elsewhere prove none of it was
        # observable.
        assert sum(recovery.values()) > 0

    def test_dead_wire_fails_the_run_before_the_completion_timeout(
        self, make_workcell, monkeypatch
    ):
        """The exhausted submit's DriverError comes out of run_until_complete
        as soon as the retries run out, not after completion_timeout_s."""
        from repro.wei.concurrent import ConcurrentWorkflowEngine

        workcell = make_workcell(seed=7)
        set_timers(monkeypatch, ACK_TIMEOUT_S=0.02, MAX_RETRIES=2)
        registry = DriverRegistry.wire(
            workcell, wall_clock=WallClock(sleep=False, speedup=FAST), chaos=DeadWire()
        )
        try:
            engine = ConcurrentWorkflowEngine(
                workcell, drivers=registry, completion_timeout_s=30.0
            )
            engine.submit(self.newplate_spec())
            started = time.monotonic()
            with pytest.raises(DriverError, match="after 3 transmissions") as excinfo:
                engine.run_until_complete()
            elapsed = time.monotonic() - started
        finally:
            registry.close()
        assert excinfo.type is DriverError
        assert str(excinfo.value).startswith("device never ACKed sciclops.get_plate")
        assert elapsed < 5.0

    def test_sim_engine_reports_zero_recovery(self, make_engine):
        engine = make_engine(seed=3)
        recovery = engine.transport_retry_stats()
        assert recovery.to_dict() == {
            "retries": 0,
            "resyncs": 0,
            "crc_errors": 0,
            "duplicates_dropped": 0,
            "completions_retransmitted": 0,
            "rejs_sent": 0,
            "polls_sent": 0,
        }
