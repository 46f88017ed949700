"""Loss recovery on the receiver's signal (`repro.wei.drivers.protocol`).

A damaged frame, or a reconnected link, is answered with ``REJ`` and the
peer resends its unACKed frames; an ACKed ticket whose COMPLETE is overdue
is polled for; and a ``HELLO`` handshake gives each end its first
round-trip sample.  Each test that times a recovery sets both
retransmission ceilings to :data:`CEILING_S` and mutes the ``HELLO`` of
every end whose timer must not fire, so a timer cannot recover the loss
inside the :data:`RECOVERY_S` window: only the signal can.
"""

import sys
import threading
import time

from repro.sim.clock import WallClock
from repro.wei.chaos import ChaosSchedule
from repro.wei.drivers.protocol import WireProtocolTransport
from tests.wei.wire_stubs import FAST, FaultFirst, set_timers, wait_until

#: Both ends' retransmission ceilings: far outside the assertion window.
CEILING_S = 5.0
#: How long a signalled recovery may take.
RECOVERY_S = 0.5


def transport_under(monkeypatch, chaos, ceiling_s=CEILING_S):
    set_timers(monkeypatch, ACK_TIMEOUT_S=ceiling_s, DEVICE_RETRANSMIT_S=ceiling_s)
    return WireProtocolTransport(
        name="wire-recovery", wall_clock=WallClock(sleep=False, speedup=FAST), chaos=chaos
    )


def run_one(transport, timeout_s):
    """Submit one action; return (completions, seconds until the first)."""
    received = []
    transport.on_completion(received.append)
    started = time.monotonic()
    transport.submit("get_plate", module="sciclops", duration_s=40.0)
    assert wait_until(lambda: len(received) == 1, timeout_s=timeout_s)
    elapsed = time.monotonic() - started
    time.sleep(0.05)  # a second run or delivery would land in this window
    return received, elapsed


def assert_ran_once(chaos, received):
    assert len(received) == 1 and received[0].failure is None
    assert chaos.first_sent["SUBMIT"] == [0]
    assert chaos.first_sent["COMPLETE"] == [0]  # the device ran the action once


class TestRejOnDamage:
    def test_corrupt_first_submit_is_resent_on_rej(self, monkeypatch):
        chaos = FaultFirst({("transport", "SUBMIT"): "corrupt"}, quiet=("transport", "device"))
        transport = transport_under(monkeypatch, chaos)
        try:
            received, elapsed = run_one(transport, RECOVERY_S)
            stats = transport.stats()
        finally:
            transport.close()
        assert elapsed < RECOVERY_S
        assert_ran_once(chaos, received)
        assert stats.rejs_sent >= 1 and stats.retries == 1
        assert transport.rtt.samples == 0  # Karn: the resent submit gave no sample

    def test_corrupt_first_complete_is_resent_on_rej(self, monkeypatch):
        chaos = FaultFirst({("device", "COMPLETE"): "corrupt"}, quiet=("transport", "device"))
        transport = transport_under(monkeypatch, chaos)
        try:
            received, elapsed = run_one(transport, RECOVERY_S)
            stats = transport.stats()
            device_samples = transport.device.rtt.samples
        finally:
            transport.close()
        assert elapsed < RECOVERY_S
        assert_ran_once(chaos, received)
        assert stats.rejs_sent >= 1 and stats.completions_retransmitted >= 1
        assert device_samples == 0  # Karn: the resent completion gave no sample


class TestPollForOverdueCompletion:
    def test_dropped_first_complete_is_resent_on_poll(self, monkeypatch):
        # The submit's ACK measures the round trip that sets the poll
        # threshold; the device's HELLO is muted, so its timer stays at the
        # ceiling.
        chaos = FaultFirst({("device", "COMPLETE"): "drop"}, quiet=("device",))
        transport = transport_under(monkeypatch, chaos)
        try:
            received, elapsed = run_one(transport, RECOVERY_S)
            stats = transport.stats()
        finally:
            transport.close()
        assert elapsed < RECOVERY_S
        assert_ran_once(chaos, received)
        assert stats.polls_sent == 1 and stats.completions_retransmitted == 1

    def test_resolved_tickets_leave_the_poll_queue(self, monkeypatch):
        transport = transport_under(monkeypatch, None)
        received = []
        transport.on_completion(received.append)
        try:
            assert wait_until(lambda: transport.rtt.samples == 1)
            for i in range(10):
                transport.submit(f"act{i}", module="m", duration_s=1.0)
            assert wait_until(lambda: len(received) == 10)
            # Every watched ticket passes its poll time and is dropped.
            assert wait_until(lambda: not transport._polls, timeout_s=2.0)
        finally:
            transport.close()


class TestReconnectIsARej:
    """A severed link is recovered as a damaged frame: the transport's reader
    reconnects, sends ``REJ`` and resends its unACKed submits."""

    def test_submit_lost_with_the_link_is_resent_on_reconnect(self, monkeypatch):
        """The resend recovers the SUBMIT, and the reconnect takes no SUBMIT
        sequence number: the next submit is seq 1."""
        chaos = FaultFirst(
            {("transport", "SUBMIT"): "disconnect"}, quiet=("transport", "device")
        )
        transport = transport_under(monkeypatch, chaos)
        try:
            received, elapsed = run_one(transport, RECOVERY_S)
            stats = transport.stats()
            ticket = transport.submit("transfer", module="pf400", duration_s=20.0)
            assert wait_until(lambda: len(received) == 2, timeout_s=RECOVERY_S)
        finally:
            transport.close()
        assert elapsed < RECOVERY_S
        assert received[0].failure is None
        assert chaos.first_sent["COMPLETE"] == [0, 1]  # each action ran once
        assert stats.resyncs == 1 and stats.retries == 1
        assert chaos.first_sent["REJ"] == [0]
        assert ticket.ticket_id == "wire-recovery:1"
        assert chaos.first_sent["SUBMIT"] == [0, 1]

    def test_complete_lost_with_the_link_is_resent_on_rej(self, monkeypatch):
        chaos = FaultFirst(
            {("device", "COMPLETE"): "disconnect"}, quiet=("transport", "device")
        )
        transport = transport_under(monkeypatch, chaos)
        try:
            received, elapsed = run_one(transport, RECOVERY_S)
            stats = transport.stats()
        finally:
            transport.close()
        assert elapsed < RECOVERY_S
        assert_ran_once(chaos, received)
        assert stats.resyncs == 1 and stats.completions_retransmitted >= 1


class TestOpenTickets:
    def test_no_per_ticket_entry_outlives_its_ticket(self, monkeypatch):
        transport = transport_under(monkeypatch, None)
        received = []
        transport.on_completion(received.append)
        try:
            for i in range(200):
                transport.submit(f"act{i}", module="m", duration_s=1.0)
            assert wait_until(lambda: len(received) == 200)
            assert transport.pending() == 0
            assert not transport._open and not transport._unacked
            assert wait_until(lambda: not transport._polls, timeout_s=2.0)
        finally:
            transport.close()
        assert len({completion.ticket_id for completion in received}) == 200


class TestTimersStillRecover:
    def test_lost_signals_fall_back_to_the_timers(self, monkeypatch):
        """Every REJ and POLL is eaten: the timers still recover a corrupt
        SUBMIT and a corrupt COMPLETE, and the action runs once."""
        chaos = FaultFirst(
            {("transport", "SUBMIT"): "corrupt", ("device", "COMPLETE"): "corrupt"},
            eat=("REJ", "POLL"),
        )
        transport = transport_under(monkeypatch, chaos, ceiling_s=0.05)
        try:
            received, _ = run_one(transport, 5.0)
            stats = transport.stats()
        finally:
            transport.close()
        assert_ran_once(chaos, received)
        assert stats.rejs_sent >= 2  # one from each end, both eaten
        assert stats.retries >= 1 and stats.completions_retransmitted >= 1


class TestHandshake:
    def test_each_end_takes_its_first_sample_from_the_handshake(self, monkeypatch):
        transport = transport_under(monkeypatch, None)
        try:
            assert wait_until(
                lambda: transport.rtt.samples == 1 and transport.device.rtt.samples == 1
            )
            assert transport.rtt.rto_s < CEILING_S
            assert transport.device.rtt.rto_s < CEILING_S
        finally:
            transport.close()

    def test_first_submit_keeps_seq_zero_after_the_handshake(self, monkeypatch):
        chaos = FaultFirst()
        transport = transport_under(monkeypatch, chaos)
        try:
            assert wait_until(
                lambda: transport.rtt.samples == 1 and transport.device.rtt.samples == 1
            )
            received, _ = run_one(transport, 5.0)
        finally:
            transport.close()
        assert received[0].ticket_id == "wire-recovery:0"
        assert chaos.first_sent["HELLO"] == [0, 0]  # one from each end
        assert_ran_once(chaos, received)


class CountingChaos(ChaosSchedule):
    """A seeded schedule that also lists each COMPLETE's first transmission."""

    def __init__(self, seed):
        super().__init__(seed)
        self.completes = []

    def decide(self, direction, seq, attempt, kind=""):
        if kind == "COMPLETE" and attempt == 0:
            self.completes.append(seq)
        return super().decide(direction, seq, attempt, kind)


class TestConcurrentRecovery:
    def test_concurrent_submits_under_chaos_each_complete_once(self):
        """Four threads submit while REJs, polls and timers recover a seeded
        schedule's faults, with thread switches forced every 10 us: every
        action runs once, every ticket resolves once, no poll is left."""
        n_threads, per_thread = 4, 25
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        chaos = CountingChaos(7)
        transport = WireProtocolTransport(
            name="wire-stress", wall_clock=WallClock(sleep=False, speedup=FAST), chaos=chaos
        )
        try:
            received = []
            lock = threading.Lock()

            def on_completion(completion):
                with lock:
                    received.append(completion)

            transport.on_completion(on_completion)

            def submit_many(k):
                for i in range(per_thread):
                    transport.submit(f"act{k}-{i}", module=f"m{k}", duration_s=1.0)

            threads = [
                threading.Thread(target=submit_many, args=(k,), name=f"submitter-{k}")
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            total = n_threads * per_thread
            assert wait_until(lambda: len(received) == total, timeout_s=20.0)
            time.sleep(0.05)  # a second delivery would land in this window
            with lock:
                ids = [completion.ticket_id for completion in received]
                assert all(completion.failure is None for completion in received)
            assert len(ids) == len(set(ids)) == total
            assert sorted(chaos.completes) == list(range(total))
            assert transport.pending() == 0
            assert wait_until(lambda: not transport._polls, timeout_s=2.0)
            assert chaos.faults_injected > 0
        finally:
            transport.close()
            sys.setswitchinterval(previous)
