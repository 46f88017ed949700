"""Deterministic chaos stubs and helpers shared by the wire-transport tests.

Each stub stands in for a :class:`~repro.wei.chaos.ChaosSchedule`: the
transport and the device ask it, per frame transmission, what to do with
that frame.  Transport->device frames travel in the ``"<name>:tx"``
direction, device->transport frames in ``"<name>-device:rx"``.  Unlike a
seeded schedule, each stub injects exactly one kind of fault, so a test can
assert the exact outcome.
"""

import time

from repro.wei.chaos import ChaosDecision

#: Effectively-instant pacing that still runs the whole framed path
#: (encode -> pipe -> device threads -> frames back -> callbacks).
FAST = 1_000_000.0


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class _Stub:
    def record(self, *args):
        pass


def _from_device(direction):
    return direction.endswith(":rx")


class EatFirstAttempt(_Stub):
    """Drop the first transmission of every transport frame."""

    def decide(self, direction, seq, attempt, kind=""):
        return ChaosDecision(drop=(attempt == 0 and not _from_device(direction)))


class DeadWire(_Stub):
    """While ``dead``, drop every frame the transport sends."""

    def __init__(self, dead=True):
        self.dead = dead

    def decide(self, direction, seq, attempt, kind=""):
        return ChaosDecision(drop=self.dead and not _from_device(direction))


class SlowAcks(_Stub):
    """Delay every device->transport ACK by ``delay_s``."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def decide(self, direction, seq, attempt, kind=""):
        slow = kind == "ACK" and _from_device(direction)
        return ChaosDecision(delay_s=self.delay_s if slow else 0.0)


class EatDeviceAcks(_Stub):
    """Drop every ACK the device sends (COMPLETEs still flow)."""

    def decide(self, direction, seq, attempt, kind=""):
        return ChaosDecision(drop=(kind == "ACK" and _from_device(direction)))


class DropCompletes(_Stub):
    """Drop every COMPLETE the device sends: the device goes silent."""

    def decide(self, direction, seq, attempt, kind=""):
        return ChaosDecision(drop=(kind == "COMPLETE" and _from_device(direction)))


class DelayFirstComplete(_Stub):
    """Delay every transmission of the device's first COMPLETE by ``delay_s``.

    Retransmissions are delayed too, so no copy arrives sooner than
    ``delay_s`` after the action finished.
    """

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def decide(self, direction, seq, attempt, kind=""):
        first = kind == "COMPLETE" and seq == 0 and _from_device(direction)
        return ChaosDecision(delay_s=self.delay_s if first else 0.0)


class DuplicateFirstComplete(_Stub):
    """Send the device's first COMPLETE twice back-to-back."""

    def decide(self, direction, seq, attempt, kind=""):
        first = kind == "COMPLETE" and seq == 0 and attempt == 0 and _from_device(direction)
        return ChaosDecision(duplicate=first)
