"""Deterministic chaos stubs and helpers shared by the wire-transport tests.

Each stub stands in for a :class:`~repro.wei.chaos.ChaosSchedule`: the
transport and the device ask it, per frame transmission, what to do with
that frame.  Transport->device frames travel in the ``"<name>:tx"``
direction, device->transport frames in ``"<name>-device:rx"``.  Unlike a
seeded schedule, each stub injects only the faults it names, so a test can
assert the exact outcome.
"""

import time

from repro.wei.chaos import ChaosDecision
from repro.wei.drivers import protocol

#: Effectively-instant pacing that still runs the whole framed path
#: (encode -> pipe -> device threads -> frames back -> callbacks).
FAST = 1_000_000.0


def set_timers(monkeypatch, **values):
    """Set the wire's timer constants (``ACK_TIMEOUT_S=0.1``, ...) for one test.

    Both ends read each constant where they use it, so a transport built
    after this call runs on the given values.
    """
    for name, value in values.items():
        monkeypatch.setattr(protocol, name, value)


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


def _side(direction):
    return "device" if _from_device(direction) else "transport"


class FaultFirst(_Stub):
    """Hit the first transmission of chosen frames, and mute chosen signals.

    ``faults`` maps ``(side, kind)`` -- side ``"transport"`` or ``"device"``
    -- to ``"drop"``, ``"corrupt"`` or ``"disconnect"``, applied to the first
    transmission of that side's frame 0 of that kind.  ``quiet`` names the ends whose
    ``HELLO`` is dropped, so their retransmission timers stay at the
    configured ceiling.  Every frame whose kind is in ``eat`` is dropped.
    ``first_sent[kind]`` lists the sequence numbers of each kind's first
    transmissions, in order: a COMPLETE's first transmission is one run of
    an action.
    """

    def __init__(self, faults=None, quiet=(), eat=()):
        self.faults = dict(faults or {})
        self.quiet = tuple(quiet)
        self.eat = tuple(eat)
        self.first_sent = {}

    def decide(self, direction, seq, attempt, kind=""):
        side = _side(direction)
        if attempt == 0:
            self.first_sent.setdefault(kind, []).append(seq)
        if kind in self.eat or (kind == "HELLO" and side in self.quiet):
            return ChaosDecision(drop=True)
        fault = self.faults.get((side, kind))
        if fault is not None and seq == 0 and attempt == 0:
            return ChaosDecision(**{fault: True})
        return ChaosDecision()
