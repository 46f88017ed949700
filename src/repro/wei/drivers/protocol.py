"""A framed wire protocol over an in-process byte-pipe "serial" endpoint.

This module is the one out-of-band transport behind the engine's driver
contract.  It speaks a real protocol over a byte stream rather than handing
Python objects across threads, so every hardware failure mode a
serial/socket transport suffers (truncated frames, bit flips, duplicated or
reordered deliveries, dead links) exists and must be survived:

* **Frames** (:func:`encode_frame` / :class:`FrameDecoder`) are
  length-prefixed: ``magic | body-length | body | crc32(body)`` where the body
  is ``kind | sequence-number | JSON payload``.  The decoder is incremental
  and self-resynchronising -- a corrupted frame fails its CRC, is counted and
  skipped by scanning for the next magic, and never desynchronises the stream
  permanently.
* **Reliability** is end-to-end per direction.  ``SUBMIT`` frames are ACKed
  by the device (a ``COMPLETE`` for the same command counts as the ACK too);
  each end keeps a table of its unACKed frames, each with its own timer,
  and retransmits a frame whose timer expired with exponential backoff
  under the *same* sequence number.  The device deduplicates submits by
  sequence number so retries are idempotent (the action runs once however
  many copies of the command arrive).  ``COMPLETE`` frames are ACKed by the
  transport; the device retains and retransmits unACKed completions, and
  the transport deduplicates them before posting to the
  :class:`~repro.wei.drivers.bridge.CompletionBridge` (which dedupes again by
  ticket as the last line of defence).
* **Retransmission timers** come from measured round trips
  (:class:`RttEstimator`, after RFC 6298): each end smooths the round trips
  of its own frames -- SUBMIT->ACK at the transport, COMPLETE->ACK at the
  device -- into a retransmission timeout between :data:`MIN_RTO_S` and the
  configured timeout.  Karn's rule applies: a frame that was retransmitted
  gives no sample, because its ACK may answer any of the copies.
* **Reconnect-with-resync**: when the link drops (a chaos-injected
  disconnect, or :meth:`BytePipe.disconnect`), the transport's reader thread
  reconnects the pipe and sends ``SYNC``; the device answers ``SYNC_ACK`` and
  immediately retransmits every unACKed completion, so nothing in flight at
  the moment the cable was yanked is lost.  Each cycle increments the
  transport's ``resyncs`` counter.

:class:`WireProtocolTransport` implements the
:class:`~repro.wei.drivers.base.DeviceDriver` protocol on top of all this:
``submit()`` frames the action, sends it once and returns the ticket
without waiting for the ACK, so submits from several modules are in flight
at once (as in TCP's sliding window, RFC 9293); the transport's retransmit
thread resends unACKed submits, and a submit that is never ACKed fails its
ticket where the engine waits for it.  Completions are decoded on the
transport's reader thread -- strictly out-of-band -- and posted through the
registered callbacks.  The far end is :class:`ProtocolDevice`, a
device-service emulator that paces each action's already-sampled duration
against a :class:`~repro.sim.clock.WallClock` and is reachable only
through the byte stream.

Fault injection plugs in between the two ends: a
:class:`~repro.wei.chaos.ChaosSchedule` decides, per transmission, whether a
frame is dropped, corrupted, duplicated, delayed or the link severed -- see
:mod:`repro.wei.chaos`.  Because every loss is recovered by retry/resync, a
chaos-ridden run produces the *same science* as a clean one; only wall time
and the retry counters differ, which is the invariant the soak harness
asserts.
"""

from __future__ import annotations

import heapq
import json
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type, TypeVar

from repro.analysis.runtime import make_condition
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.sim.clock import WallClock
from repro.wei.drivers.base import DriverError, TransportCompletion, TransportTicket

__all__ = [
    "FRAME_KINDS",
    "Frame",
    "FrameError",
    "encode_frame",
    "FrameDecoder",
    "MIN_RTO_S",
    "RttEstimator",
    "PipeClosedError",
    "BytePipe",
    "ProtocolDevice",
    "WireStats",
    "WireProtocolTransport",
]

# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------

#: Start-of-frame marker; the decoder scans for it to resynchronise after a
#: corrupted frame.
MAGIC = b"\xa5\x5a"

#: Frame kinds on the wire.  SUBMIT/ACK/NACK carry the command channel
#: (transport -> device), COMPLETE rides the completion channel (device ->
#: transport, ACKed back), SYNC/SYNC_ACK perform the reconnect handshake.
FRAME_KINDS = ("SUBMIT", "ACK", "NACK", "COMPLETE", "SYNC", "SYNC_ACK")

_KIND_CODES = {kind: index for index, kind in enumerate(FRAME_KINDS)}
_CODE_KINDS = {index: kind for index, kind in enumerate(FRAME_KINDS)}

#: Upper bound on one frame's body; anything larger in a length prefix is
#: treated as corruption (protects the decoder from waiting forever on a
#: length field a bit flip turned absurd).
MAX_BODY_BYTES = 1 << 16

_BODY_PREFIX = struct.Struct(">BI")  # kind code, sequence number
_U32 = struct.Struct(">I")

#: Shared JSON encoder: ``json.dumps`` with keyword arguments builds a fresh
#: ``JSONEncoder`` per call; pre-building one with the same options emits
#: byte-identical text ~1.3 us faster per frame.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The decoder drops its consumed prefix only once it exceeds this many bytes
#: *and* at least half the buffer -- amortised O(1) per consumed byte instead
#: of a memmove per frame.
_DECODER_COMPACT_BYTES = 4096


class FrameError(ValueError):
    """A frame failed to encode or decode."""


@dataclass(frozen=True)
class Frame:
    """One protocol message: kind, per-direction sequence number, payload."""

    kind: str
    seq: int
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise FrameError(f"unknown frame kind {self.kind!r}; expected one of {FRAME_KINDS}")
        if not (0 <= self.seq <= 0xFFFFFFFF):
            raise FrameError(f"sequence number out of range: {self.seq}")

    @classmethod
    def _decoded(cls, kind: str, seq: int, payload: Dict[str, Any]) -> "Frame":
        """Trusted construction for the decoder's hot path.

        Skips ``__post_init__`` validation: ``kind`` was resolved through the
        kind table and ``seq`` came off a ``>I`` field, so both are valid by
        construction.  Halves the per-frame construction cost.
        """
        frame = object.__new__(cls)
        object.__setattr__(frame, "kind", kind)
        object.__setattr__(frame, "seq", seq)
        object.__setattr__(frame, "payload", payload)
        return frame


def encode_frame(frame: Frame) -> bytes:
    """Serialise ``frame``: ``magic | len(body) | body | crc32(body)``.

    The CRC covers the whole body (kind, sequence number and payload), so a
    bit flip anywhere past the length prefix is detected at the receiver.

    The CRC is accumulated incrementally over the prefix and payload (never
    materialising the body as its own object) and the frame is assembled in
    one ``join``; the wire bytes are identical to the original concatenating
    implementation.  A ``Struct.pack_into``-a-scratch-``bytearray`` variant
    was profiled too, but at these frame sizes (~100 bytes) the mandatory
    ``bytes`` copy out of the scratch buffer made it slower than the join.
    """
    payload = b"{}" if not frame.payload else _JSON.encode(frame.payload).encode("utf-8")
    body_len = _BODY_PREFIX.size + len(payload)
    if body_len > MAX_BODY_BYTES:
        raise FrameError(f"frame body too large: {body_len} bytes")
    prefix = _BODY_PREFIX.pack(_KIND_CODES[frame.kind], frame.seq)
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return b"".join((MAGIC, _U32.pack(body_len), prefix, payload, _U32.pack(crc)))


class FrameDecoder:
    """Incremental frame parser with CRC checking and magic-scan resync.

    Feed arbitrary byte chunks with :meth:`feed`; complete, CRC-valid frames
    come back in order.  A frame whose CRC fails (or whose length prefix is
    implausible) bumps :attr:`crc_errors` and is skipped by re-scanning for
    the next magic from one byte past the bad frame's start, so a single
    corrupted frame can never wedge the stream.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Scan offset: everything before it is consumed.  Tracking the
        #: offset (instead of ``del buffer[:n]`` per frame/resync) makes a
        #: garbage-prefixed stream linear -- the old delete-one-byte resync
        #: memmoved the whole tail for every byte of garbage.
        self._pos = 0
        self.crc_errors = 0
        self.frames_decoded = 0

    def feed(self, data: bytes) -> List[Frame]:
        """Append ``data`` to the stream; return every newly completed frame."""
        buffer = self._buffer
        buffer.extend(data)
        pos = self._pos
        size = len(buffer)
        frames: List[Frame] = []
        # Locals for the per-frame loop: global/attribute lookups add up at
        # protocol rates.
        magic = MAGIC
        unpack_u32 = _U32.unpack_from
        unpack_prefix = _BODY_PREFIX.unpack_from
        crc32 = zlib.crc32
        loads = json.loads
        code_kinds = _CODE_KINDS
        make_frame = Frame._decoded
        prefix_size = _BODY_PREFIX.size
        while True:
            start = buffer.find(magic, pos)
            if start < 0:
                # No frame start in sight; keep at most one trailing byte in
                # case it is the first half of a split magic.
                pos = max(pos, size - 1)
                break
            pos = start
            if size - pos < 6:
                break
            (body_len,) = unpack_u32(buffer, pos + 2)
            if body_len > MAX_BODY_BYTES:
                # A length no sane frame has: corruption reached the prefix.
                self.crc_errors += 1
                pos += 1
                continue
            end = pos + 6 + body_len + 4
            if size < end:
                break
            body_start = pos + 6
            (crc,) = unpack_u32(buffer, body_start + body_len)
            # One memoryview slice serves both the CRC check and the body
            # extraction; a corrupt frame is rejected without copying at all.
            body_view = memoryview(buffer)[body_start : body_start + body_len]
            if crc32(body_view) != crc:
                body_view.release()
                self.crc_errors += 1
                pos += 1
                continue
            body = bytes(body_view)
            body_view.release()
            pos = end
            try:
                kind_code, seq = unpack_prefix(body)
                raw = body[prefix_size:]
                # ACK/SYNC traffic (half the frames on a healthy wire) carries
                # an empty payload; skip the JSON parse for it.
                payload = {} if raw == b"{}" else loads(raw.decode("utf-8"))
                frame = make_frame(code_kinds[kind_code], seq, payload)
            except (KeyError, ValueError, struct.error):
                # CRC-valid but semantically broken (should not happen with a
                # conforming peer); count it like corruption and move on.
                self.crc_errors += 1
                continue
            self.frames_decoded += 1
            frames.append(frame)
        # Drop the consumed prefix, amortised: always when the buffer is fully
        # consumed (cheap), otherwise only once the dead prefix is both large
        # and the majority of the buffer.
        if pos >= size:
            buffer.clear()
            pos = 0
        elif pos > _DECODER_COMPACT_BYTES and pos * 2 >= size:
            del buffer[:pos]
            pos = 0
        self._pos = pos
        return frames


# ---------------------------------------------------------------------------
# The byte pipe: an in-process full-duplex "serial port"
# ---------------------------------------------------------------------------


class PipeClosedError(DriverError):
    """An operation was attempted on a permanently closed pipe."""


class _Channel:
    """One direction of the pipe: a byte buffer under a condition variable."""

    def __init__(self, pipe: "BytePipe") -> None:
        self._pipe = pipe
        self._buffer = bytearray()

    def write(self, data: bytes) -> int:
        with self._pipe._cond:
            if self._pipe.closed or not self._pipe.connected:
                # A dead line swallows writes silently, exactly like RS-232
                # with the cable pulled: the sender only learns from the
                # missing ACK.
                return 0
            self._buffer.extend(data)
            self._pipe._cond.notify_all()
            return len(data)

    def read(self, timeout_s: float) -> Optional[bytes]:
        """Block up to ``timeout_s`` for bytes.

        Returns the available bytes, ``b""`` on timeout while connected, and
        ``None`` when the link is down (disconnected or closed) -- the EOF
        the reader threads use to enter their reconnect/park paths.
        """
        deadline = time.monotonic() + timeout_s
        with self._pipe._cond:
            while not self._buffer:
                if self._pipe.closed or not self._pipe.connected:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return b""
                self._pipe._cond.wait(remaining)
            data = bytes(self._buffer)
            self._buffer.clear()
            return data

    def clear(self) -> None:
        self._buffer.clear()


class BytePipe:
    """A full-duplex in-process byte stream with explicit link state.

    The transport writes commands into the A->B channel and reads completions
    from B->A; the device does the reverse.  :meth:`disconnect` models the
    cable being yanked: both channels' in-transit bytes are lost, readers get
    EOF, and writes vanish until :meth:`reconnect`.  :meth:`close` is the
    permanent shutdown used at teardown.
    """

    def __init__(self) -> None:
        # Instrumentable (repro.analysis.runtime): both endpoints nest this
        # lock under their own, so it must be a distinct graph node.
        self._cond = make_condition("byte-pipe")
        self.connected = True
        self.closed = False
        self._a_to_b = _Channel(self)
        self._b_to_a = _Channel(self)
        self.disconnects = 0

    # -- endpoint views -------------------------------------------------
    def write_a(self, data: bytes) -> int:
        """Write from side A (the transport)."""
        return self._a_to_b.write(data)

    def read_a(self, timeout_s: float) -> Optional[bytes]:
        """Read on side A (completions from the device)."""
        return self._b_to_a.read(timeout_s)

    def write_b(self, data: bytes) -> int:
        """Write from side B (the device)."""
        return self._b_to_a.write(data)

    def read_b(self, timeout_s: float) -> Optional[bytes]:
        """Read on side B (commands from the transport)."""
        return self._a_to_b.read(timeout_s)

    # -- link state -----------------------------------------------------
    def disconnect(self) -> None:
        """Sever the link: in-transit bytes are lost, readers see EOF."""
        with self._cond:
            if self.closed or not self.connected:
                return
            self.connected = False
            self.disconnects += 1
            self._a_to_b.clear()
            self._b_to_a.clear()
            self._cond.notify_all()

    def reconnect(self) -> None:
        """Restore the link after a disconnect (no-op while connected)."""
        with self._cond:
            if self.closed:
                raise PipeClosedError("cannot reconnect a closed pipe")
            if not self.connected:
                self.connected = True
            self._cond.notify_all()

    def wait_connected(self, timeout_s: float) -> bool:
        """Block until the link is up again (device side parks here)."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while not self.connected:
                if self.closed:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        """Permanently shut the pipe down; all readers unblock with EOF."""
        with self._cond:
            self.closed = True
            self.connected = False
            self._a_to_b.clear()
            self._b_to_a.clear()
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# Chaos-aware frame sending
# ---------------------------------------------------------------------------


def _corrupt_body(encoded: bytes) -> bytes:
    """Flip one byte inside the CRC-protected body of an encoded frame.

    Corruption deliberately targets the region the CRC covers (never the
    magic or length prefix) so the receiver always *detects* it -- the
    protocol's promise is recovery from detected damage; an undetectable
    two-bit CRC collision is out of scope for a 32-bit CRC at these sizes.
    """
    target = 6 + (len(encoded) - 10) // 2  # middle of body+crc region
    corrupted = bytearray(encoded)
    corrupted[target] ^= 0xFF
    return bytes(corrupted)


def _send_frame(
    write: Callable[[bytes], int],
    frame: Frame,
    *,
    chaos: Optional[Any],
    direction: str,
    attempt: int,
    pipe: Optional[BytePipe] = None,
) -> None:
    """Encode and transmit ``frame``, applying the chaos decision for this
    ``(direction, seq, attempt)`` transmission, if a schedule is installed.

    ``drop`` discards the frame, ``corrupt`` flips a body byte (the receiver
    will CRC-reject it), ``duplicate`` writes it twice, ``delay_s`` hands the
    write to a timer thread, and ``disconnect`` severs the pipe *instead of*
    delivering -- the frame died with the link.  Decisions are keyed by the
    transmission's logical identity, never wall time, so a failing seed
    replays exactly (see :class:`~repro.wei.chaos.ChaosSchedule`).
    """
    encoded = encode_frame(frame)
    if chaos is None:
        write(encoded)
        return
    decision = chaos.decide(direction, frame.seq, attempt, kind=frame.kind)
    if decision.disconnect and pipe is not None:
        chaos.record(direction, frame, attempt, "disconnect")
        pipe.disconnect()
        return
    if decision.drop:
        chaos.record(direction, frame, attempt, "drop")
        return
    if decision.corrupt:
        chaos.record(direction, frame, attempt, "corrupt")
        encoded = _corrupt_body(encoded)
    copies = 2 if decision.duplicate else 1
    if decision.duplicate:
        chaos.record(direction, frame, attempt, "duplicate")
    if decision.delay_s > 0:
        chaos.record(direction, frame, attempt, f"delay:{decision.delay_s:.4f}")
        timer = threading.Timer(
            decision.delay_s, lambda: [write(encoded) for _ in range(copies)]
        )
        timer.daemon = True
        timer.start()
        return
    for _ in range(copies):
        write(encoded)


# ---------------------------------------------------------------------------
# Retransmission timeouts from measured round trips
# ---------------------------------------------------------------------------

#: Smallest retransmission timeout either end arms.  The in-process pipe's
#: round trips are a few milliseconds; the floor keeps a run of very fast
#: samples from arming a timer shorter than one thread wake-up.
MIN_RTO_S = 0.002

#: Factor by which the device backs off one completion's timer each time it
#: expires (RFC 6298, section 5.5), up to its ``retransmit_s``.
DEVICE_BACKOFF = 2.0


class RttEstimator:
    """Smoothed round-trip time and retransmission timeout (RFC 6298).

    The first sample ``R`` sets ``SRTT = R`` and ``RTTVAR = R/2``; each later
    one updates ``RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|`` and then
    ``SRTT = 7/8 SRTT + 1/8 R``.  :attr:`rto_s` is ``SRTT + 4 RTTVAR``
    clamped to ``[MIN_RTO_S, max_rto_s]``, and ``max_rto_s`` itself until
    the first sample.  Callers apply Karn's rule: only a frame transmitted
    exactly once may be sampled.  Not thread-safe; each owner samples and
    reads it under its own lock.
    """

    def __init__(self, max_rto_s: float) -> None:
        if max_rto_s <= 0:
            raise ValueError(f"max_rto_s must be > 0, got {max_rto_s}")
        self.max_rto_s = max_rto_s
        self.srtt_s: Optional[float] = None
        self.rttvar_s = 0.0
        self.samples = 0

    def sample(self, rtt_s: float) -> None:
        """Fold one measured round trip into the estimate."""
        if self.srtt_s is None:
            self.srtt_s = rtt_s
            self.rttvar_s = rtt_s / 2
        else:
            self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * abs(self.srtt_s - rtt_s)
            self.srtt_s = 0.875 * self.srtt_s + 0.125 * rtt_s
        self.samples += 1

    @property
    def rto_s(self) -> float:
        """The timeout to arm for a frame's first transmission."""
        if self.srtt_s is None:
            return self.max_rto_s
        return min(max(self.srtt_s + 4 * self.rttvar_s, MIN_RTO_S), self.max_rto_s)


# ---------------------------------------------------------------------------
# The device end: a protocol-speaking service emulator
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _DueCompletion:
    """A finished action waiting for its COMPLETE frame's due time.

    Stored in a heap ordered by ``(due, seq)`` -- ``seq`` is unique, so the
    ``frame`` field is never compared.
    """

    due: float
    seq: int
    frame: Frame = field(compare=False)


_U = TypeVar("_U", bound="_Unacked")


@dataclass
class _Unacked:
    """A sent frame the peer has not ACKed yet, with its own retransmit timer.

    Both ends keep a table of these -- unACKed SUBMITs at the transport,
    unACKed COMPLETEs at the device -- keyed by sequence number, and sweep
    it the same way: an entry whose deadline passed backs off its timeout
    (:meth:`expire`) and is sent again.
    """

    frame: Frame
    sent_at: float
    timeout_s: float
    deadline: float
    transmissions: int = 1

    @classmethod
    def sent(cls: Type[_U], frame: Frame, now: float, timeout_s: float, **extra: Any) -> _U:
        """A frame first transmitted at ``now``, its timer armed for ``timeout_s``."""
        return cls(frame=frame, sent_at=now, timeout_s=timeout_s, deadline=now + timeout_s, **extra)

    def rearm(self, now: float) -> None:
        """Count one more transmission and restart the timer from ``now``."""
        self.transmissions += 1
        self.deadline = now + self.timeout_s

    def expire(self, now: float, factor: float, ceiling_s: float) -> None:
        """The timer ran out: back off (RFC 6298, section 5.5), then rearm."""
        self.timeout_s = min(self.timeout_s * factor, ceiling_s)
        self.rearm(now)

    def acked(self, rtt: RttEstimator, now: float) -> None:
        """Sample the round trip -- by Karn's rule only if sent exactly once."""
        if self.transmissions == 1:
            rtt.sample(now - self.sent_at)


@dataclass
class _UnackedSubmit(_Unacked):
    """An unACKed SUBMIT, with the ticket it fails and the span it belongs to."""

    ticket: TransportTicket = field(kw_only=True)
    span_id: Optional[int] = field(default=None, kw_only=True)


class ProtocolDevice:
    """The far end of the wire: accepts framed commands, paces, completes.

    One reader thread decodes command frames from the pipe; one worker thread
    owns the due-time heap (pacing each action's already-sampled duration
    against a :class:`WallClock`) and the retransmit timers of unACKed
    completions.  All protocol obligations live here:

    * every syntactically valid ``SUBMIT`` is ACKed, *including repeats* --
      the sequence number identifies the command, so a retransmitted submit
      is re-ACKed without re-running the action (idempotent retry);
    * ``COMPLETE`` frames are retained until the transport ACKs them.  Each
      has its own retransmit deadline, armed from its send time and the
      current RTO of :attr:`rtt` (measured COMPLETE->ACK round trips, Karn's
      rule: a retransmitted completion gives no sample), and backs off by
      :data:`DEVICE_BACKOFF` each time it expires.  A ``SYNC`` announcing
      that the transport reconnected resends every unACKed completion at
      once.

    ``retransmit_s`` is the RTO used before the first sample and the ceiling
    of every completion timer, backed off or not.
    """

    def __init__(
        self,
        pipe: BytePipe,
        *,
        name: str = "wire-device",
        speedup: float = 1000.0,
        wall_clock: Optional[WallClock] = None,
        chaos: Optional[Any] = None,
        retransmit_s: float = 0.05,
    ) -> None:
        if retransmit_s <= 0:
            raise ValueError(f"retransmit_s must be > 0, got {retransmit_s}")
        self.name = name
        self.pipe = pipe
        self.clock = wall_clock if wall_clock is not None else WallClock(speedup=speedup)
        self.chaos = chaos
        self.retransmit_s = retransmit_s
        self._cond = make_condition("protocol-device")
        self._running = True
        self._seen_submits: Dict[int, Frame] = {}  # submit seq -> ACK frame
        self._due: List[_DueCompletion] = []
        self._unacked: Dict[int, _Unacked] = {}  # by completion seq
        self._attempts: Dict[Tuple[str, int], int] = {}
        self._next_tx_seq = 0
        self.rtt = RttEstimator(retransmit_s)
        self.completions_retransmitted = 0
        self.acks_resent = 0
        self.nacks_sent = 0
        self._decoder = FrameDecoder()
        self._reader = threading.Thread(target=self._read_loop, name=f"{name}-reader", daemon=True)
        self._worker = threading.Thread(target=self._work_loop, name=f"{name}-worker", daemon=True)
        self._reader.start()
        self._worker.start()

    @property
    def crc_errors(self) -> int:
        """Command frames this end discarded as corrupt."""
        return self._decoder.crc_errors

    # -- wire helpers ---------------------------------------------------
    def _send(self, frame: Frame) -> None:
        # Callers hold self._cond, which also serialises the attempt counters.
        key = (frame.kind, frame.seq)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        _send_frame(
            self.pipe.write_b,
            frame,
            chaos=self.chaos,
            direction=f"{self.name}:rx",
            attempt=attempt,
            pipe=self.pipe,
        )

    def _retransmit(self, pending: _Unacked) -> None:
        # Callers hold self._cond and have rearmed the timer.
        self.completions_retransmitted += 1
        self._send(pending.frame)

    # -- reader thread --------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
            data = self.pipe.read_b(timeout_s=0.5)
            if data is None:
                # Link down: park until the transport reconnects (it owns
                # the resync handshake) or the pipe is closed for good.
                if self.pipe.closed or not self.pipe.wait_connected(timeout_s=0.5):
                    with self._cond:
                        if not self._running or self.pipe.closed:
                            return
                continue
            if not data:
                continue
            for frame in self._decoder.feed(data):
                self._handle(frame)

    def _handle(self, frame: Frame) -> None:
        if frame.kind == "SUBMIT":
            with self._cond:
                known = self._seen_submits.get(frame.seq)
                if known is not None:
                    self.acks_resent += 1
                    ack = known
                else:
                    ack = Frame(kind="ACK", seq=frame.seq)
                    self._seen_submits[frame.seq] = ack
                    self._schedule_completion(frame)
                self._send(ack)
        elif frame.kind == "ACK":
            with self._cond:
                pending = self._unacked.pop(frame.seq, None)
                if pending is not None:
                    pending.acked(self.rtt, time.monotonic())
        elif frame.kind == "SYNC":
            with self._cond:
                self._send(Frame(kind="SYNC_ACK", seq=frame.seq))
                # The transport lost everything in flight; re-send every
                # completion it has not ACKed, right now.
                now = time.monotonic()
                for seq in sorted(self._unacked):
                    pending = self._unacked[seq]
                    pending.rearm(now)
                    self._retransmit(pending)
                self._cond.notify_all()
        else:
            # COMPLETE/NACK/SYNC_ACK are transport-bound kinds; a conforming
            # transport never sends them.  NACK the nonsense so a human
            # watching the wire sees the protocol violation.
            with self._cond:
                self.nacks_sent += 1
                self._send(Frame(kind="NACK", seq=frame.seq, payload={"error": f"unexpected {frame.kind}"}))

    def _schedule_completion(self, submit: Frame) -> None:
        """Queue the COMPLETE for an accepted submit at its paced due time."""
        payload = submit.payload
        duration_s = float(payload.get("duration_s", 0.0))
        seq = self._next_tx_seq
        self._next_tx_seq += 1
        complete = Frame(
            kind="COMPLETE",
            seq=seq,
            payload={
                "ticket_id": payload.get("ticket_id", ""),
                "module": payload.get("module", ""),
                "action": payload.get("action", ""),
                "error": None,
                "submit_seq": submit.seq,
            },
        )
        due = self.clock.now() + duration_s
        heapq.heappush(self._due, _DueCompletion(due=due, seq=seq, frame=complete))
        self._cond.notify_all()

    # -- worker thread --------------------------------------------------
    def _work_loop(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
                now = time.monotonic()
                wait_s = 0.5
                # Ship every completion whose paced due time has passed.
                while self._due and self._due[0].due <= self.clock.now():
                    item = heapq.heappop(self._due)
                    self._unacked[item.seq] = _Unacked.sent(item.frame, now, self.rtt.rto_s)
                    self._send(item.frame)
                if self._due:
                    if self.clock.sleeps:
                        wait_s = min(
                            wait_s, self.clock.real_seconds(self._due[0].due - self.clock.now())
                        )
                    else:
                        # No-sleep test clock: jump straight to the due time.
                        self.clock.advance_to(self._due[0].due)
                        continue
                # Retransmit each completion whose own timer expired.
                for pending in self._unacked.values():
                    if pending.deadline <= now:
                        pending.expire(now, DEVICE_BACKOFF, self.retransmit_s)
                        self._retransmit(pending)
                    wait_s = min(wait_s, pending.deadline - now)
                self._cond.wait(max(wait_s, 0.001))

    # -- lifecycle ------------------------------------------------------
    def pending(self) -> int:
        """Actions accepted but whose completion is not yet ACKed."""
        with self._cond:
            return len(self._due) + len(self._unacked)

    def close(self) -> None:
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in (self._reader, self._worker):
            if thread.is_alive() and thread is not threading.current_thread():
                thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The transport end: the DeviceDriver the engine binds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WireStats:
    """Counters snapshot for one :class:`WireProtocolTransport`."""

    frames_sent: int
    frames_received: int
    crc_errors: int
    retries: int
    resyncs: int
    duplicates_dropped: int
    completions_retransmitted: int
    disconnects: int

    def to_dict(self) -> Dict[str, int]:
        """JSON-serialisable form (soak logs / portal / CLI reporting)."""
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "crc_errors": self.crc_errors,
            "retries": self.retries,
            "resyncs": self.resyncs,
            "duplicates_dropped": self.duplicates_dropped,
            "completions_retransmitted": self.completions_retransmitted,
            "disconnects": self.disconnects,
        }


class WireProtocolTransport:
    """A :class:`~repro.wei.drivers.base.DeviceDriver` speaking the framed protocol.

    Owns side A of a :class:`BytePipe` whose side B is served by a
    :class:`ProtocolDevice` (built automatically unless one is supplied).
    ``submit()`` runs on the engine thread: it frames the action, transmits
    it once and returns the ticket without waiting for the device's ACK.
    The submit stays in the transport's table of unACKed submits until its
    ACK -- or its COMPLETE, which counts as an implicit ACK -- arrives; the
    transport's own retransmit thread resends it under the same sequence
    number whenever its timer expires, backing off each time.  The first
    timer is the current RTO of :attr:`rtt`, estimated from measured
    SUBMIT->ACK round trips; by Karn's rule only a submit ACKed on its first
    transmission gives a sample.  A submit that exhausts its retries, is
    NACKed, or is still unACKed when the transport closes fails its ticket:
    the failure is posted to the completion callbacks like a completion, so
    the engine raises it when it waits for that ticket.  Completions are
    decoded by the transport's reader thread and posted to the registered
    callbacks strictly out-of-band.

    Parameters
    ----------
    speedup:
        Wall-clock compression the device paces durations against (ignored
        when ``wall_clock`` is given).
    chaos:
        Optional :class:`~repro.wei.chaos.ChaosSchedule` applied to **every
        frame in both directions**.
    ack_timeout_s:
        Real seconds to wait for a submit ACK before the first round trip is
        measured, and the ceiling of the measured RTO.
    max_retries / backoff / max_backoff_s:
        How many retransmissions of one submit to attempt, the multiplicative
        backoff of its timer between them, and the cap of that backed-off
        timer.  The defaults survive the default chaos rates with margin.
    device_retransmit_s:
        The device's initial RTO and ceiling for unACKed completions (see
        :class:`ProtocolDevice`).
    """

    def __init__(
        self,
        *,
        name: str = "wire",
        speedup: float = 1000.0,
        wall_clock: Optional[WallClock] = None,
        chaos: Optional[Any] = None,
        ack_timeout_s: float = 0.05,
        max_retries: int = 40,
        backoff: float = 1.5,
        max_backoff_s: float = 0.5,
        device_retransmit_s: float = 0.05,
    ) -> None:
        if ack_timeout_s <= 0:
            raise ValueError(f"ack_timeout_s must be > 0, got {ack_timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        self.name = name
        self.chaos = chaos
        self.ack_timeout_s = ack_timeout_s
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_backoff_s = max_backoff_s
        self.pipe = BytePipe()
        self.device = ProtocolDevice(
            self.pipe,
            name=f"{name}-device",
            speedup=speedup,
            wall_clock=wall_clock,
            chaos=chaos,
            retransmit_s=device_retransmit_s,
        )
        self._cond = make_condition("wire-transport")
        self._running = True
        self._callbacks: List[Callable[[TransportCompletion], None]] = []
        self._decoder = FrameDecoder()
        self._next_seq = 0
        self._unacked: Dict[int, _UnackedSubmit] = {}  # by submit seq
        #: When the retransmit thread wakes next; a submit whose timer runs
        #: out sooner wakes it early.
        self._wake_at = 0.0
        self._tickets: Dict[str, TransportTicket] = {}
        #: Tickets whose completion was delivered or whose submit failed.
        self._resolved_ticket_ids: Set[str] = set()
        self._seen_completion_seqs: Set[int] = set()
        self._attempts: Dict[Tuple[str, int], int] = {}
        self.rtt = RttEstimator(ack_timeout_s)
        # Counters live on the metrics registry (docs/observability.md);
        # WireStats stays their thin view.  Mutation happens under
        # self._cond, exactly like the plain ints they replaced.
        registry = obs_metrics.get_registry()
        labels = {"transport": name, "instance": obs_metrics.next_instance()}
        self._m_frames_sent = registry.counter("wire_frames_sent_total", labels)
        self._m_retries = registry.counter("wire_retries_total", labels)
        self._m_resyncs = registry.counter("wire_resyncs_total", labels)
        self._m_duplicates_dropped = registry.counter("wire_duplicates_dropped_total", labels)
        self._reader = threading.Thread(target=self._read_loop, name=f"{name}-reader", daemon=True)
        self._retransmitter = threading.Thread(
            target=self._retransmit_loop, name=f"{name}-retransmit", daemon=True
        )
        self._reader.start()
        self._retransmitter.start()

    # -- wire helpers ---------------------------------------------------
    def _send(self, frame: Frame, parent_id: Optional[int] = None) -> None:
        """Transmit one frame (its ``wire.frame`` span parents to ``parent_id``,
        or to the calling thread's open span)."""
        with self._cond:
            key = (frame.kind, frame.seq)
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self._m_frames_sent.inc()
            if attempt > 0 and frame.kind == "SUBMIT":
                self._m_retries.inc()
        with obs_tracer.span(
            "wire.frame", parent_id=parent_id, kind=frame.kind, seq=frame.seq, attempt=attempt
        ):
            _send_frame(
                self.pipe.write_a,
                frame,
                chaos=self.chaos,
                direction=f"{self.name}:tx",
                attempt=attempt,
                pipe=self.pipe,
            )

    # -- DeviceDriver protocol ------------------------------------------
    def submit(
        self, action: str, *, module: str, duration_s: float, **kwargs: Any
    ) -> TransportTicket:
        """Frame the action, transmit it once, and return its ticket.

        The ACK is not awaited: the retransmit thread resends the submit
        until it is ACKed, always under the same sequence number, and the
        device ACKs repeats without re-running the action.  If the wire
        stays dead through every retry the ticket fails with
        :class:`~repro.wei.drivers.base.DriverError`, and if the transport
        closes first with the closed-transport ``RuntimeError`` -- both are
        raised where the engine waits for the ticket.  Raises that
        ``RuntimeError`` directly when the transport is already closed.
        """
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s}")
        with obs_tracer.span("wire.submit", module=module, action=action) as submit_span:
            self._ensure_connected()
            with self._cond:
                if not self._running:
                    raise self._closed_error()
                seq = self._next_seq
                self._next_seq += 1
                ticket = TransportTicket(
                    ticket_id=f"{self.name}:{seq}",
                    module=module,
                    action=action,
                    duration_s=float(duration_s),
                    sim_start=float(kwargs.get("sim_start", 0.0)),
                    sim_end=float(kwargs.get("sim_end", 0.0)),
                )
                frame = Frame(
                    kind="SUBMIT",
                    seq=seq,
                    payload={
                        "ticket_id": ticket.ticket_id,
                        "module": module,
                        "action": action,
                        "duration_s": float(duration_s),
                    },
                )
                self._tickets[ticket.ticket_id] = ticket
                entry = self._unacked[seq] = _UnackedSubmit.sent(
                    frame,
                    time.monotonic(),
                    self.rtt.rto_s,
                    ticket=ticket,
                    span_id=submit_span.span.span_id if submit_span.span is not None else None,
                )
                if entry.deadline < self._wake_at:
                    self._cond.notify_all()
            submit_span.set(seq=seq, ticket_id=ticket.ticket_id)
            self._send(frame)
        return ticket

    def _closed_error(self) -> RuntimeError:
        return RuntimeError(f"transport {self.name!r} is closed")

    def _give_up(self, seq: int, error: Exception) -> Tuple[_UnackedSubmit, Exception]:
        """Drop unACKed submit ``seq`` from the table and resolve its ticket.

        Callers hold ``self._cond`` and post the returned failure with
        :meth:`_post_failures` once they released it.
        """
        entry = self._unacked.pop(seq)
        self._resolved_ticket_ids.add(entry.ticket.ticket_id)
        return entry, error

    def _post_failures(self, failures: List[Tuple[_UnackedSubmit, Exception]]) -> None:
        """Post each failed submit's ticket to the callbacks (no lock held)."""
        if not failures:
            return
        with self._cond:
            callbacks = list(self._callbacks)
        for entry, error in failures:
            completion = TransportCompletion.for_ticket(
                entry.ticket, error=str(error), failure=error
            )
            for callback in callbacks:
                callback(completion)

    def on_completion(self, callback: Callable[[TransportCompletion], None]) -> None:
        """Register ``callback`` for every future completion (deduplicated)."""
        with self._cond:
            if callback not in self._callbacks:
                self._callbacks.append(callback)

    def pending(self) -> int:
        """Accepted actions whose completion has not been delivered yet.

        A submit that failed (retries exhausted, NACKed, or cut off by
        :meth:`close`) no longer counts: its ticket is resolved.
        """
        with self._cond:
            return len(self._tickets) - len(self._resolved_ticket_ids)

    def close(self) -> None:
        """Stop both ends and the transport's threads; the pipe closes for good.

        Every submit still unACKed fails with the closed-transport
        ``RuntimeError``, posted from the retransmit thread as it exits.
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
        # Closing the pipe first wakes both ends' readers at once.
        self.pipe.close()
        self.device.close()
        for thread in (self._reader, self._retransmitter):
            if thread.is_alive() and thread is not threading.current_thread():
                thread.join(timeout=5.0)

    # -- retransmit thread ----------------------------------------------
    def _retransmit_loop(self) -> None:
        """Resend every submit whose timer expired; fail those out of retries.

        Frames are sent and failures posted outside the transport lock.  On
        close, every submit still unACKed fails with the closed error.
        """
        while True:
            due: List[_UnackedSubmit] = []
            failures: List[Tuple[_UnackedSubmit, Exception]] = []
            with self._cond:
                running = self._running
                if not running:
                    failures = [
                        self._give_up(seq, self._closed_error()) for seq in sorted(self._unacked)
                    ]
                else:
                    now = time.monotonic()
                    for seq, entry in sorted(self._unacked.items()):
                        if entry.deadline > now:
                            continue
                        if entry.transmissions > self.max_retries:
                            ticket = entry.ticket
                            error = DriverError(
                                f"device never ACKed {ticket.module}.{ticket.action} (seq {seq}) "
                                f"after {entry.transmissions} transmissions"
                            )
                            failures.append(self._give_up(seq, error))
                        else:
                            entry.expire(now, self.backoff, self.max_backoff_s)
                            due.append(entry)
                    if not due and not failures:
                        self._wake_at = min(
                            (entry.deadline for entry in self._unacked.values()),
                            default=now + 0.5,
                        )
                        self._cond.wait(max(self._wake_at - now, 0.001))
                        continue
            for entry in due:
                self._ensure_connected()
                self._send(entry.frame, parent_id=entry.span_id)
            self._post_failures(failures)
            if not running:
                return

    # -- reader thread --------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
            data = self.pipe.read_a(timeout_s=0.5)
            if data is None:
                if self.pipe.closed:
                    return
                # Link down: the transport owns recovery.
                self._ensure_connected()
                continue
            if not data:
                continue
            for frame in self._decoder.feed(data):
                self._dispatch(frame)

    def _dispatch(self, frame: Frame) -> None:
        if frame.kind == "ACK":
            with self._cond:
                entry = self._unacked.pop(frame.seq, None)
                if entry is not None:
                    entry.acked(self.rtt, time.monotonic())
        elif frame.kind == "NACK":
            reason = str(frame.payload.get("error", "unspecified"))
            with self._cond:
                if frame.seq not in self._unacked:
                    return
                failure = self._give_up(
                    frame.seq, DriverError(f"device NACKed seq {frame.seq}: {reason}")
                )
            self._post_failures([failure])
        elif frame.kind == "COMPLETE":
            self._handle_complete(frame)
        # SYNC_ACK needs no action: the resync handshake is fire-and-forget
        # (see _ensure_connected) -- receiving it at all proves the link is
        # back, and the retransmissions it triggered arrive as COMPLETEs.
        # SUBMIT/SYNC are device-bound; a conforming device never sends them.

    def _handle_complete(self, frame: Frame) -> None:
        # Always ACK, even for repeats -- the device retransmits until it
        # hears us, so a swallowed ACK must not echo forever.
        self._send(Frame(kind="ACK", seq=frame.seq))
        ticket_id = str(frame.payload.get("ticket_id", ""))
        callbacks: List[Callable[[TransportCompletion], None]]
        with obs_tracer.span(
            "wire.complete",
            parent_id=obs_tracer.bound(ticket_id),
            ticket_id=ticket_id,
            seq=frame.seq,
        ) as complete_span:
            with self._cond:
                # The device only completes a submit it accepted, so the
                # COMPLETE is the submit's ACK too; as with a retransmitted
                # submit's ACK, it gives no round-trip sample.
                self._unacked.pop(frame.payload.get("submit_seq", -1), None)
                if frame.seq in self._seen_completion_seqs:
                    self._m_duplicates_dropped.inc()
                    complete_span.set(duplicate=True)
                    return
                self._seen_completion_seqs.add(frame.seq)
                ticket = self._tickets.get(ticket_id)
                if ticket is None or ticket_id in self._resolved_ticket_ids:
                    # A completion for a command we never issued, or whose
                    # submit already failed: drop it loudly in the counters
                    # rather than inventing or reviving a ticket.
                    self._m_duplicates_dropped.inc()
                    complete_span.set(duplicate=True)
                    return
                self._resolved_ticket_ids.add(ticket_id)
                callbacks = list(self._callbacks)
            error = frame.payload.get("error")
            completion = TransportCompletion.for_ticket(ticket, error=error)
            for callback in callbacks:
                callback(completion)

    # -- reconnect-with-resync ------------------------------------------
    def _ensure_connected(self) -> None:
        """Reconnect a severed link and announce the resync to the device.

        Runs on whichever thread notices the dead link first: the reader on
        EOF, the engine thread before a submit's first transmission, or the
        retransmit thread before a resend.  Reconnecting and
        sending ``SYNC`` makes the device retransmit every unACKed
        completion immediately; the handshake is deliberately non-blocking --
        the ``SYNC_ACK`` comes back through the normal read loop, and even a
        chaos-eaten ``SYNC`` is covered by the device's per-completion
        retransmit timers.  A resync therefore never loses work; it only
        costs wall time, which the ``resyncs`` counter accounts for.
        """
        with self._cond:
            if not self._running or self.pipe.closed or self.pipe.connected:
                return
            try:
                self.pipe.reconnect()
            except PipeClosedError:
                return
            self._m_resyncs.inc()
            seq = self._next_seq
            self._next_seq += 1
        with obs_tracer.span("wire.resync", transport=self.name, seq=seq):
            self._send(Frame(kind="SYNC", seq=seq))

    # -- introspection --------------------------------------------------
    def stats(self) -> WireStats:
        """Counters snapshot, taken atomically under the transport lock.

        A thin view over the metrics-registry counters the transport
        mutates under that same lock, so the returned fields are mutually
        consistent with each other (decoder/device/pipe counters remain
        owned by those components).
        """
        with self._cond:
            return WireStats(
                frames_sent=int(self._m_frames_sent.value),
                frames_received=self._decoder.frames_decoded,
                crc_errors=self._decoder.crc_errors + self.device.crc_errors,
                retries=int(self._m_retries.value),
                resyncs=int(self._m_resyncs.value),
                duplicates_dropped=int(self._m_duplicates_dropped.value),
                completions_retransmitted=self.device.completions_retransmitted,
                disconnects=self.pipe.disconnects,
            )
