"""Seeded chaos schedules for the framed wire protocol.

A :class:`ChaosSchedule` is the adversary a ``transport="wire"`` campaign
runs against (``run_campaign(chaos=...)``): it decides, for every frame
transmission on a
:class:`~repro.wei.drivers.protocol.WireProtocolTransport`'s pipe, whether
that transmission is dropped, corrupted, duplicated, delayed, or whether the
link is severed outright.  Two properties make it a *schedule* rather than
mere noise:

**Exact replayability.**  Decisions are not drawn from a shared RNG stream
(whose draw order would depend on thread timing) but derived independently
per transmission from the tuple ``(seed, direction, kind, seq, attempt)`` --
``direction`` names the transport and which way the frame travels, ``kind``
the frame type (so an ``ACK`` and a ``COMPLETE`` that happen to share a
sequence number draw independent fates), ``seq`` is the frame's protocol
sequence number and ``attempt`` counts its retransmissions.  The mapping
uses :func:`zlib.crc32` (stable across
processes and Python versions, unlike ``hash``), so the same seed perturbs
the same logical frames in the same way on every run, no matter how the
threads interleave.  A failing chaos seed is therefore a complete repro
recipe: ``python -m repro campaign --transport wire --chaos-seed <seed>``.

**Guaranteed liveness.**  Without care, a schedule could starve a frame
forever (drop every retransmission) and turn "chaos" into "hang".  Two
guards prevent that deterministically: from ``clean_after`` attempts on, a
transmission is always delivered untouched -- so every retry loop terminates
-- and the total number of injected disconnects is capped at
``max_disconnects``.  Chaos may cost retries, resyncs and wall time; it can
never cost an action.

Every injected fault is recorded in :attr:`ChaosSchedule.events` (a bounded,
thread-safe log), so a failure report can show exactly what was done to the
wire.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.analysis.runtime import make_lock
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer

__all__ = ["ChaosDecision", "ChaosSchedule"]

#: Keep at most this many chaos events in the in-memory log; long campaigns
#: inject thousands of faults and only the log's tail matters for debugging.
MAX_EVENTS = 10_000


@dataclass(frozen=True)
class ChaosDecision:
    """What happens to one frame transmission."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_s: float = 0.0
    disconnect: bool = False

    @property
    def clean(self) -> bool:
        """True when the transmission is delivered exactly as sent."""
        return not (self.drop or self.corrupt or self.duplicate or self.disconnect) and self.delay_s == 0.0


def _unit_draws(
    seed: int, direction: str, kind: str, seq: int, attempt: int, n: int
) -> List[float]:
    """``n`` reproducible uniform(0,1) draws for one transmission identity.

    Each draw chains CRC32 over the identity string, giving a stable,
    process-independent pseudo-random sequence (``hash()`` would vary with
    ``PYTHONHASHSEED``; a shared ``random.Random`` would vary with thread
    interleaving).  Statistical quality is ample for fault rates.
    """
    state = zlib.crc32(f"{seed}|{direction}|{kind}|{seq}|{attempt}".encode("utf-8"))
    draws = []
    for index in range(n):
        state = zlib.crc32(f"{state}:{index}".encode("utf-8"), state)
        draws.append((state & 0xFFFFFF) / float(1 << 24))
    return draws


class ChaosSchedule:
    """Deterministic, seeded fault schedule for a framed transport.

    Parameters are per-transmission probabilities; faults are mutually
    exclusive in precedence order disconnect > drop > corrupt > duplicate >
    delay (a single transmission suffers at most one).  ``seed`` fully
    determines every decision; see the module docstring for the replay and
    liveness guarantees.

    One schedule may be shared by several transports (``run_campaign``
    shares one across every workcell of a fleet): decisions are keyed by the
    transport-qualified ``direction`` string, so sharing changes nothing
    about determinism, and the disconnect cap applies fleet-wide.
    """

    def __init__(
        self,
        seed: int,
        *,
        drop_rate: float = 0.08,
        corrupt_rate: float = 0.08,
        duplicate_rate: float = 0.08,
        delay_rate: float = 0.10,
        max_delay_s: float = 0.002,
        disconnect_rate: float = 0.01,
        max_disconnects: int = 3,
        clean_after: int = 6,
    ):
        for label, rate in (
            ("drop_rate", drop_rate),
            ("corrupt_rate", corrupt_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
            ("disconnect_rate", disconnect_rate),
        ):
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if clean_after < 1:
            raise ValueError(f"clean_after must be >= 1, got {clean_after}")
        if max_disconnects < 0:
            raise ValueError(f"max_disconnects must be >= 0, got {max_disconnects}")
        self.seed = int(seed)
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.delay_rate = delay_rate
        self.max_delay_s = max_delay_s
        self.disconnect_rate = disconnect_rate
        self.max_disconnects = max_disconnects
        self.clean_after = clean_after
        # Instrumentable (repro.analysis.runtime): chaos decisions fire from
        # engine, reader and device threads while their own locks are held.
        self._lock = make_lock("chaos-schedule")
        # Counters live on the metrics registry (mutated under self._lock,
        # like the plain ints they replaced); the per-event-kind series are
        # created lazily in record().
        registry = obs_metrics.get_registry()
        self._labels = {"seed": str(self.seed), "instance": obs_metrics.next_instance()}
        self._m_injected = registry.counter("chaos_injections_total", self._labels)
        self._m_disconnects = registry.counter("chaos_disconnects_total", self._labels)
        #: Injected-fault log: ``{direction, kind, seq, attempt, event}`` in
        #: injection order (bounded to the most recent ``MAX_EVENTS``).
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def decide(self, direction: str, seq: int, attempt: int, kind: str = "") -> ChaosDecision:
        """The fate of transmission ``attempt`` of ``kind`` frame ``seq`` on ``direction``.

        ``kind`` distinguishes frame types whose sequence numbers come from
        independent counters (a device's ``ACK`` for submit 0 and its
        ``COMPLETE`` 0 must not share a fate).  Pure in everything except
        the disconnect cap: the same arguments always yield the same base
        decision, and only whether a *disconnect* fires can additionally
        depend on how many the schedule already spent.
        """
        if attempt >= self.clean_after:
            # Liveness guard: a frame retried this often always gets through.
            return ChaosDecision()
        draw, delay_draw = _unit_draws(self.seed, direction, kind, seq, attempt, 2)
        edge = self.disconnect_rate
        if draw < edge:
            with self._lock:
                if int(self._m_disconnects.value) < self.max_disconnects:
                    self._m_disconnects.inc()
                    return ChaosDecision(disconnect=True)
            return ChaosDecision()  # cap reached: deliver instead
        edge += self.drop_rate
        if draw < edge:
            return ChaosDecision(drop=True)
        edge += self.corrupt_rate
        if draw < edge:
            return ChaosDecision(corrupt=True)
        edge += self.duplicate_rate
        if draw < edge:
            return ChaosDecision(duplicate=True)
        edge += self.delay_rate
        if draw < edge:
            return ChaosDecision(delay_s=delay_draw * self.max_delay_s)
        return ChaosDecision()

    def record(self, direction: str, frame: Any, attempt: int, event: str) -> None:
        """Log one injected fault (called by the protocol layer)."""
        kind = getattr(frame, "kind", "?")
        seq = getattr(frame, "seq", -1)
        per_event = obs_metrics.get_registry().counter(
            "chaos_injections_by_event_total", {**self._labels, "event": event}
        )
        with self._lock:
            self._m_injected.inc()
            per_event.inc()
            if len(self.events) >= MAX_EVENTS:
                del self.events[: MAX_EVENTS // 2]
            self.events.append(
                {
                    "direction": direction,
                    "kind": kind,
                    "seq": seq,
                    "attempt": attempt,
                    "event": event,
                }
            )
        # Fires inside the transmitting thread's open "wire.frame" span, so
        # the injection shows up in the trace as a child point event.
        obs_tracer.event(
            "chaos.inject",
            event=event,
            kind=kind,
            seq=seq,
            attempt=attempt,
            direction=direction,
        )

    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        """Total faults injected so far (all kinds, all transports)."""
        with self._lock:
            return int(self._m_injected.value)

    @property
    def disconnects_injected(self) -> int:
        """Link severances injected so far (capped at ``max_disconnects``)."""
        with self._lock:
            return int(self._m_disconnects.value)

    def describe(self) -> Dict[str, Any]:
        """JSON-serialisable configuration + counters (for failure reports)."""
        with self._lock:
            return {
                "seed": self.seed,
                "drop_rate": self.drop_rate,
                "corrupt_rate": self.corrupt_rate,
                "duplicate_rate": self.duplicate_rate,
                "delay_rate": self.delay_rate,
                "max_delay_s": self.max_delay_s,
                "disconnect_rate": self.disconnect_rate,
                "max_disconnects": self.max_disconnects,
                "clean_after": self.clean_after,
                "faults_injected": int(self._m_injected.value),
                "disconnects_injected": int(self._m_disconnects.value),
            }
