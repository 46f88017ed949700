"""The completion bridge: driver callback threads -> the engine's event loop.

The :class:`~repro.wei.concurrent.ConcurrentWorkflowEngine` is strictly
single-threaded -- every deck mutation, timeline reservation and program
resume happens on the thread driving its event loop.  Hardware drivers are
not: their completions arrive from worker/callback threads at unpredictable
real times and possibly out of order.  :class:`CompletionBridge` is the only
object both sides touch:

* drivers call :meth:`post` from **their** threads; the completion is parked
  in a queue under a condition variable,
* the engine calls :meth:`wait_for` from **its** thread at the action's
  scheduled end event; it blocks (real time) until that ticket's completion
  arrives, then applies the two-phase
  :meth:`~repro.hardware.base.ActionHandle.complete` itself -- so state
  mutations still happen on exactly one thread.

Fault semantics (deterministic by construction):

* a repeated delivery for a ticket that already arrived -- pending or
  consumed -- is **rejected as a duplicate** (counted once per extra post),
* a delivery for a ticket the engine already gave up on (:meth:`wait_for`
  timed out) is **rejected as late**,
* a ticket whose completion has not arrived ``timeout_s`` real seconds
  after it was due raises
  :class:`~repro.wei.drivers.base.CompletionTimeout` on the engine side,
* a completion carrying a ``failure`` (the transport could not deliver the
  command) resolves its ticket and raises that failure on the engine side,
* a completion posted from the same thread that consumes it raises
  :class:`~repro.wei.drivers.base.InBandCompletionError` -- drivers must be
  out-of-band, and the bridge enforces it.

Every accepted completion is retained (with posting-thread identity and
posted/delivered timestamps) so tests and benchmarks can audit threading and
delivery latency after a run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.analysis.runtime import make_condition, owner_check
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.obs import tracer as obs_tracer
from repro.wei.drivers.base import (
    CompletionTimeout,
    InBandCompletionError,
    TransportCompletion,
    TransportTicket,
)

__all__ = ["BridgeStats", "CompletionBridge"]


@dataclass(frozen=True)
class BridgeStats:
    """Counters snapshot for one :class:`CompletionBridge`."""

    registered: int
    delivered: int
    outstanding: int
    rejected_duplicate: int
    rejected_late: int
    timed_out: int

    def to_dict(self) -> Dict[str, int]:
        """JSON-serialisable form (portal / CLI reporting)."""
        return {
            "registered": self.registered,
            "delivered": self.delivered,
            "outstanding": self.outstanding,
            "rejected_duplicate": self.rejected_duplicate,
            "rejected_late": self.rejected_late,
            "timed_out": self.timed_out,
        }


class CompletionBridge:
    """Thread-safe mailbox pairing transport tickets with their completions."""

    def __init__(self, *, name: str = "bridge") -> None:
        # Instrumentable under repro.analysis.runtime: the bridge's condition
        # variable is a node in the lock-order graph when analysis is active.
        self._cond = make_condition("completion-bridge")
        self.name = name
        #: Tickets the engine has announced (id -> ticket), not yet resolved.
        self._outstanding: Dict[str, TransportTicket] = {}
        #: Completions posted but not yet consumed by the engine.
        self._arrived: Dict[str, TransportCompletion] = {}
        #: Ticket ids whose completion the engine consumed.
        self._consumed: Set[str] = set()
        #: Ticket ids the engine gave up on (wait_for timed out).
        self._timed_out: Set[str] = set()
        #: Every accepted completion, in delivery order (audit trail).
        self.delivered: List[TransportCompletion] = []
        #: Every rejected completion, in rejection order.
        self.rejected: List[TransportCompletion] = []
        # Counters live on the metrics registry (docs/observability.md);
        # BridgeStats stays their thin view.  Mutation happens under
        # self._cond, exactly like the plain ints they replaced.
        registry = obs_metrics.get_registry()
        labels = {"bridge": name, "instance": obs_metrics.next_instance()}
        self._m_registered = registry.counter("bridge_registered_total", labels)
        self._m_delivered = registry.counter("bridge_delivered_total", labels)
        self._m_rejected_duplicate = registry.counter("bridge_rejected_duplicate_total", labels)
        self._m_rejected_late = registry.counter("bridge_rejected_late_total", labels)
        self._m_timed_out = registry.counter("bridge_timed_out_total", labels)
        #: Delivery latency distribution (posted -> consumed); the fleet
        #: status columns read p50/p95 straight off this histogram.
        self.delivery_latency = registry.histogram("completion_delivery_latency_s", labels)

    # ------------------------------------------------------------------
    # Engine side
    # ------------------------------------------------------------------
    def register(self, ticket: TransportTicket) -> TransportTicket:
        """Announce an in-flight ticket (engine thread, right after submit).

        Registration is what :meth:`outstanding` counts; a completion that
        races in *before* registration is simply parked and matched here.
        """
        owner_check(self, "engine-side")
        with self._cond:
            if ticket.ticket_id in self._consumed or ticket.ticket_id in self._timed_out:
                raise ValueError(f"ticket {ticket.ticket_id!r} was already resolved")
            self._outstanding[ticket.ticket_id] = ticket
            self._m_registered.inc()
        return ticket

    def wait_for(self, ticket: TransportTicket, timeout_s: float) -> TransportCompletion:
        """Block until ``ticket``'s completion arrives; deliver it exactly once.

        ``timeout_s`` is a *real-time* grace period counted from the
        ticket's ``due_monotonic`` (or from now, if that has passed): an
        action the hardware paces for minutes gets those minutes plus the
        grace, while hardware that stops talking still fails the run
        instead of hanging it.  On timeout the ticket is
        marked resolved, so a completion limping in afterwards is rejected
        as late rather than resurrecting a dead action.  A completion whose
        ``failure`` is set resolves the ticket and raises that failure.
        """
        owner_check(self, "engine-side")
        deadline = max(time.monotonic(), ticket.due_monotonic) + timeout_s
        try:
            with obs_tracer.span(
                "bridge.deliver",
                parent_id=obs_tracer.bound(ticket.ticket_id),
                ticket_id=ticket.ticket_id,
                module=ticket.module,
                action=ticket.action,
            ):
                with self._cond:
                    while ticket.ticket_id not in self._arrived:
                        remaining = deadline - time.monotonic()
                        if remaining > 0:
                            self._cond.wait(remaining)
                        # Re-check the predicate before declaring a timeout: a post()
                        # may have raced in exactly as the wait expired, and a
                        # completion that arrived within the window must be honoured.
                        if ticket.ticket_id in self._arrived:
                            break
                        if deadline - time.monotonic() <= 0:
                            self._outstanding.pop(ticket.ticket_id, None)
                            self._timed_out.add(ticket.ticket_id)
                            self._m_timed_out.inc()
                            raise CompletionTimeout(
                                f"completion for {ticket.module}.{ticket.action} "
                                f"(ticket {ticket.ticket_id}) did not arrive within {timeout_s}s of its due time"
                            )
                    completion = self._arrived.pop(ticket.ticket_id)
                    self._outstanding.pop(ticket.ticket_id, None)
                    self._consumed.add(ticket.ticket_id)
                    if completion.thread_id == threading.get_ident():
                        # In-band delivery: resolve the ticket but record the
                        # completion as rejected, not delivered, so post-run audits
                        # of `delivered` never see a completion the bridge refused.
                        self.rejected.append(completion)
                        raise InBandCompletionError(
                            f"completion for {ticket.module}.{ticket.action} was posted from "
                            f"the consuming thread ({completion.thread_name!r}); drivers must "
                            "deliver completions out-of-band"
                        )
                    if completion.failure is not None:
                        # The command never reached the device: the run
                        # fails here, at the action's end event.
                        raise completion.failure
                    completion.delivered_monotonic = time.monotonic()
                    self.delivered.append(completion)
                    self._m_delivered.inc()
                    if completion.latency_s is not None:
                        self.delivery_latency.observe(completion.latency_s)
        except CompletionTimeout:
            # Dump the flight recorder outside the bridge lock: the ring
            # holds the causal history that led up to the silent device.
            obs_recorder.flight_dump(
                "completion-timeout",
                ticket_id=ticket.ticket_id,
                module=ticket.module,
                action=ticket.action,
                timeout_s=timeout_s,
            )
            raise
        return completion

    def outstanding(self) -> int:
        """Number of registered tickets not yet delivered or timed out."""
        with self._cond:
            return len(self._outstanding)

    # ------------------------------------------------------------------
    # Driver side
    # ------------------------------------------------------------------
    def post(self, completion: TransportCompletion) -> bool:
        """Deliver one completion (any thread); returns True when accepted.

        Duplicates (the ticket already has a pending or consumed
        completion) and late arrivals (the engine already timed the ticket
        out) are rejected deterministically and counted, never raised --
        a flaky transport must not crash the driver's own thread.
        """
        if completion.posted_monotonic == 0.0:
            completion.posted_monotonic = time.monotonic()
        with obs_tracer.span(
            "bridge.post",
            parent_id=obs_tracer.bound(completion.ticket_id),
            ticket_id=completion.ticket_id,
        ) as post_span:
            with self._cond:
                ticket_id = completion.ticket_id
                if ticket_id in self._arrived or ticket_id in self._consumed:
                    self._m_rejected_duplicate.inc()
                    self.rejected.append(completion)
                    post_span.set(accepted=False, reason="duplicate")
                    return False
                if ticket_id in self._timed_out:
                    self._m_rejected_late.inc()
                    self.rejected.append(completion)
                    post_span.set(accepted=False, reason="late")
                    return False
                self._arrived[ticket_id] = completion
                self._cond.notify_all()
                post_span.set(accepted=True)
                return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> BridgeStats:
        """Counters snapshot, taken atomically under the bridge lock.

        A thin view over the metrics-registry counters the bridge mutates
        under that same lock, so the returned fields are mutually
        consistent (no reader-thread increment can land between them).
        """
        with self._cond:
            return BridgeStats(
                registered=int(self._m_registered.value),
                delivered=len(self.delivered),
                outstanding=len(self._outstanding),
                rejected_duplicate=int(self._m_rejected_duplicate.value),
                rejected_late=int(self._m_rejected_late.value),
                timed_out=len(self._timed_out),
            )

    def delivery_latencies(self) -> List[float]:
        """Real posted->consumed latency (seconds) of every delivered completion."""
        with self._cond:
            return [c.latency_s for c in self.delivered if c.latency_s is not None]
