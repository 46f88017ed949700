"""Chaos engineering for the workcell transport layer.

:mod:`repro.wei.chaos.schedule` provides :class:`ChaosSchedule` -- a seeded,
exactly-replayable per-frame fault schedule (drop / corrupt / duplicate /
delay / disconnect) for the framed wire protocol.  A ``transport="wire"``
campaign takes one through ``run_campaign(chaos=...)``;
:mod:`repro.wei.chaos.soak` holds :func:`~repro.wei.chaos.soak.campaign_fingerprint`,
the science-only fingerprint that must not change under chaos (or any other
execution configuration).

``soak`` is intentionally *not* imported here: the campaign layer imports
the schedule, and the fingerprint reads campaign results.  Import it
explicitly: ``from repro.wei.chaos.soak import campaign_fingerprint``.
"""

from repro.wei.chaos.schedule import ChaosDecision, ChaosSchedule

__all__ = ["ChaosDecision", "ChaosSchedule"]
