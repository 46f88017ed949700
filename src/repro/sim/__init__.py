"""Discrete-event simulation kernel.

The paper's experiments take hours of wall-clock time on a physical workcell
(the B = 1 run takes 8 h 12 m).  This package provides the simulated
substitute for real time: a :class:`SimClock` that the workflow engine
advances by the sampled duration of each device action, an event scheduler
for concurrent device activity (used by the multi-OT-2 ablation), calibrated
action-duration models, resource timelines for devices that can only do one
thing at a time, and a fault-injection model that makes the paper's
commands-completed-without-humans (CCWH) metric meaningful.
"""

from repro.sim.clock import Clock, SimClock, WallClock
from repro.sim.durations import DurationModel, DurationTable, paper_calibrated_durations
from repro.sim.events import Event, EventScheduler
from repro.sim.faults import FaultInjector, FaultPolicy, CommandFailure
from repro.sim.resources import ResourceTimeline

__all__ = [
    "Clock",
    "SimClock",
    "WallClock",
    "Event",
    "EventScheduler",
    "DurationModel",
    "DurationTable",
    "paper_calibrated_durations",
    "FaultInjector",
    "FaultPolicy",
    "CommandFailure",
    "ResourceTimeline",
]
