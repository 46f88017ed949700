"""Workflow run records and the per-step retry rule.

"Workflow steps are translated into commands sent to computers connected to
devices, which then call driver functions specific to their attached device"
(paper Section 2.2).  The engine that does this is
:class:`~repro.wei.concurrent.ConcurrentWorkflowEngine`: it resolves each
step's module and action, substitutes payload references into the arguments,
submits the action to the module's device, and records a :class:`StepResult` with
start/end times and durations -- the same information the paper saves to a
per-run file.  This module holds those records and
:func:`attempt_submission`.

Transient command failures (from the fault injector) are retried up to a
configurable limit; unrecoverable failures abort the workflow, which is what
requires human intervention on the real workcell and therefore ends the
time-without-humans (TWH) clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.hardware.base import ActionHandle
from repro.sim.faults import CommandFailure
from repro.wei.module import Module
from repro.wei.workflow import WorkflowStep

__all__ = [
    "WorkflowError",
    "StepResult",
    "WorkflowRunResult",
    "WorkflowEngine",
    "attempt_submission",
]


class WorkflowError(RuntimeError):
    """Raised when a workflow cannot be completed (after retries).

    ``run_result`` carries the partial :class:`WorkflowRunResult` (including
    the successful steps executed before the failure) when the error came out
    of an engine, so callers can still account the work that *did* happen.
    """

    def __init__(self, message: str, step: Optional[WorkflowStep] = None):
        super().__init__(message)
        self.step = step
        self.run_result: Optional["WorkflowRunResult"] = None


@dataclass
class StepResult:
    """Timing and outcome of one executed workflow step."""

    step_name: str
    module: str
    action: str
    start_time: float
    end_time: float
    success: bool
    retries: int = 0
    return_value: Any = None
    error: Optional[str] = None
    robotic_commands: int = 0

    @property
    def duration(self) -> float:
        """Elapsed seconds spent on this step (including retries)."""
        return self.end_time - self.start_time

    @property
    def commands(self) -> int:
        """Successful device commands issued by this step: one, or none when it failed."""
        return int(self.success)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (return values are reduced to their repr type)."""
        return {
            "step_name": self.step_name,
            "module": self.module,
            "action": self.action,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "success": self.success,
            "retries": self.retries,
            "commands": self.commands,
            "robotic_commands": self.robotic_commands,
            "error": self.error,
        }


@dataclass
class WorkflowRunResult:
    """The outcome of one workflow run (one entry in the paper's run files)."""

    workflow_name: str
    start_time: float
    end_time: float
    steps: List[StepResult] = field(default_factory=list)
    success: bool = True
    payload_keys: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Total elapsed time of the workflow run (seconds)."""
        return self.end_time - self.start_time

    @property
    def commands(self) -> int:
        """Successful device commands issued across all steps."""
        return sum(step.commands for step in self.steps)

    def step_values(self) -> Dict[str, Any]:
        """Mapping of ``"<module>.<action>"`` keys to step return values.

        Keying is deterministic for repeated actions: every occurrence of a
        ``<module>.<action>`` pair gets an explicit ``#<k>`` suffix counting
        from ``#1`` in execution order, and the bare ``<module>.<action>`` key
        always refers to the **last** occurrence.  Consumers that read the
        bare key therefore see the freshest value (previously it silently
        returned the first, stale one), while ``#1``..``#n`` expose the full
        history.
        """
        values: Dict[str, Any] = {}
        counts: Dict[str, int] = {}
        for step in self.steps:
            key = f"{step.module}.{step.action}"
            counts[key] = counts.get(key, 0) + 1
            values[f"{key}#{counts[key]}"] = step.return_value
            values[key] = step.return_value
        return values

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form stored by the run logger."""
        return {
            "workflow_name": self.workflow_name,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "duration": self.duration,
            "success": self.success,
            "payload_keys": list(self.payload_keys),
            "steps": [step.to_dict() for step in self.steps],
        }


def attempt_submission(
    module: Module,
    action: str,
    args: Mapping[str, Any],
    max_retries: int,
) -> tuple:
    """Submit ``module.action``, retrying recoverable command failures.

    Command faults fire at submission (the paper observes that "most failures
    occur during reception and processing of commands"), so the whole retry
    loop happens in phase one; the returned handle's mutations are still
    pending.  Returns ``(handle, retries, last_error)`` where ``handle`` is
    ``None`` when the command failed for good (unrecoverable, or retries
    exhausted).
    """
    retries = 0
    last_error: Optional[str] = None
    handle: Optional[ActionHandle] = None
    while retries <= max_retries:
        try:
            handle = module.submit(action, **args)
            break
        except CommandFailure as failure:
            last_error = str(failure)
            if not failure.recoverable or retries == max_retries:
                break
            retries += 1
    return handle, retries, last_error


def __getattr__(name: str) -> Any:
    # ``WorkflowEngine`` is the one engine under its historical name: the
    # perfbench span harness wraps ``repro.wei.engine:WorkflowEngine.run_workflow``.
    # It resolves lazily because repro.wei.concurrent imports this module.
    if name == "WorkflowEngine":
        from repro.wei.concurrent import ConcurrentWorkflowEngine

        return ConcurrentWorkflowEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
