"""A simulation-backed reimplementation of the WEI science-factory platform.

The paper's application is written against the modular SDL architecture of
Vescovi et al. (reference [13] in the paper): *modules* encapsulate devices
and expose named actions, *workcells* are declaratively-configured sets of
modules, and *workflows* are declarative sequences of actions on modules that
applications invoke.  This package reproduces the pieces of that platform the
colour-picker application needs:

* :mod:`repro.wei.module` -- the module abstraction (device + action registry),
* :mod:`repro.wei.workcell` -- workcell assembly, including a YAML loader and
  the default colour-picker workcell factory,
* :mod:`repro.wei.workflow` -- declarative workflow specifications,
* :mod:`repro.wei.engine` -- workflow run and step records and the per-step
  retry rule,
* :mod:`repro.wei.concurrent` -- the workflow engine: event-driven, it runs
  one workflow, one application program, or many of them interleaved over one
  shared workcell (the Section 4 multi-OT-2 ablation, executed) via the
  two-phase submit/complete action lifecycle,
* :mod:`repro.wei.coordinator` -- the multi-workcell coordinator that shards
  campaigns across several independent engines with least-finish-time
  (work-stealing) assignment and a merged record stream,
* :mod:`repro.wei.runlog` -- per-workflow-run timing files (the paper saves
  one per run for post-hoc analysis).
"""

from repro.wei.concurrent import (
    ConcurrencyError,
    ConcurrentRun,
    ConcurrentWorkflowEngine,
    ProgramHandle,
)
from repro.wei.coordinator import MultiWorkcellCoordinator, ShardAssignment
from repro.wei.engine import StepResult, WorkflowError, WorkflowRunResult
from repro.wei.module import ActionSubmission, Module, ModuleActionError
from repro.wei.runlog import RunLogger
from repro.wei.workcell import Workcell, WorkcellConfigError, build_color_picker_workcell
from repro.wei.workflow import WorkflowSpec, WorkflowStep

__all__ = [
    "Module",
    "ModuleActionError",
    "Workcell",
    "WorkcellConfigError",
    "build_color_picker_workcell",
    "WorkflowSpec",
    "WorkflowStep",
    "WorkflowError",
    "WorkflowRunResult",
    "StepResult",
    "ConcurrentWorkflowEngine",
    "ConcurrencyError",
    "ConcurrentRun",
    "ProgramHandle",
    "MultiWorkcellCoordinator",
    "ShardAssignment",
    "ActionSubmission",
    "RunLogger",
]
