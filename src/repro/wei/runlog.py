"""Per-workflow-run timing records.

"For each workflow that is run, a file is created that details the step names
run, their start time, end time and total duration.  These files are saved
locally to the machine running the workflow manager" (paper Section 2.3).
:class:`RunLogger` keeps those records in memory and optionally writes one
JSON file per run to a directory, mirroring the paper's behaviour.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.wei.engine import WorkflowRunResult

__all__ = ["RunLogger"]


class RunLogger:
    """Collects :class:`~repro.wei.engine.WorkflowRunResult` records.

    Parameters
    ----------
    directory:
        When given, each recorded run is also written to
        ``<directory>/<index>_<workflow_name>.json``.
    """

    def __init__(self, directory: Optional[Path] = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.runs: List["WorkflowRunResult"] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_run(self, run: "WorkflowRunResult") -> None:
        """Store one workflow run (and write its JSON file when configured)."""
        self.runs.append(run)
        if self.directory is not None:
            path = self.directory / f"{len(self.runs):05d}_{run.workflow_name}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(run.to_dict(), handle, indent=2, default=str)

    @property
    def n_runs(self) -> int:
        """Number of workflow runs recorded."""
        return len(self.runs)
