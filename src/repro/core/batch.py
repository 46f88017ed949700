"""Batch-size sweeps (the paper's Figure 4 experiment).

"We varied the batch size B across different experiments by powers of two from
1 to 64" with the total number of samples fixed at N = 128 and the target
colour fixed at RGB (120, 120, 120).  :func:`run_batch_sweep` runs one
experiment per batch size -- each with its own solver, seeded
deterministically from the sweep seed -- on one workcell driven by a
one-shard :class:`~repro.wei.coordinator.MultiWorkcellCoordinator`, and
collects their trajectories.  With one OT-2 lane (the default) the
experiments run one after another on the same devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.campaign import (
    color_picker_programs,
    predict_experiment_duration,
    workcell_stock,
)
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.sim.durations import DurationTable
from repro.wei.coordinator import MultiWorkcellCoordinator

__all__ = ["PAPER_BATCH_SIZES", "BatchSweepResult", "run_batch_sweep"]

#: The batch sizes of the paper's Figure 4.
PAPER_BATCH_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class BatchSweepResult:
    """Results of a batch-size sweep, keyed by batch size."""

    experiments: Dict[int, ExperimentResult] = field(default_factory=dict)
    #: Number of OT-2 lanes the sweep executed on (1 = sequential).
    n_ot2: int = 1
    #: The coordinator's makespan: the workcell's clock when the last
    #: experiment finished.
    makespan_s: float = 0.0

    @property
    def batch_sizes(self) -> List[int]:
        """The swept batch sizes, in ascending order."""
        return sorted(self.experiments)

    def trajectory(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The Figure 4 series (minutes, best-so-far) for one batch size."""
        return self.experiments[batch_size].trajectory()

    def final_scores(self) -> Dict[int, float]:
        """Best score reached by each batch size."""
        return {size: result.best_score for size, result in self.experiments.items()}

    def total_times_minutes(self) -> Dict[int, float]:
        """Total experiment duration (minutes) for each batch size."""
        return {size: result.elapsed_s / 60.0 for size, result in self.experiments.items()}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (not including per-sample detail)."""
        return {
            str(size): {
                "best_score": result.best_score,
                "elapsed_minutes": result.elapsed_s / 60.0,
                "n_samples": result.n_samples,
                "metrics": result.metrics.to_dict() if result.metrics else None,
            }
            for size, result in self.experiments.items()
        }


def run_batch_sweep(
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES,
    *,
    n_samples: int = 128,
    target: Any = "paper-grey",
    solver: str = "evolutionary",
    measurement: str = "direct",
    seed: Optional[int] = 2023,
    n_ot2: int = 1,
    assignment: str = "work-stealing",
    durations: Optional[DurationTable] = None,
) -> BatchSweepResult:
    """Run one colour-picker experiment per batch size and collect the results.

    Every experiment gets an independently seeded solver (``seed +
    batch_size``) and a fresh plate; all of them run on one workcell,
    ``workcell-0`` of a one-shard
    :class:`~repro.wei.coordinator.MultiWorkcellCoordinator` fleet, stocked
    for the whole sweep (see :func:`~repro.core.campaign.workcell_stock`), as
    the paper's seven experiments ran on one robot.  Nothing is published.
    With the default ``n_ot2=1`` they run one after another.  With ``n_ot2 >
    1`` they are executed *concurrently* on that many OT-2/barty lanes: by
    default a lane claims the next pending experiment the moment it frees
    (``assignment="work-stealing"``, which suits the sweep's heavily skewed
    per-experiment durations), ``assignment="stealing-lpt"`` additionally
    orders the shared queue longest-predicted-duration-first (LPT list
    scheduling from :func:`~repro.core.campaign.predict_experiment_duration`
    means, predicted against the duration table the engine actually runs),
    while ``assignment="static"`` pins experiment ``i`` to lane
    ``i % n_ot2`` for comparison, and ``assignment="lookahead"`` re-ranks the
    queue online each time a lane frees.  ``durations`` overrides the
    workcell's duration table.  With ``measurement="direct"`` (the default)
    solver behaviour and scores are the same for every lane count and only
    the simulated wall time shrinks; in ``"vision"`` mode the shared
    camera's frame keys are drawn in claim order, so scores differ slightly
    between lane counts.
    """
    if not batch_sizes:
        raise ValueError("batch_sizes must not be empty")
    configs = {}
    for batch_size in batch_sizes:
        if batch_size < 1:
            raise ValueError(f"batch sizes must be >= 1, got {batch_size}")
        configs[batch_size] = ExperimentConfig(
            target=target,
            n_samples=n_samples,
            batch_size=batch_size,
            solver=solver,
            measurement=measurement,
            seed=None if seed is None else seed + batch_size,
            publish=False,
            experiment_id=f"figure4-N{n_samples}",
            run_id=f"figure4-B{batch_size}",
        )
    jobs = list(configs.values())
    coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
        1, seed=seed, n_ot2=n_ot2, durations=durations, **workcell_stock(jobs)
    )
    # The duration hint predicts against the table the shared workcell
    # actually runs, so "stealing-lpt" orders the queue by what will execute.
    results = coordinator.run_jobs(
        jobs,
        color_picker_programs(coordinator),
        lanes=[coordinator.workcells[0].ot2_barty_pairs()[:n_ot2]],
        assignment=assignment,
        duration_hint=predict_experiment_duration,
    )
    return BatchSweepResult(
        experiments=dict(zip(configs, results)), n_ot2=n_ot2, makespan_s=coordinator.makespan
    )
