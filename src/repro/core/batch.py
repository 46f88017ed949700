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

from repro.core.app import ColorPickerApp
from repro.core.campaign import predict_experiment_duration, workcell_stock
from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.publish.portal import DataPortal
from repro.sim.durations import DurationTable
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import ASSIGNMENT_POLICIES, MultiWorkcellCoordinator
from repro.wei.workcell import build_color_picker_workcell

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
    solver_options: Optional[Dict[str, Any]] = None,
    measurement: str = "direct",
    seed: Optional[int] = 2023,
    portal: Optional[DataPortal] = None,
    publish: bool = False,
    config_overrides: Optional[Dict[str, Any]] = None,
    n_ot2: int = 1,
    assignment: str = "work-stealing",
    durations: Optional[DurationTable] = None,
) -> BatchSweepResult:
    """Run one colour-picker experiment per batch size and collect the results.

    Every experiment gets an independently seeded solver and a fresh plate;
    all of them run on one workcell, stocked for the whole sweep (see
    :func:`~repro.core.campaign.workcell_stock`), as the paper's seven
    experiments ran on one robot.  With the default ``n_ot2=1`` they run one
    after another.  With ``n_ot2 > 1`` they are executed *concurrently* on
    that many OT-2/barty lanes: by default a lane
    claims the next pending experiment the moment it frees
    (``assignment="work-stealing"``, which suits the sweep's heavily skewed
    per-experiment durations), ``assignment="stealing-lpt"`` additionally
    orders the shared queue longest-predicted-duration-first (LPT list
    scheduling from :func:`~repro.core.campaign.predict_experiment_duration`
    means, predicted against the duration table the engine actually runs),
    while ``assignment="static"`` pins experiment ``i`` to lane
    ``i % n_ot2`` for comparison, and ``assignment="lookahead"`` re-ranks the
    queue online each time a lane frees.  The lanes are scheduled by a
    one-workcell :class:`~repro.wei.coordinator.MultiWorkcellCoordinator`.
    ``durations`` overrides the workcell's duration table.  With
    ``measurement="direct"`` (the default) solver behaviour and scores are
    the same for every lane count and only the simulated wall time shrinks;
    in ``"vision"`` mode the shared camera's frame keys are drawn in claim
    order, so scores differ slightly between lane counts.
    """
    if not batch_sizes:
        raise ValueError("batch_sizes must not be empty")
    if n_ot2 < 1:
        raise ValueError(f"n_ot2 must be >= 1, got {n_ot2}")
    if assignment not in ASSIGNMENT_POLICIES:
        raise ValueError(
            f"unknown assignment policy {assignment!r}; expected one of {ASSIGNMENT_POLICIES}"
        )
    sweep = BatchSweepResult(n_ot2=n_ot2)
    overrides = dict(config_overrides or {})

    configs = {}
    for batch_size in batch_sizes:
        if batch_size < 1:
            raise ValueError(f"batch sizes must be >= 1, got {batch_size}")
        experiment_seed = None if seed is None else seed + batch_size
        configs[batch_size] = ExperimentConfig(
            target=target,
            n_samples=n_samples,
            batch_size=batch_size,
            solver=solver,
            solver_options=dict(solver_options or {}),
            measurement=measurement,
            seed=experiment_seed,
            publish=publish,
            experiment_id=f"figure4-N{n_samples}",
            run_id=f"figure4-B{batch_size}",
            **overrides,
        )

    workcell = build_color_picker_workcell(
        seed=seed, n_ot2=n_ot2, durations=durations, **workcell_stock(list(configs.values()))
    )
    engine = ConcurrentWorkflowEngine(workcell)

    def make_program(config: ExperimentConfig, _shard: int, lane: tuple):
        ot2, barty = lane
        app = ColorPickerApp(
            config, workcell=workcell, portal=portal, ot2=ot2, barty=barty, staging="ot2"
        )
        return app.program()

    # The duration hint predicts against the table the shared workcell
    # actually runs, so "stealing-lpt" orders the queue by what will execute.
    results = MultiWorkcellCoordinator([engine]).run_jobs(
        list(configs.values()),
        make_program,
        lanes=[workcell.ot2_barty_pairs()[:n_ot2]],
        assignment=assignment,
        duration_hint=predict_experiment_duration,
    )
    sweep.experiments = dict(zip(configs, results))
    sweep.makespan_s = engine.makespan
    return sweep
