"""Experiment configuration and result types.

:class:`ExperimentConfig` captures every knob of a colour-picker experiment
(the paper's Figure 4 varies ``batch_size`` with everything else fixed);
:class:`ExperimentResult` is what :class:`repro.core.app.ColorPickerApp.run`
returns -- the per-sample history, the best-so-far trajectory plotted in
Figure 4, and the SDL metrics of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.color.distance import DISTANCE_METRICS
from repro.color.targets import get_target
from repro.core.metrics import SdlMetrics
from repro.utils.validation import check_positive, check_probability

__all__ = ["ExperimentConfig", "SampleResult", "ExperimentResult"]

#: Valid measurement modes: full synthetic-image pipeline, or the fast
#: direct-readout path (chemistry + sensor noise) used for large sweeps.
MEASUREMENT_MODES = ("vision", "direct")


@dataclass
class ExperimentConfig:
    """Configuration of one colour-picker experiment.

    Parameters mirror the paper's experimental setup; the defaults reproduce
    the Figure 4 / Table 1 conditions (target RGB (120, 120, 120), N = 128
    samples, GA solver) with a batch size of 1.
    """

    target: Any = "paper-grey"
    n_samples: int = 128
    batch_size: int = 1
    solver: str = "evolutionary"
    solver_options: Dict[str, Any] = field(default_factory=dict)
    distance_metric: str = "euclidean_rgb"
    max_component_volume_ul: float = 80.0
    measurement: str = "direct"
    direct_noise_sigma: float = 2.5
    success_threshold: Optional[float] = None
    reservoir_low_threshold: float = 0.15
    publish: bool = True
    recover_from_failures: bool = False
    max_interventions: int = 10
    seed: Optional[int] = None
    experiment_id: str = ""
    run_id: str = ""
    #: Position of this run within its experiment on the data portal.  When
    #: None (the default) the application derives it from the runs already
    #: published to the experiment, so standalone runs sharing an experiment
    #: id no longer collide at index 0.
    run_index: Optional[int] = None

    def __post_init__(self):
        self.target = get_target(self.target)
        check_positive("n_samples", self.n_samples)
        check_positive("batch_size", self.batch_size)
        check_positive("max_component_volume_ul", self.max_component_volume_ul)
        check_probability("reservoir_low_threshold", self.reservoir_low_threshold)
        if self.direct_noise_sigma < 0:
            raise ValueError(f"direct_noise_sigma must be >= 0, got {self.direct_noise_sigma}")
        if self.batch_size > self.n_samples:
            raise ValueError(
                f"batch_size ({self.batch_size}) cannot exceed n_samples ({self.n_samples})"
            )
        if self.distance_metric not in DISTANCE_METRICS:
            raise ValueError(
                f"unknown distance metric {self.distance_metric!r}; "
                f"expected one of {sorted(DISTANCE_METRICS)}"
            )
        if self.measurement not in MEASUREMENT_MODES:
            raise ValueError(
                f"unknown measurement mode {self.measurement!r}; expected one of {MEASUREMENT_MODES}"
            )
        if self.success_threshold is not None and self.success_threshold < 0:
            raise ValueError("success_threshold must be >= 0 when given")
        if self.max_interventions < 0:
            raise ValueError(f"max_interventions must be >= 0, got {self.max_interventions}")
        if self.run_index is not None and self.run_index < 0:
            raise ValueError(f"run_index must be >= 0 when given, got {self.run_index}")
        if not self.experiment_id:
            self.experiment_id = f"colorpicker-N{self.n_samples}"
        if not self.run_id:
            self.run_id = f"{self.experiment_id}-B{self.batch_size}-seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form stored in run records."""
        return {
            "target": self.target.name,
            "target_rgb": list(self.target.rgb),
            "n_samples": self.n_samples,
            "batch_size": self.batch_size,
            "solver": self.solver,
            "solver_options": dict(self.solver_options),
            "distance_metric": self.distance_metric,
            "max_component_volume_ul": self.max_component_volume_ul,
            "measurement": self.measurement,
            "direct_noise_sigma": self.direct_noise_sigma,
            "success_threshold": self.success_threshold,
            "recover_from_failures": self.recover_from_failures,
            "max_interventions": self.max_interventions,
            "seed": self.seed,
            "experiment_id": self.experiment_id,
            "run_id": self.run_id,
            "run_index": self.run_index,
        }


@dataclass
class SampleResult:
    """One mixed-and-measured sample within an experiment."""

    sample_index: int
    iteration: int
    well: str
    plate_barcode: str
    ratios: np.ndarray
    volumes_ul: Dict[str, float]
    measured_rgb: np.ndarray
    score: float
    elapsed_s: float

    def __post_init__(self):
        self.ratios = np.asarray(self.ratios, dtype=np.float64)
        self.measured_rgb = np.asarray(self.measured_rgb, dtype=np.float64)
        self.score = float(self.score)
        self.elapsed_s = float(self.elapsed_s)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "sample_index": self.sample_index,
            "iteration": self.iteration,
            "well": self.well,
            "plate_barcode": self.plate_barcode,
            "ratios": [float(v) for v in self.ratios],
            "volumes_ul": {k: float(v) for k, v in self.volumes_ul.items()},
            "measured_rgb": [float(v) for v in self.measured_rgb],
            "score": self.score,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class ExperimentResult:
    """Everything produced by one colour-picker experiment."""

    config: ExperimentConfig
    samples: List[SampleResult] = field(default_factory=list)
    metrics: Optional[SdlMetrics] = None
    workflow_counts: Dict[str, int] = field(default_factory=dict)
    terminated_early: bool = False
    publication_receipts: List[Dict[str, Any]] = field(default_factory=list)
    intervention_times: List[float] = field(default_factory=list)
    #: Total simulated experiment time (seconds): the run's end minus its
    #: start, interventions included (``metrics`` holds time without humans).
    elapsed_s: float = 0.0

    @property
    def interventions(self) -> int:
        """Number of human interventions the run required (0 for a clean run)."""
        return len(self.intervention_times)

    @property
    def n_samples(self) -> int:
        """Number of samples actually produced (≤ the configured budget)."""
        return len(self.samples)

    @property
    def best_score(self) -> float:
        """Best (lowest) score achieved (inf when no samples were produced)."""
        if not self.samples:
            return float("inf")
        return min(sample.score for sample in self.samples)

    @property
    def best_sample(self) -> Optional[SampleResult]:
        """The best-scoring sample (None when empty)."""
        if not self.samples:
            return None
        return min(self.samples, key=lambda sample: sample.score)

    def trajectory(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Figure 4 series: elapsed time (minutes) vs. best score so far.

        One point per sample, in measurement order.
        """
        if not self.samples:
            return np.empty(0), np.empty(0)
        ordered = sorted(self.samples, key=lambda sample: sample.sample_index)
        times = np.array([sample.elapsed_s / 60.0 for sample in ordered])
        scores = np.array([sample.score for sample in ordered])
        best_so_far = np.minimum.accumulate(scores)
        return times, best_so_far

    def scores(self) -> np.ndarray:
        """All raw sample scores in measurement order."""
        ordered = sorted(self.samples, key=lambda sample: sample.sample_index)
        return np.array([sample.score for sample in ordered])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the portal and the benchmarks)."""
        return {
            "config": self.config.to_dict(),
            "n_samples": self.n_samples,
            "best_score": self.best_score if self.samples else None,
            "terminated_early": self.terminated_early,
            "interventions": self.interventions,
            "workflow_counts": dict(self.workflow_counts),
            "metrics": self.metrics.to_dict() if self.metrics is not None else None,
            "samples": [sample.to_dict() for sample in self.samples],
        }
