"""Record schemas for published experiment data.

The schema mirrors what the paper's portal shows (Figure 3): experiments
contain runs, runs contain samples; each sample stores the proposed dye
volumes, the measured colour and its score against the target; each run keeps
its timing breakdown and a pointer to the raw plate image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["SampleRecord", "RunRecord", "ExperimentRecord"]


def _listify(values) -> List[float]:
    """Convert arrays/sequences of numbers into plain lists of floats.

    ``tolist()`` yields Python scalars in one call, cheaper than ``float``
    on one numpy scalar per element.  No ``dtype=float`` on purpose: that
    would turn a ``None`` into ``nan``; here it reaches ``float`` and raises.
    """
    return [float(v) for v in np.asarray(values).ravel().tolist()]


@dataclass(slots=True)
class SampleRecord:
    """One mixed-and-measured colour sample."""

    sample_index: int
    well: str
    plate_barcode: str
    volumes_ul: Dict[str, float]
    measured_rgb: List[float]
    score: float
    proposed_by: str = "solver"
    timestamp: float = 0.0

    def __post_init__(self):
        self.measured_rgb = _listify(self.measured_rgb)
        self.volumes_ul = {name: float(volume) for name, volume in self.volumes_ul.items()}
        self.score = float(self.score)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form: the fields in declaration order.

        Written out rather than ``dataclasses.asdict``, whose per-value
        deep copy dominated portal ingest: only the two containers are
        copied, every other field is an immutable scalar.
        """
        return {
            "sample_index": self.sample_index,
            "well": self.well,
            "plate_barcode": self.plate_barcode,
            "volumes_ul": dict(self.volumes_ul),
            "measured_rgb": list(self.measured_rgb),
            "score": self.score,
            "proposed_by": self.proposed_by,
            "timestamp": self.timestamp,
        }


@dataclass(slots=True)
class RunRecord:
    """One run: a batch of samples plus its timing and provenance.

    Records and their samples are slotted: every portal read hands out
    records of its own, and a caller holding thousands of them (a read mix,
    a checker's answers) pays ~10% less memory per record than with an
    instance ``__dict__``.
    """

    experiment_id: str
    run_id: str
    run_index: int
    target_rgb: List[float]
    samples: List[SampleRecord] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    solver: str = ""
    image_reference: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.target_rgb = _listify(self.target_rgb)

    @property
    def n_samples(self) -> int:
        """Number of samples in the run."""
        return len(self.samples)

    @property
    def best_score(self) -> float:
        """Best (lowest) score among this run's samples (inf when empty)."""
        if not self.samples:
            return float("inf")
        return min(sample.score for sample in self.samples)

    @property
    def best_sample(self) -> Optional[SampleRecord]:
        """The sample with the best score (None when the run has no samples)."""
        if not self.samples:
            return None
        return min(self.samples, key=lambda sample: sample.score)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the one definition of the record's shape)."""
        return {
            "experiment_id": self.experiment_id,
            "run_id": self.run_id,
            "run_index": self.run_index,
            "target_rgb": list(self.target_rgb),
            "solver": self.solver,
            "image_reference": self.image_reference,
            "timings": dict(self.timings),
            "metadata": dict(self.metadata),
            "n_samples": self.n_samples,
            "best_score": self.best_score if self.samples else None,
            "samples": [sample.to_dict() for sample in self.samples],
        }

    @classmethod
    def from_checked_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from ``data`` equal to the :meth:`to_dict` of a
        record (decoded JSON that was checked to be so), without re-running
        ``__post_init__``.

        Such values already have the form ``__post_init__`` gives them, so
        the record and its samples take the decoded values (and containers)
        as they are.  Any other dict must go through :meth:`from_dict`.
        """
        record = _adopt(cls, _RUN_FIELDS, data)
        record.samples = [_adopt(SampleRecord, _SAMPLE_FIELDS, sample) for sample in record.samples]
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from its dict form (inverse of :meth:`to_dict`)."""
        samples = [SampleRecord(**sample) for sample in data.get("samples", [])]
        return cls(
            experiment_id=data["experiment_id"],
            run_id=data["run_id"],
            run_index=int(data.get("run_index", 0)),
            target_rgb=data.get("target_rgb", [0, 0, 0]),
            samples=samples,
            timings=dict(data.get("timings", {})),
            solver=data.get("solver", ""),
            image_reference=data.get("image_reference"),
            metadata=dict(data.get("metadata", {})),
        )


_SAMPLE_FIELDS = tuple(f.name for f in fields(SampleRecord))
_RUN_FIELDS = tuple(f.name for f in fields(RunRecord))


def _adopt(cls, names, data: Dict[str, Any]):
    """An instance of ``cls`` with ``data[name]`` as each field, without
    ``__init__``, each field set from ``data`` into the class's slots."""
    instance = cls.__new__(cls)
    for name in names:
        setattr(instance, name, data[name])
    return instance


@dataclass
class ExperimentRecord:
    """Summary of one experiment: an ordered collection of runs.

    This is what the portal's summary view shows -- e.g. the Figure 3
    experiment of August 16th 2023 "involving 12 runs each with 15 samples,
    for a total of 180 experiments".
    """

    experiment_id: str
    title: str = ""
    runs: List[RunRecord] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_runs(self) -> int:
        """Number of runs in the experiment."""
        return len(self.runs)

    @property
    def n_samples(self) -> int:
        """Total samples across all runs."""
        return sum(run.n_samples for run in self.runs)

    @property
    def best_score(self) -> float:
        """Best score achieved by any run (inf when empty)."""
        if not self.runs:
            return float("inf")
        return min(run.best_score for run in self.runs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "metadata": dict(self.metadata),
            "n_runs": self.n_runs,
            "n_samples": self.n_samples,
            "best_score": self.best_score if self.runs else None,
            "runs": [run.to_dict() for run in self.runs],
        }
