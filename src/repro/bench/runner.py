"""Bench orchestration: run areas, persist ``BENCH_<area>.json``, compare.

The persisted files are the repo's perf trajectory.  One schema-versioned
JSON per area lives at the repo root; a later run with ``--compare`` diffs
fresh measurements against them and flags any metric that moved the wrong
way by more than the regression threshold.  Comparisons are only made
between runs of the *same* pinned scenario (``config`` equality) on any
machine -- the machine fingerprint is recorded so a cross-machine delta can
be read with the right amount of salt, while the ``hot_paths`` speedups are
measured baseline-vs-optimised in-process and are machine-independent
claims.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.bench.areas import AREA_ORDER, AreaResult, run_area

__all__ = [
    "SCHEMA_VERSION",
    "bench_filename",
    "machine_fingerprint",
    "git_sha",
    "run_bench",
    "area_payload",
    "write_results",
    "load_bench_file",
    "MetricDelta",
    "ScienceCheck",
    "compare_results",
]

#: Bump when the persisted JSON layout changes incompatibly;
#: ``tools/check_bench.py`` and ``--compare`` refuse other versions.
SCHEMA_VERSION = 1

#: Regression threshold ``--compare`` applies when none is given: a metric
#: may move up to this fraction the wrong way before it counts as a
#: regression (benchmarks on shared machines are that noisy).
DEFAULT_THRESHOLD = 0.15


def bench_filename(area: str) -> str:
    """The repo-root filename holding ``area``'s trajectory point."""
    return f"BENCH_{area}.json"


def machine_fingerprint() -> Dict[str, Any]:
    """Where these numbers were measured (absolute numbers are only
    comparable on a matching fingerprint; in-process speedup ratios travel)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_sha(root: Optional[Path] = None) -> str:
    """The current commit's sha, or ``"unknown"`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root) if root is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def run_bench(
    areas: Optional[Sequence[str]] = None,
    *,
    repeats: int = 3,
    scale: float = 1.0,
    progress=None,
) -> List[AreaResult]:
    """Run the pinned scenarios for ``areas`` (default: all, canonical order)."""
    selected = list(areas) if areas else list(AREA_ORDER)
    unknown = [area for area in selected if area not in AREA_ORDER]
    if unknown:
        raise ValueError(f"unknown bench area(s) {unknown}; expected a subset of {AREA_ORDER}")
    results = []
    for area in selected:
        if progress is not None:
            progress(area)
        results.append(run_area(area, repeats=repeats, scale=scale))
    return results


def area_payload(result: AreaResult, *, repeats: int, root: Optional[Path] = None) -> Dict[str, Any]:
    """The schema-versioned JSON document for one area."""
    return {
        "schema_version": SCHEMA_VERSION,
        "area": result.area,
        "git_sha": git_sha(root),
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": machine_fingerprint(),
        "repeats": repeats,
        "config": result.config,
        "metrics": result.metrics,
        "hot_paths": result.hot_paths,
        "science": result.science,
    }


def write_results(
    results: Sequence[AreaResult], *, repeats: int, directory: Path
) -> List[Path]:
    """Persist one ``BENCH_<area>.json`` per result; returns written paths.

    Provenance (``git_sha``) is resolved from the current working directory,
    not ``directory`` -- ``--out`` may point anywhere, but the measurements
    belong to the checkout the bench ran from.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for result in results:
        payload = area_payload(result, repeats=repeats)
        path = directory / bench_filename(result.area)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


def load_bench_file(path: Path) -> Dict[str, Any]:
    """Load and minimally validate a persisted bench file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: bench file must hold a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    for key in ("area", "metrics", "hot_paths", "config"):
        if key not in data:
            raise ValueError(f"{path}: missing required key {key!r}")
    return data


@dataclass
class MetricDelta:
    """One metric's movement between a committed baseline and a fresh run."""

    area: str
    metric: str
    baseline: float
    current: float
    unit: str
    direction: str
    #: Fractional change, signed so positive is always an *improvement*.
    change: float = field(init=False)

    def __post_init__(self) -> None:
        if self.baseline == 0:
            self.change = 0.0
        else:
            raw = (self.current - self.baseline) / abs(self.baseline)
            self.change = raw if self.direction == "higher" else -raw

    def is_regression(self, threshold: float) -> bool:
        return self.change < -threshold


@dataclass(frozen=True)
class ScienceCheck:
    """One science digest of a fresh run against the committed file's."""

    area: str
    key: str
    baseline: Any
    current: Any

    @property
    def differs(self) -> bool:
        """True when the run's science moved: a changed result, not noise."""
        return self.baseline != self.current


def compare_results(
    results: Sequence[AreaResult],
    *,
    baseline_dir: Path,
) -> Dict[str, Any]:
    """Diff fresh results against the committed files in ``baseline_dir``.

    Returns ``{"deltas": [MetricDelta...], "science": [ScienceCheck...],
    "skipped": {area: reason}}``; ``science`` holds every digest both the
    run and the committed file carry.  An area is skipped (never judged)
    when no baseline file exists or the pinned scenario config differs -- a
    config change starts a fresh trajectory, it is not a regression.
    """
    deltas: List[MetricDelta] = []
    science: List[ScienceCheck] = []
    skipped: Dict[str, str] = {}
    for result in results:
        path = Path(baseline_dir) / bench_filename(result.area)
        if not path.exists():
            skipped[result.area] = "no committed baseline file"
            continue
        try:
            baseline = load_bench_file(path)
        except ValueError as exc:
            skipped[result.area] = f"unreadable baseline: {exc}"
            continue
        if baseline.get("config") != result.config:
            skipped[result.area] = "scenario config changed; trajectory restarts"
            continue
        for name, metric in result.metrics.items():
            base_metric = baseline["metrics"].get(name)
            if base_metric is None:
                continue
            deltas.append(
                MetricDelta(
                    area=result.area,
                    metric=name,
                    baseline=float(base_metric["value"]),
                    current=float(metric["value"]),
                    unit=metric.get("unit", ""),
                    direction=metric.get("direction", "higher"),
                )
            )
        committed = baseline.get("science", {})
        for key, value in result.science.items():
            if key in committed:
                # Compare in the committed file's JSON form (tuples as lists).
                current = json.loads(json.dumps(value))
                science.append(ScienceCheck(result.area, key, committed[key], current))
    return {"deltas": deltas, "science": science, "skipped": skipped}
