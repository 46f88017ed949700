#!/usr/bin/env python3
"""Validate the committed ``BENCH_<area>.json`` perf-trajectory files.

Checks, for every bench file at the repo root:

* **schema** -- ``schema_version`` is the current one, the ``area`` matches
  the filename, all required keys are present, metric values are finite and
  non-negative (or, for a metric marked ``"signed": true`` such as a
  measured overhead that noise can put below zero, any finite number) with
  a sane ``direction``, and each ``hot_paths`` entry's
  recorded ``speedup`` is consistent with its timings;
* **claims** -- the four core areas (events, codec, campaign, vision) are
  present and each records at least one hot path at >= the minimum speedup
  the optimisation pass claims (so nobody quietly commits a regressed
  baseline file);
* **freshness** -- ``created_utc`` parses and is not in the future, and the
  recorded ``git_sha`` is a commit that actually exists in this repository
  (provenance, not age: an age cutoff would make the suite rot on its own).

Used by the CI ``bench`` job and mirrored in ``tests/test_bench.py`` so a
malformed committed file fails the tier-1 suite too.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 1

#: Areas whose committed file must exist and must record at least one hot
#: path at the claimed minimum speedup.
CORE_AREAS = ("events", "codec", "campaign", "vision")

#: All areas a bench file may describe.
KNOWN_AREAS = ("events", "codec", "campaign", "portal", "vision", "obs")

#: The optimisation pass's acceptance floor: every core area's committed
#: file must show its hot path at least this much faster than the frozen
#: pre-optimisation baseline measured in the same run.
MIN_CORE_SPEEDUP = 1.3

#: The observability acceptance gate: the committed ``obs`` file must show
#: disabled tracing costing less than this percentage of the benched
#: campaign scenario's wall time.
MAX_OBS_OFF_OVERHEAD_PCT = 2.0

REQUIRED_KEYS = (
    "schema_version",
    "area",
    "git_sha",
    "created_utc",
    "machine",
    "repeats",
    "config",
    "metrics",
    "hot_paths",
    "science",
)


def _sha_exists(sha: str, root: Path) -> bool:
    """True when ``sha`` names a commit in this checkout (best effort: a
    missing git binary or gitdir skips the provenance check rather than
    failing it)."""
    try:
        completed = subprocess.run(
            ["git", "cat-file", "-e", f"{sha}^{{commit}}"],
            cwd=str(root),
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return True
    if completed.returncode != 0 and b"not a git repository" in completed.stderr.lower():
        return True
    return completed.returncode == 0


def check_bench_file(path: Path, *, root: Path = REPO_ROOT) -> List[str]:
    """All problems with one bench file (empty list = valid)."""
    problems: List[str] = []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not isinstance(data, dict):
        return [f"{path.name}: top level must be a JSON object"]

    for key in REQUIRED_KEYS:
        if key not in data:
            problems.append(f"{path.name}: missing required key {key!r}")
    if problems:
        return problems

    if data["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"{path.name}: schema_version {data['schema_version']!r} != {SCHEMA_VERSION}"
        )
    area = data["area"]
    if area not in KNOWN_AREAS:
        problems.append(f"{path.name}: unknown area {area!r}")
    if path.name != f"BENCH_{area}.json":
        problems.append(f"{path.name}: filename does not match area {area!r}")

    metrics = data["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        problems.append(f"{path.name}: metrics must be a non-empty object")
    else:
        for name, metric in metrics.items():
            value = metric.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{path.name}: metric {name!r} value {value!r} is not a finite number")
            elif value < 0 and metric.get("signed") is not True:
                problems.append(f"{path.name}: metric {name!r} value {value!r} is not a finite non-negative number")
            if metric.get("direction", "higher") not in ("higher", "lower"):
                problems.append(f"{path.name}: metric {name!r} direction {metric.get('direction')!r} invalid")
            if not metric.get("unit"):
                problems.append(f"{path.name}: metric {name!r} has no unit")

    hot_paths = data["hot_paths"]
    if not isinstance(hot_paths, list):
        problems.append(f"{path.name}: hot_paths must be a list")
        hot_paths = []
    for entry in hot_paths:
        name = entry.get("name", "<unnamed>")
        baseline_s = entry.get("baseline_s")
        optimised_s = entry.get("optimised_s")
        speedup = entry.get("speedup")
        for field, value in (("baseline_s", baseline_s), ("optimised_s", optimised_s), ("speedup", speedup)):
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                problems.append(f"{path.name}: hot path {name!r} {field} {value!r} invalid")
                break
        else:
            implied = baseline_s / optimised_s
            if abs(implied - speedup) > 0.01 * max(implied, speedup):
                problems.append(
                    f"{path.name}: hot path {name!r} speedup {speedup:.3f} inconsistent "
                    f"with timings ({implied:.3f})"
                )
    if area == "obs" and isinstance(metrics, dict):
        off = metrics.get("tracing_off_overhead_pct", {})
        value = off.get("value") if isinstance(off, dict) else None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{path.name}: obs area records no tracing_off_overhead_pct")
        elif value >= MAX_OBS_OFF_OVERHEAD_PCT:
            problems.append(
                f"{path.name}: tracing-off overhead {value:.3f}% >= "
                f"{MAX_OBS_OFF_OVERHEAD_PCT}% acceptance gate"
            )

    if area in CORE_AREAS and not any(
        isinstance(entry.get("speedup"), (int, float)) and entry["speedup"] >= MIN_CORE_SPEEDUP
        for entry in hot_paths
    ):
        problems.append(
            f"{path.name}: core area {area!r} records no hot path at >= {MIN_CORE_SPEEDUP}x"
        )

    created = data["created_utc"]
    try:
        stamp = datetime.strptime(created, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    except (TypeError, ValueError):
        problems.append(f"{path.name}: created_utc {created!r} is not ISO-8601 Z")
    else:
        if stamp > datetime.now(timezone.utc) + timedelta(days=1):
            problems.append(f"{path.name}: created_utc {created!r} is in the future")

    sha = data["git_sha"]
    if not isinstance(sha, str) or not sha or sha == "unknown":
        problems.append(f"{path.name}: git_sha {sha!r} records no provenance")
    elif not _sha_exists(sha, root):
        problems.append(f"{path.name}: git_sha {sha} is not a commit in this repository")

    return problems


def check_all(root: Path = REPO_ROOT) -> List[str]:
    """Problems across every committed bench file plus missing core areas."""
    problems: List[str] = []
    found = {}
    for path in sorted(root.glob("BENCH_*.json")):
        found[path.name] = path
        problems.extend(check_bench_file(path, root=root))
    for area in CORE_AREAS:
        if f"BENCH_{area}.json" not in found:
            problems.append(f"BENCH_{area}.json: missing (core area {area!r} has no committed trajectory)")
    return problems


def main() -> int:
    problems = check_all()
    if problems:
        print(f"{len(problems)} bench-file problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    count = len(list(REPO_ROOT.glob("BENCH_*.json")))
    print(f"{count} bench file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
