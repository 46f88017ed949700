"""The science fingerprint of a campaign, and a readable diff of two.

The repo's invariant is that a campaign's science does not depend on how it
was executed: fleet size, OT-2 lanes, assignment policy, transport, chaos
seed, module speeds, tracing and portal backend may change wall time,
simulated time and retry counts, never scores, run counts or portal
contents.  :func:`campaign_fingerprint` covers exactly that science, read
back from the portal: the set of run indexes and each run's id, target and
solver, and every sample's index, well, volumes, measured RGB and score.
Timings, retry counters and workcell/lane placement metadata are left out.
:func:`_diff_fingerprints` names what differs between two fingerprints.

``tests/properties/test_execution_oracle.py`` asserts the invariant over
seeded draws of execution configurations; ``repro bench`` and
``perfbench`` fingerprint their campaigns with the same function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List

import numpy as np

if TYPE_CHECKING:
    from repro.core.campaign import CampaignResult

__all__ = ["campaign_fingerprint"]


def _round9(values: List[float]) -> List[float]:
    """``[round(v, 9) for v in values]``, vectorised but bit-identical.

    ``np.round`` scales by ``1e9``, rints and divides back, which
    double-rounds: for a value whose scaled form lands within a few ulps of
    a ``k + 0.5`` boundary it can pick the other side than Python's
    correctly-rounded ``round``.  Those boundary cases are detectable from
    the scaled value alone, so this routine rounds everything with numpy and
    re-rounds only the risky elements (empirically ~1 in 10^4) with the
    builtin.  Non-finite values always take the builtin path, preserving its
    exact semantics (``round(inf, 9)`` is ``inf``, NaN stays NaN).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return []
    scaled = arr * 1e9
    with np.errstate(invalid="ignore"):  # inf/NaN land in the unsafe set
        frac = np.abs(scaled - np.floor(scaled) - 0.5)
        # A wrong rint can only happen within ~1 ulp of the half-way point; 8
        # ulps (plus a floor for tiny values) is a comfortably conservative band.
        tol = np.spacing(np.abs(scaled)) * 8.0 + 1e-9
        safe = (frac > tol) & np.isfinite(scaled)
    out = np.round(arr, 9)
    if not safe.all():
        for index in np.flatnonzero(~safe):
            out[index] = round(float(arr[index]), 9)
    return out.tolist()


def campaign_fingerprint(campaign: CampaignResult) -> Dict[str, Any]:
    """The science-only fingerprint of a campaign, keyed by run index.

    Everything in here must be bit-identical between the sim baseline and
    any chaos-injected wire campaign with the same campaign seed; anything
    chaos may legitimately change (wall time, retries, placement metadata)
    is excluded.  Portal records are the source, so the fingerprint also
    proves the streamed portal contents -- not just the in-memory results --
    survived the chaos.

    Rounding used to be the hot spot (eight ``round`` calls per sample, and
    a 10k-run campaign has ~10^5 samples), so the builder makes two passes:
    one flattening every value to round into a single buffer for
    :func:`_round9`, one rebuilding the per-run dicts by slicing the rounded
    stream back out.  The output is bit-identical to the obvious
    one-pass/``round`` formulation.
    """
    records = campaign.portal.search(experiment_id=campaign.experiment_id)
    # Pass 1: flatten volumes, rgb and score of every sample into one buffer.
    flat: List[float] = []
    extend = flat.extend
    for record in records:
        for sample in record.samples:
            extend(sample.volumes_ul.values())
            extend(sample.measured_rgb)
            flat.append(sample.score)
    best_at = len(flat)
    extend(run.best_score for run in campaign.runs)
    rounded = _round9(flat)
    # Pass 2: rebuild the nested structure by slicing the rounded stream.
    runs: Dict[str, Any] = {}
    pos = 0
    for record in records:
        samples = []
        for sample in record.samples:
            names = sample.volumes_ul
            n_vol = len(names)
            n_rgb = len(sample.measured_rgb)
            end = pos + n_vol + n_rgb
            samples.append(
                [
                    sample.sample_index,
                    sample.well,
                    dict(zip(names, rounded[pos : pos + n_vol])),
                    rounded[pos + n_vol : end],
                    rounded[end],
                ]
            )
            pos = end + 1
        runs[str(record.run_index)] = {
            "run_id": record.run_id,
            "target_rgb": list(record.target_rgb),
            "solver": record.solver,
            "samples": samples,
        }
    return {
        "experiment_runs": campaign.n_runs,
        "total_samples": campaign.total_samples,
        "portal_run_count": len(records),
        "best_scores": rounded[best_at:],
        "runs": runs,
    }


def _diff_fingerprints(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> List[str]:
    """Human-readable mismatches between two fingerprints (empty = identical)."""
    mismatches: List[str] = []
    if baseline == candidate:
        # The soak invariant holding is the overwhelmingly common case, and
        # dict equality is one C-level deep compare -- skip the per-run walk.
        return mismatches
    for key in ("experiment_runs", "total_samples", "portal_run_count", "best_scores"):
        if baseline[key] != candidate[key]:
            mismatches.append(f"{key}: baseline {baseline[key]!r} != chaos {candidate[key]!r}")
    baseline_runs, candidate_runs = baseline["runs"], candidate["runs"]
    if baseline_runs == candidate_runs:
        return mismatches
    # One sorted merge pass over the union of run keys classifies every run
    # as missing / extra / differing (the old three-set version built and
    # sorted three intermediate sets).
    missing: List[str] = []
    extra: List[str] = []
    differing: List[str] = []
    sentinel = object()
    for run_index in sorted(set(baseline_runs) | set(candidate_runs), key=int):
        base_run = baseline_runs.get(run_index, sentinel)
        cand_run = candidate_runs.get(run_index, sentinel)
        if cand_run is sentinel:
            missing.append(run_index)
        elif base_run is sentinel:
            extra.append(run_index)
        elif base_run != cand_run:
            differing.append(run_index)
    if missing:
        mismatches.append(f"portal lost runs: {missing}")
    if extra:
        mismatches.append(f"portal grew runs: {extra}")
    for run_index in differing:
        mismatches.append(f"run {run_index}: record contents differ")
    return mismatches
