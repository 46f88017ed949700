#!/usr/bin/env python3
"""Elastic fleet demo: attach a workcell mid-campaign, drain one before the end.

A long-running autonomous lab cannot stop the campaign every time a robot
joins or leaves the fleet.  This example runs a 10-run campaign on a
two-workcell fleet and, while it is in flight,

* **attaches** a third workcell after the 3rd run completes -- its lanes
  immediately start stealing pending runs from the shared queue;
* **drains** workcell-0 after the 6th run -- it finishes its in-flight run
  (two-phase action completions included), claims nothing new, and reports
  its retirement in the merged fleet log.

Run records *stream* into the data portal as each shard completes a run
(original run_index, workcell/lane tags preserved), so the portal is fully
populated the moment the campaign returns -- and, with direct measurement,
the per-run scores are identical to a sequential campaign with the same seed
no matter how the fleet was reshaped.

Run with:  python examples/elastic_fleet.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import run_campaign  # noqa: E402
from repro.publish.portal import DataPortal  # noqa: E402
from repro.wei.coordinator import MultiWorkcellCoordinator  # noqa: E402

N_RUNS = 10
SAMPLES_PER_RUN = 6
SEED = 816
ATTACH_AFTER = 3   # attach workcell-2 after this many completed runs
DRAIN_AFTER = 6    # drain workcell-0 after this many completed runs


def main() -> None:
    coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(2, seed=SEED)
    portal = DataPortal()
    completed = []

    def show_status(note: str = "") -> None:
        status = coordinator.status()
        shards = "  ".join(
            f"{s.workcell}:{s.state}({s.completed} done)" for s in status.shards
        )
        line = f"[t={status.time:7.0f}s] queue {status.queue_depth:2d} | {shards}"
        print(line + (f"  <- {note}" if note else ""))

    def reshape_fleet(completion) -> None:
        completed.append(completion.job_index)
        note = f"run {completion.job_index} done on {completion.assignment.workcell}"
        if len(completed) == ATTACH_AFTER:
            # Built exactly as the fleet builder would have built shard 2.
            engine = MultiWorkcellCoordinator.build_color_picker_shard(2, seed=SEED)
            coordinator.attach_workcell(engine, lanes=engine.workcell.ot2_barty_pairs()[:1])
            note += f"; ATTACHED {engine.workcell.name}"
        if len(completed) == DRAIN_AFTER:
            coordinator.drain_workcell(0)
            note += "; DRAINING workcell-0"
        show_status(note)

    print(f"Elastic campaign: {N_RUNS} runs x {SAMPLES_PER_RUN} samples on a 2-workcell fleet\n")
    campaign = run_campaign(
        n_runs=N_RUNS,
        samples_per_run=SAMPLES_PER_RUN,
        seed=SEED,
        portal=portal,
        experiment_id="elastic-fleet",
        coordinator=coordinator,
        on_run_complete=reshape_fleet,
    )

    print("\nFleet lifecycle (from the merged log):")
    for event in coordinator.fleet_events:
        print(f"  t={event['start_time']:7.0f}s  {event['event']:18s}  {event['workcell']}")

    print(f"\nPortal streamed {portal.n_runs}/{N_RUNS} records before the campaign returned.")
    summary = portal.summary_view("elastic-fleet")
    print(
        f"Campaign: {summary['n_runs']} runs, {summary['total_samples']} samples, "
        f"best score {summary['best_score']:.2f}, fleet makespan "
        f"{campaign.makespan_s / 3600:.2f} h"
    )
    placements = {}
    for placement in campaign.assignments:
        placements[placement.workcell] = placements.get(placement.workcell, 0) + 1
    print("Run placement: " + ", ".join(f"{k}: {v}" for k, v in sorted(placements.items())))


if __name__ == "__main__":
    main()
