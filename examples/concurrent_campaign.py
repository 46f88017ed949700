#!/usr/bin/env python3
"""Execute the paper's Section 4 multi-OT-2 ablation.

The paper proposes "integrating additional OT2s in our workflow, so that
multiple plates of colors could be mixed at once.  This would lead to an
increase in CCWH, but potentially a lower TWH for the same experimental
results."  This example runs the *same* campaign twice -- once on one OT-2
(runs back to back) and once interleaving the runs over two OT-2/barty
lanes -- and compares the executed makespans.

Because the runs use the same seeds, the solvers propose identical batches
and reach identical scores on one lane and on two; only the simulated wall
time differs, which is exactly the TWH-vs-CCWH trade-off the paper describes.

Run with:  python examples/concurrent_campaign.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import run_campaign  # noqa: E402

N_RUNS = 4
SAMPLES_PER_RUN = 16
BATCH_SIZE = 8
SEED = 2023


def main() -> None:
    print(f"Campaign: {N_RUNS} runs x {SAMPLES_PER_RUN} samples, batch size {BATCH_SIZE}\n")

    print("1 OT-2 lane (runs back to back)...")
    sequential = run_campaign(
        n_runs=N_RUNS,
        samples_per_run=SAMPLES_PER_RUN,
        batch_size=BATCH_SIZE,
        seed=SEED,
        experiment_id="ablation-seq",
    )

    print("2 OT-2 lanes (runs interleaved)...\n")
    concurrent = run_campaign(
        n_runs=N_RUNS,
        samples_per_run=SAMPLES_PER_RUN,
        batch_size=BATCH_SIZE,
        seed=SEED,
        experiment_id="ablation-conc",
        n_ot2=2,
    )

    for label, campaign in (("1 lane", sequential), ("2 lanes", concurrent)):
        print(
            f"{label:>14}: {campaign.total_samples} samples, "
            f"best score {campaign.best_score:.2f}, "
            f"makespan {campaign.makespan_s / 3600:.2f} h"
        )
    speedup = sequential.makespan_s / concurrent.makespan_s
    print(f"\nSpeedup from the second OT-2: {speedup:.2f}x "
          f"(same scores, lower TWH, more commands in flight)")


if __name__ == "__main__":
    main()
