#!/usr/bin/env python3
"""Reproduce the paper's Figure 3: a campaign published to the data portal.

Runs a campaign of 12 short colour-matching runs (15 samples each, different
target colours), publishes every run to the simulated ACDC portal, and prints
the portal's experiment summary view and the detail view of the final run --
the two views shown in the paper's Figure 3.  The portal is a durable on-disk
store, so the example also searches it and reopens it from disk.

Run with:  python examples/campaign_portal.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import run_campaign  # noqa: E402
from repro.analysis.figure3 import render_figure3  # noqa: E402
from repro.publish.store import DurableDataPortal  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "acdc"
        portal = DurableDataPortal(store)
        print("Running campaign: 12 runs x 15 samples ...")
        campaign = run_campaign(
            n_runs=12,
            samples_per_run=15,
            experiment_id="acdc-demo",
            targets=["paper-grey", "teal", "plum", "olive"],
            seed=816,
            portal=portal,
        )

        print(render_figure3(campaign))
        print()

        # The portal is also a search index, like the Globus Search portal.
        good_runs = portal.search(experiment_id="acdc-demo", max_best_score=15.0)
        print(f"Runs that matched their target within 15 RGB units: {len(good_runs)}")

        # And it persists to disk: reopen it and query again.
        portal.close()
        with DurableDataPortal(store) as reopened:
            summary = reopened.summary_view("acdc-demo")
        print(
            f"Reopened portal from disk: {summary['n_runs']} runs, "
            f"{summary['total_samples']} samples, best score {summary['best_score']:.2f}"
        )


if __name__ == "__main__":
    main()
