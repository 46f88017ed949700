#!/usr/bin/env python3
"""Wire-transport demo: the same science over a chaos-ridden framed protocol.

Runs one small campaign twice: once on the sim clock (every action completes
inline), and once with every workcell's actions travelling as CRC-checked
frames over a byte pipe to a device that paces them at 100000x wall speed,
while a seeded `ChaosSchedule` drops, corrupts, duplicates and delays frames
and severs the link.  The protocol's retries and resyncs recover every fault,
so the per-run scores match exactly; only wall time and the recovery
counters differ.

Run with:  python examples/wire_transport.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import run_campaign  # noqa: E402
from repro.wei.chaos import ChaosSchedule  # noqa: E402

CHAOS_SEED = 7


def main() -> int:
    shared = dict(n_runs=3, samples_per_run=4, batch_size=2, seed=816, n_workcells=2)
    sim = run_campaign(experiment_id="wire-demo", **shared)
    wire = run_campaign(
        experiment_id="wire-demo",
        transport="wire",
        speedup=100_000.0,
        chaos=ChaosSchedule(CHAOS_SEED),
        **shared,
    )

    def run_scores(campaign):
        return [[sample.score for sample in run.samples] for run in campaign.runs]

    assert run_scores(wire) == run_scores(sim), "chaos must never change the science"
    best = [f"{run.best_score:.1f}" for run in wire.runs]
    print(f"Every sample score identical on sim and wire; per-run best: {best}")

    stats = wire.transport_stats
    print(
        f"Wire campaign (chaos seed {CHAOS_SEED}): {stats.delivered} completions "
        f"delivered out-of-band in {stats.wall_elapsed_s:.2f} s, "
        f"mean delivery latency {stats.mean_delivery_latency_s * 1000:.2f} ms"
    )
    print(
        f"Recovered: {stats.retries} submit retries, {stats.resyncs} resyncs, "
        f"{stats.crc_errors} CRC errors, {stats.duplicates_dropped} duplicates dropped, "
        f"{stats.completions_retransmitted} completions retransmitted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
