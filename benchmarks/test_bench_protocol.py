"""Benchmark: the framed wire protocol under chaos still delivers sim science.

Two measurements:

* raw codec throughput -- frames encoded + decoded per second through the
  incremental :class:`~repro.wei.drivers.protocol.FrameDecoder` (the hot
  loop every wire action crosses four times: SUBMIT, ACK, COMPLETE, ACK);
* a chaos-injected wire campaign vs the sim baseline -- identical scores,
  with the retry/resync/CRC recovery counters and the real wall time the
  recovery cost.
"""

import time

import numpy as np
import pytest

from repro.analysis.report import format_table
from repro.core.campaign import run_campaign
from repro.wei.chaos import ChaosSchedule
from repro.wei.drivers.protocol import Frame, FrameDecoder, encode_frame

SEED = 424
CHAOS_SEED = 101
SPEEDUP = 1_000_000.0
N_FRAMES = 20_000


def codec_round_trip():
    frames = [
        Frame(
            kind="SUBMIT",
            seq=index,
            payload={"ticket_id": f"wire:{index}", "module": "ot2", "duration_s": 12.5},
        )
        for index in range(N_FRAMES)
    ]
    start = time.monotonic()
    stream = b"".join(encode_frame(frame) for frame in frames)
    encode_s = time.monotonic() - start
    decoder = FrameDecoder()
    start = time.monotonic()
    decoded = decoder.feed(stream)
    decode_s = time.monotonic() - start
    assert decoded == frames
    assert decoder.crc_errors == 0
    return encode_s, decode_s, len(stream)


def run_wire_vs_sim():
    shared = dict(
        n_runs=2, samples_per_run=4, batch_size=2, solver="evolutionary",
        seed=SEED, n_workcells=2,
    )
    sim = run_campaign(experiment_id="bench-wire", **shared)
    wire = run_campaign(
        experiment_id="bench-wire",
        transport="wire",
        speedup=SPEEDUP,
        chaos=ChaosSchedule(CHAOS_SEED),
        **shared,
    )
    return sim, wire


@pytest.mark.benchmark(group="protocol")
def test_frame_codec_throughput(benchmark, report):
    encode_s, decode_s, n_bytes = benchmark.pedantic(codec_round_trip, rounds=1, iterations=1)
    report(
        f"Frame codec throughput ({N_FRAMES} frames, {n_bytes / 1e6:.1f} MB)",
        format_table(
            ["direction", "frames/s", "MB/s"],
            [
                ("encode", f"{N_FRAMES / encode_s:,.0f}", f"{n_bytes / encode_s / 1e6:.1f}"),
                ("decode", f"{N_FRAMES / decode_s:,.0f}", f"{n_bytes / decode_s / 1e6:.1f}"),
            ],
        ),
    )
    # The codec must never be the bottleneck: a campaign issues tens of
    # frames per second at hardware speed, we demand five orders more.
    assert N_FRAMES / encode_s > 10_000
    assert N_FRAMES / decode_s > 10_000


@pytest.mark.benchmark(group="protocol")
def test_chaotic_wire_campaign_matches_sim_and_reports_recovery(benchmark, report):
    sim, wire = benchmark.pedantic(run_wire_vs_sim, rounds=1, iterations=1)
    stats = wire.transport_stats

    report(
        f"Wire protocol under chaos seed {CHAOS_SEED} (2 workcells, "
        f"{wire.n_runs} runs, {wire.total_samples} samples)",
        format_table(
            ["recovery counter", "value"],
            [
                ("completions delivered", stats.delivered),
                ("command retries", stats.retries),
                ("reconnect resyncs", stats.resyncs),
                ("CRC-rejected frames", stats.crc_errors),
                ("wire duplicates dropped", stats.duplicates_dropped),
                ("completions retransmitted", stats.completions_retransmitted),
                ("REJs sent on damaged frames", stats.rejs_sent),
                ("polls for overdue completions", stats.polls_sent),
                ("real elapsed", f"{stats.wall_elapsed_s:.2f} s"),
            ],
        ),
    )

    # The soak invariant, as a benchmark-grade assertion: identical science.
    assert [run.best_score for run in wire.runs] == [run.best_score for run in sim.runs]
    for sim_run, wire_run in zip(sim.runs, wire.runs):
        np.testing.assert_allclose(sim_run.scores(), wire_run.scores())
    # Chaos really attacked the wire, and the protocol really recovered:
    # nothing timed out, nothing leaked through the bridge.
    assert stats.retries + stats.crc_errors + stats.resyncs > 0
    assert stats.timed_out == 0
    assert stats.rejected_late == 0
