"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload fleet_direct --seed 816 --seconds 15 --trace 0

The workloads are defined in :mod:`perfbench.workloads`.  A run repeats its
workload, one repetition after another in this process, until ``--seconds``
have passed (at least two repetitions), checks every repetition's outputs,
and prints a report followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, every workload all of them
("host" is this machine's wall clock, "sim" is modelled lab time):

=================  =====  ====================================================
metric             unit   campaign workloads / ``portal_history``
=================  =====  ====================================================
setup_s            s      process start to the first call into the workload,
                          imports included; median of this process and two
                          fresh ones
samples_per_s      1/s    scored samples per second of ``run_campaign``
                          / sample rows per second of the durable ingest
makespan_h         sim_h  simulated campaign makespan / simulated lab hours of
                          the history, read back from the reopened store
peak_rss_mb        MB     peak resident memory of one repetition (median)
ok_ratio           ratio  operations that succeeded and passed their checks
                          over operations attempted (1 - failed_ratio)
ingest_rows_per_s  1/s    run records the portal ingested per second of the
                          call that ingested them
=================  =====  ====================================================

The seconds of ``setup_s``, ``samples_per_s`` and ``ingest_rows_per_s`` are
host seconds corrected to a reference host speed: a fixed kernel timed
before and after every timed window (and between the laps of the portal's
ingest) tells how much slower than the reference the shared host ran, and
the CPU-busy share of the window is scaled back by that
(:mod:`perfbench.hostspeed`; waiting time is kept as measured).  A rate's
window is, lap by lap, the median over the run's repetitions.  The report
gives the uncorrected rate and the slowdown beside them.  Every BLAS and
OpenMP pool is held to one thread, so the program's own threads are all
that run besides the process's main thread.

The report above the JSON line also gives ``failed_ratio`` and, for
``portal_history``, the read mix's ``query_p50_ms`` / ``query_p90_ms`` over
every read of the run and the median ``reopen_s``.  Campaigns make no portal
reads or reopens, so those three are not end-to-end metrics (each must exist
for every workload); ``--trace 1`` reports them as ``publish.*`` metrics.

``--trace 1`` instead alternates untraced and traced repetitions in pairs
(which goes first alternates too), records spans around every layer's public
entry points during the traced ones (:mod:`perfbench.spans`), prints the
layer table and reports the per-layer metrics, each the mean per traced
repetition.  ``trace.overhead_pct`` is the median over pairs of traced wall
over untraced wall, minus one, never clamped; ``*_iqr_pct`` give the spread.

The command exits 1 when any output check fails, and 2 without printing a
result when the program cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Fewest repetitions (trace 0) and pairs (trace 1) a run makes, however
#: long they take.
MIN_REPS = 2
MIN_PAIRS = 2
#: Fresh processes timed for ``setup_s``, besides this one.
SETUP_PROBES = 2
#: Seconds one setup probe may take before the run fails.
PROBE_TIMEOUT_S = 120


class PeakRss:
    """Peak resident memory of a window of this process.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    high-water mark (``VmHWM``), so each repetition's peak is its own.
    Where that is not possible the lifetime peak is reported instead.
    """

    def __init__(self) -> None:
        self.resettable = True

    def reset(self) -> None:
        """Start a new window."""
        if not self.resettable:
            return
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            self.resettable = False

    def read_mb(self) -> float:
        """Peak resident MB since the last :meth:`reset`."""
        if self.resettable:
            try:
                with open("/proc/self/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def set_up(workload: Any, seed: int) -> Tuple[Dict[str, Any], Any]:
    """Everything before the first call into the workload: inputs and a fleet.

    The caller closes the fleet; its teardown is not set-up.
    """
    inputs = workload.prepare(seed)
    return inputs, workload.build(inputs)


def process_age_s() -> float:
    """Host seconds since this process started (``nan`` without ``/proc``)."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return float("nan")
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def probe_setup(workload: str, seed: int, speed: Any) -> float:
    """Reference-host seconds from starting a fresh process to its first
    workload call.

    The child imports everything, runs :func:`set_up` and prints
    ``ready <its process age> <its CPU seconds>``; the host's slowdown is
    measured around the child.  Without ``/proc`` the child cannot read its
    age, and the time until the child exits is used instead.
    """
    from perfbench.hostspeed import corrected_s

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    command += ["--seed", str(seed), "--setup-probe"]
    before = speed.slowdown(repeats=4)
    start = time.perf_counter()
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    elapsed = time.perf_counter() - start
    slowdown = (before + speed.slowdown(repeats=4)) / 2.0
    words = child.stdout.split()
    if child.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed ({child.returncode}): {child.stderr.strip()[-500:]}")
    age, cpu = float(words[1]), float(words[2])
    return corrected_s(elapsed if math.isnan(age) else age, cpu, slowdown)


def rate(reps: List[Any], work: str) -> float:
    """A run's ``work`` per reference-host second of its timed window.

    The window of one repetition is taken as, lap by lap, the median of
    that lap's corrected seconds over the repetitions, so a stall that hit
    one lap of one repetition does not move it.
    """
    timed = [rep for rep in reps if rep.laps_s]
    if not timed:
        return float("nan")
    laps = min(len(rep.laps_s) for rep in timed)
    seconds = sum(statistics.median(rep.laps_s[lap] for rep in timed) for lap in range(laps))
    return statistics.median(rep.values[work] for rep in timed) / seconds


def _repeat(deadline: float, minimum: int, body: Callable[[], None]) -> None:
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        body()
        count += 1


def _verdict(reps: List[Any]) -> Tuple[int, int, List[str]]:
    """Attempted, failed and problems over every repetition of a run.

    Besides each repetition's own checks, every repetition must reproduce
    the first one's fingerprint.
    """
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    problems = [problem for rep in reps for problem in rep.problems]
    for index, rep in enumerate(reps[1:], start=1):
        if rep.fingerprint != reps[0].fingerprint:
            failed += 1
            problems.append(f"repetition {index} fingerprint {rep.fingerprint} != {reps[0].fingerprint}")
    return attempted, min(failed, attempted), problems


def end_to_end(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced repetitions for ``seconds``; the end-to-end metrics."""
    from perfbench.hostspeed import HostSpeed, corrected_s

    inputs, fleet = set_up(workload, seed)
    age, cpu = process_age_s(), time.process_time()
    fleet.close()
    speed = HostSpeed()
    setups = [] if math.isnan(age) else [corrected_s(age, cpu, speed.slowdown(repeats=4))]
    rss = PeakRss()
    reps: List[Any] = []
    peaks: List[float] = []

    def one() -> None:
        gc.collect()
        rss.reset()
        reps.append(workload.run(inputs, speed=speed))
        peaks.append(rss.read_mb())

    _repeat(time.perf_counter() + seconds, MIN_REPS, one)
    setups += [probe_setup(workload.name, seed, speed) for _ in range(SETUP_PROBES)]
    attempted, failed, problems = _verdict(reps)
    queries_ms = [value * 1e3 for rep in reps for value in rep.query_s]

    def median_of(key: str) -> float:
        return statistics.median(rep.values[key] for rep in reps if key in rep.values)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (rate(reps, "samples"), "1/s"),
        "makespan_h": (median_of("makespan_h"), "sim_h"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "ingest_rows_per_s": (rate(reps, "rows"), "1/s"),
    }
    notes = [
        f"repetitions: {len(reps)}; setup samples (s): {[round(value, 3) for value in setups]}",
        f"samples_per_s per repetition: {[round(rep.values.get('samples_per_s', 0.0), 2) for rep in reps]}",
        f"host slowdown per repetition: {[round(rep.values.get('slowdown', 0.0), 3) for rep in reps]}",
        f"uncorrected samples_per_s (host seconds): {median_of('host_samples_per_s'):.4f}",
        f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted})",
        f"fingerprint: {reps[0].fingerprint}",
    ]
    if queries_ms:
        notes.append(
            f"query_p50_ms {percentile(queries_ms, 50):.4f}  query_p90_ms {percentile(queries_ms, 90):.4f}"
            f"  ({len(queries_ms)} reads)  reopen_s {median_of('reopen_s'):.4f}"
        )
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems, "notes": notes}


def traced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """Interleaved untraced/traced pairs for ``seconds``; the per-layer metrics."""
    from perfbench.spans import SpanRecorder, summarise

    inputs = workload.prepare(seed)
    rss = PeakRss()
    reps: List[Any] = []
    traced_reps: List[Any] = []
    untraced_reps: List[Any] = []
    summaries: List[Any] = []
    peaks: List[float] = []
    overheads: List[float] = []

    def pair() -> None:
        walls: Dict[bool, float] = {}
        traced_first = len(overheads) % 2 == 1
        for with_trace in (traced_first, not traced_first):
            gc.collect()
            if with_trace:
                recorder = SpanRecorder()
                with recorder.installed():
                    rep = workload.run(inputs, recorder)
                summaries.append(summarise(recorder))
                traced_reps.append(rep)
            else:
                rss.reset()
                rep = workload.run(inputs)
                peaks.append(rss.read_mb())
                untraced_reps.append(rep)
            reps.append(rep)
            walls[with_trace] = rep.wall_s
        overheads.append(100.0 * (walls[True] / walls[False] - 1.0))

    # One untimed warm-up repetition first, so the first pair does not
    # carry lazy set-up on one side only.
    reps.append(workload.run(inputs))
    _repeat(time.perf_counter() + seconds, MIN_PAIRS, pair)
    attempted, failed, problems = _verdict(reps)
    metrics = layer_metrics(summaries, traced_reps, untraced_reps, peaks, overheads)
    notes = [f"pairs: {len(overheads)}; overhead per pair (%): {[round(v, 2) for v in overheads]}"]
    notes += layer_table(summaries)
    notes.append(f"fingerprint: {reps[0].fingerprint}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems, "notes": notes}


#: Span names of the portal's read calls.
_READS = ("publish.search", "publish.search_page", "publish.summary_view", "publish.detail_view")


def layer_metrics(
    summaries: List[Any],
    reps: List[Any],
    untraced: List[Any],
    peaks: List[float],
    overheads: List[float],
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, each the mean per traced repetition.

    Counters come from the traced repetitions ``reps``; memory and the
    portal's read and reopen latencies from the ``untraced`` ones.
    """
    from perfbench.spans import LAYERS

    n = len(summaries)

    def mean(value: Callable[[Any], float]) -> float:
        return sum(value(summary) for summary in summaries) / n

    def calls(*names: str) -> float:
        return mean(lambda s: sum(s.calls.get(name, 0) for name in names))

    def self_s(*names: str) -> float:
        return mean(lambda s: sum(s.self_s.get(name, 0.0) for name in names))

    def layer_s(layer: str) -> float:
        return mean(lambda s: s.layer_self_s(layer))

    def counter(key: str) -> float:
        return sum(rep.counters.get(key, 0) for rep in reps) / len(reps)

    renders, extracts = calls("vision.render"), calls("vision.extract")
    events = calls("sim.step")
    latencies_ms = [value * 1e3 for rep in reps for value in rep.counters.get("latencies_s", [])]
    reads_ms = [value * 1e3 for rep in untraced for value in rep.query_s]
    frames = calls("drivers.encode")
    samples = counter("samples")
    wall = mean(lambda s: s.wall_s)
    coverages = [100.0 * s.coverage for s in summaries]
    metrics: Dict[str, Tuple[float, str]] = {
        "vision.render_calls": (renders, "count"),
        "vision.render_self_s": (self_s("vision.render"), "s"),
        "vision.extract_calls": (extracts, "count"),
        "vision.extract_self_s": (self_s("vision.extract"), "s"),
        "vision.frames_used_ratio": (extracts / renders if renders else 0.0, "ratio"),
        "solvers.propose_calls": (calls("solver.propose"), "count"),
        "solvers.self_s": (layer_s("solvers"), "s"),
        "wei.self_s": (layer_s("wei"), "s"),
        "sim.events": (events, "count"),
        "wei.self_us_per_event": (1e6 * layer_s("wei") / events if events else 0.0, "us"),
        "wei.peak_rss_mb_per_sample": (statistics.median(peaks) / samples if samples else 0.0, "MB"),
        "hardware.complete_calls": (calls("hardware.complete"), "count"),
        "hardware.self_s": (layer_s("hardware"), "s"),
        "color.self_s": (layer_s("color"), "s"),
        "drivers.submit_wait_s": (self_s("drivers.submit"), "s"),
        "drivers.completion_wait_s": (self_s("drivers.wait_for"), "s"),
        "drivers.codec_s": (self_s("drivers.encode", "drivers.decode"), "s"),
        "drivers.retries": (counter("retries"), "count"),
        "drivers.resyncs": (counter("resyncs"), "count"),
        "drivers.crc_errors": (counter("crc_errors"), "count"),
        "drivers.delivery_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "drivers.delivery_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "drivers.frames_useful_ratio": (counter("delivered") / frames if frames else 0.0, "ratio"),
        "publish.ingest_calls": (calls("publish.ingest"), "count"),
        "publish.ingest_self_s": (self_s("publish.ingest"), "s"),
        "publish.query_calls": (calls(*_READS), "count"),
        "publish.query_self_s": (self_s(*_READS), "s"),
        "publish.reopen_self_s": (self_s("publish.reopen"), "s"),
        "publish.query_p50_ms": (percentile(reads_ms, 50), "ms"),
        "publish.query_p90_ms": (percentile(reads_ms, 90), "ms"),
        "publish.reopen_s": (
            statistics.median(rep.values["reopen_s"] for rep in untraced) if reads_ms else 0.0,
            "s",
        ),
        "publish.bytes_written": (counter("bytes_written"), "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.offthread_busy_s": (mean(lambda s: sum(s.offthread_self_s.values())), "s"),
        "trace.coverage_pct": (statistics.median(coverages), "%"),
        "trace.coverage_iqr_pct": (quartile_spread(coverages), "%"),
        "trace.overhead_pct": (statistics.median(overheads), "%"),
        "trace.overhead_iqr_pct": (quartile_spread(overheads), "%"),
    }
    for layer in LAYERS:
        engine_s = mean(lambda s: s.engine_self_s.get(layer, 0.0))
        metrics[f"share_pct.{layer}"] = (100.0 * engine_s / wall if wall else 0.0, "%")
    return metrics


def layer_table(summaries: List[Any]) -> List[str]:
    """The per-layer table: calls, self seconds on the workload's thread and
    their share of the workload wall; busy time on other threads apart."""
    from perfbench.spans import LAYERS

    n = len(summaries)
    wall = sum(s.wall_s for s in summaries) / n
    lines = [f"{'layer':<16}{'calls':>12}{'self_s':>12}{'share_%':>10}   (per traced repetition)"]
    for layer in LAYERS + ("root",):
        calls = sum(s.layer_calls.get(layer, 0) for s in summaries) / n
        seconds = sum(s.engine_self_s.get(layer, 0.0) for s in summaries) / n
        label = "uncovered" if layer == "root" else layer
        lines.append(f"{label:<16}{calls:>12.1f}{seconds:>12.4f}{100.0 * seconds / wall:>10.2f}")
    off = sum(sum(s.offthread_self_s.values()) for s in summaries) / n
    lines.append(f"{'(off-thread)':<16}{'':>12}{off:>12.4f}{100.0 * off / wall:>10.2f}   not in the wall")
    lines.append(f"{'workload wall':<16}{'':>12}{wall:>12.4f}{100.0:>10.2f}")
    return lines


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Before numpy is imported (setup probes inherit it): a BLAS pool
    # spinning on a 2-core share of a shared host measures the scheduler,
    # not the program.
    for pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[pool] = "1"

    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        _, fleet = set_up(workload, args.seed)
        age, cpu = process_age_s(), time.process_time()
        fleet.close()
        print(f"ready {age} {cpu}")
        return 0

    measure = traced if args.trace else end_to_end
    outcome = measure(workload, args.seed, args.seconds)
    correct = outcome["failed"] == 0 and not outcome["problems"]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for note in outcome["notes"]:
        print(note)
    for problem in outcome["problems"][:50]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:<32}{value:>18.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
