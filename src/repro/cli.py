"""Command-line interface for the colour-picker benchmark suite.

Provides the operations a user of the released system would reach for first:

* ``run``          -- one colour-matching experiment (prints Table-1-style metrics),
* ``sweep``        -- the Figure 4 batch-size sweep,
* ``campaign``     -- the Figure 3 multi-run campaign and its portal views,
* ``fleet-status`` -- an elastic fleet campaign with live per-shard status
  snapshots (optionally attaching / draining workcells mid-flight),
* ``lint``         -- the concurrency-contract linter (AST rules
  RPR001-RPR007 over ``src/``; see ``docs/concurrency_contract.md``),
* ``bench``        -- the pinned perf scenario matrix (``BENCH_<area>.json``
  trajectory files; see ``docs/performance.md``),
* ``metrics``      -- render the process-wide metrics registry as JSON or
  Prometheus text (see ``docs/observability.md``),
* ``trace``        -- summarise a ``--trace`` capture: per-stage latency
  percentiles and the slowest run's critical path,
* ``portal``       -- operate a durable on-disk portal store: ``stats``,
  ``compact``, ``snapshot``, ``export`` (paginated search), ``seed``
  (synthetic records for scale testing); see ``docs/portal.md``,
* ``solvers``      -- list the registered solvers,
* ``targets``      -- list the built-in target colours,
* ``workcell``     -- print the declarative description of the default workcell.

Invoke as ``python -m repro <command>`` (or the ``repro-colorpicker`` console
script when the package is installed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, List, Optional

from repro.analysis.figure3 import render_figure3
from repro.analysis.figure4 import render_figure4
from repro.analysis.report import format_table
from repro.analysis.table1 import render_table1
from repro.color.targets import TARGET_COLORS
from repro.core.app import ColorPickerApp
from repro.core.batch import PAPER_BATCH_SIZES, run_batch_sweep
from repro.core.campaign import (
    TRANSPORT_MODES,
    campaign_configs,
    run_campaign,
    workcell_stock,
)
from repro.core.experiment import ExperimentConfig
from repro.publish.portal import DataPortal
from repro.sim.durations import ModuleSpeedProfile
from repro.solvers.base import SOLVER_REGISTRY
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import ASSIGNMENT_POLICIES
from repro.wei.drivers import DriverRegistry
from repro.wei.workcell import build_color_picker_workcell

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """``argparse`` type for arguments that must be a strictly positive integer.

    Rejecting 0 and negatives here turns e.g. ``--n-ot2 0`` into a clear
    usage error at parse time instead of a crash deep inside the engine.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """``argparse`` type for strictly positive, finite floats (e.g. ``--speedup``).

    ``0`` would freeze the wire device's pacing forever and negatives would
    run it backwards, so both are rejected at parse time with a clear usage
    error; ``nan``/``inf`` are rejected for the same reason.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if not (value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _module_speeds(text: str) -> "ModuleSpeedProfile":
    """``argparse`` type for ``--module-speeds module=factor,...`` specs.

    Parsed into a :class:`~repro.sim.durations.ModuleSpeedProfile` at parse
    time so malformed pairs and non-positive / non-finite factors (which
    would divide a duration by 0 or produce infinite timings) become clear
    usage errors, mirroring :func:`_positive_float`.
    """
    try:
        return ModuleSpeedProfile.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_module_speeds_argument(parser: argparse.ArgumentParser) -> None:
    """``--module-speeds module=factor,...``: heterogeneous-fleet hardware mix."""
    parser.add_argument(
        "--module-speeds",
        type=_module_speeds,
        action="append",
        default=None,
        metavar="MODULE=FACTOR,...",
        help="per-module hardware speed factors, e.g. 'ot2=2.5,pf400=0.5' "
        "(2.5 = that module's calibrated actions run 2.5x faster than the "
        "paper calibration; the module must have duration entries). "
        "Given once, applies to every workcell; repeat the flag to give "
        "each workcell its own profile (one flag per workcell, in shard "
        "order). See docs/scheduling.md",
    )


def _resolve_module_speeds(values: Optional[list], n_workcells: int) -> Optional[Any]:
    """Turn repeated ``--module-speeds`` flags into run_campaign's argument."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    if len(values) != n_workcells:
        raise ValueError(
            f"--module-speeds given {len(values)} times; pass it once (all "
            f"workcells) or once per workcell ({n_workcells})"
        )
    return values


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    """``--trace FILE``: capture a causal span trace of the whole command."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a causal span trace of the command and write it as "
        "Chrome trace-event JSON (open in Perfetto, or summarise with "
        "'python -m repro trace FILE')",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro-colorpicker",
        description="Simulated self-driving-lab colour-matching benchmark (SC-W 2023 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one colour-matching experiment")
    run_parser.add_argument("--target", default="paper-grey", help="target colour name or 'R,G,B'")
    run_parser.add_argument("--samples", type=int, default=128, help="sample budget (default 128)")
    run_parser.add_argument("--batch-size", type=int, default=1, help="samples per iteration")
    run_parser.add_argument(
        "--solver", default="evolutionary", choices=sorted(SOLVER_REGISTRY), help="solver to use"
    )
    run_parser.add_argument("--seed", type=int, default=None, help="random seed")
    run_parser.add_argument(
        "--measurement", default="direct", choices=("direct", "vision"), help="colour read-out path"
    )
    run_parser.add_argument(
        "--transport",
        choices=TRANSPORT_MODES,
        default="sim",
        help="'sim' completes actions on the simulated clock; 'wire' delivers "
        "completions out-of-band over the framed byte-stream protocol (CRC "
        "frames, ACK/retry, resync), paced at wall-clock speed / --speedup",
    )
    run_parser.add_argument(
        "--speedup",
        type=_positive_float,
        default=1000.0,
        help="wall-clock compression for --transport wire (1 = hardware speed)",
    )
    run_parser.add_argument("--json", action="store_true", help="emit the full result as JSON")
    _add_trace_argument(run_parser)

    sweep_parser = subparsers.add_parser("sweep", help="run the Figure 4 batch-size sweep")
    sweep_parser.add_argument(
        "--batch-sizes",
        default=",".join(str(size) for size in PAPER_BATCH_SIZES),
        help="comma-separated batch sizes (default: the paper's 1,2,...,64)",
    )
    sweep_parser.add_argument("--samples", type=int, default=128)
    sweep_parser.add_argument("--solver", default="evolutionary", choices=sorted(SOLVER_REGISTRY))
    sweep_parser.add_argument("--seed", type=int, default=2023)
    sweep_parser.add_argument(
        "--n-ot2",
        type=_positive_int,
        default=1,
        help="OT-2 lanes; >1 executes the sweep's experiments concurrently on one shared workcell",
    )
    sweep_parser.add_argument(
        "--assignment",
        choices=ASSIGNMENT_POLICIES,
        default="work-stealing",
        help="how concurrent lanes claim experiments (default: work-stealing)",
    )

    campaign_parser = subparsers.add_parser("campaign", help="run the Figure 3 campaign")
    campaign_parser.add_argument("--runs", type=int, default=12)
    campaign_parser.add_argument("--samples-per-run", type=int, default=15)
    campaign_parser.add_argument("--seed", type=int, default=816)
    campaign_parser.add_argument(
        "--portal-dir",
        default=None,
        help="append the streamed records to the durable portal store in this "
        "directory (operable with 'python -m repro portal'); default in-memory",
    )
    campaign_parser.add_argument(
        "--n-ot2",
        type=_positive_int,
        default=1,
        help="OT-2 lanes per workcell; >1 executes the campaign's runs concurrently (Section 4 ablation)",
    )
    campaign_parser.add_argument(
        "--n-workcells",
        type=_positive_int,
        default=1,
        help="independent workcells; >1 shards the campaign across a coordinated fleet",
    )
    campaign_parser.add_argument(
        "--assignment",
        choices=ASSIGNMENT_POLICIES,
        default="work-stealing",
        help="how lanes claim runs (default: work-stealing / least-finish-time; "
        "stealing-lpt orders the shared queue longest-predicted-first; "
        "lookahead re-ranks it online with drift-corrected lane-aware "
        "predictions -- see docs/scheduling.md)",
    )
    _add_module_speeds_argument(campaign_parser)
    campaign_parser.add_argument(
        "--transport",
        choices=TRANSPORT_MODES,
        default="sim",
        help="'sim' completes actions on the simulated clock; 'wire' delivers "
        "completions out-of-band over the framed byte-stream protocol (CRC "
        "frames, ACK/retry, resync), paced at wall-clock speed / --speedup",
    )
    campaign_parser.add_argument(
        "--speedup",
        type=_positive_float,
        default=1000.0,
        help="wall-clock compression for --transport wire (1 = hardware speed)",
    )
    campaign_parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="inject a seeded chaos schedule (drop/corrupt/duplicate/delay/"
        "disconnect frames) into a --transport wire campaign",
    )
    _add_trace_argument(campaign_parser)

    fleet_parser = subparsers.add_parser(
        "fleet-status",
        help="run an elastic fleet campaign and print live per-shard status snapshots",
    )
    fleet_parser.add_argument("--runs", type=_positive_int, default=8)
    fleet_parser.add_argument("--samples-per-run", type=_positive_int, default=6)
    fleet_parser.add_argument("--seed", type=int, default=816)
    fleet_parser.add_argument(
        "--n-workcells", type=_positive_int, default=2, help="initial fleet size"
    )
    fleet_parser.add_argument("--n-ot2", type=_positive_int, default=1, help="OT-2 lanes per workcell")
    fleet_parser.add_argument(
        "--assignment",
        choices=ASSIGNMENT_POLICIES,
        default="work-stealing",
        help="how lanes claim runs (lookahead/stealing-lpt use the duration "
        "predictor; see docs/scheduling.md)",
    )
    _add_module_speeds_argument(fleet_parser)
    fleet_parser.add_argument(
        "--attach-after",
        type=_positive_int,
        default=None,
        help="attach one extra workcell after this many completed runs",
    )
    fleet_parser.add_argument(
        "--drain-after",
        type=_positive_int,
        default=None,
        help="drain the first active workcell after this many completed runs",
    )
    fleet_parser.add_argument("--json", action="store_true", help="emit the final snapshot as JSON")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the concurrency-contract linter (rules RPR001-RPR007) over "
        "Python sources; exits 1 on non-baselined violations",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the CI artifact schema)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        help="JSON baseline of suppressed violations (each entry must carry a justification)",
    )
    lint_parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write the current violations to FILE as a baseline and exit 0; "
        "entries carry a placeholder justification that --baseline refuses to "
        "load, so each must be edited to say why before the file is usable",
    )
    lint_parser.add_argument(
        "--rules", action="store_true", help="list the rules and exit"
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="run the pinned perf scenario matrix and manage the "
        "BENCH_<area>.json trajectory files (see docs/performance.md)",
    )
    bench_parser.add_argument(
        "--areas",
        default=None,
        help="comma-separated areas to run (default: events,codec,campaign,"
        "portal,vision,obs in that order)",
    )
    bench_parser.add_argument(
        "--repeat",
        type=_positive_int,
        default=3,
        help="measurement repeats per scenario; metrics take the median, "
        "hot-path timings the interleaved minimum (default 3)",
    )
    bench_parser.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="shrink scenario sizes by this factor for smoke runs; scaled "
        "configs never compare against full-size baselines (default 1.0)",
    )
    bench_parser.add_argument(
        "--write",
        action="store_true",
        help="persist one BENCH_<area>.json per area to --out",
    )
    bench_parser.add_argument(
        "--out",
        default=".",
        help="directory for --write and the default --compare baseline "
        "(default: the current directory / repo root)",
    )
    bench_parser.add_argument(
        "--compare",
        nargs="?",
        const=".",
        default=None,
        metavar="BASE",
        help="diff fresh measurements against the committed BENCH_<area>.json "
        "files in BASE (default: the current directory); exits 1 on any "
        "regression beyond --threshold or any changed science digest",
    )
    bench_parser.add_argument(
        "--threshold",
        type=_positive_float,
        default=None,
        help="fractional regression threshold for --compare (default 0.15)",
    )
    bench_parser.add_argument(
        "--json",
        action="store_true",
        help="emit results as JSON (with --compare: one object holding the results "
        "and the compare's metric deltas and science checks)",
    )

    metrics_parser = subparsers.add_parser(
        "metrics",
        help="render the process-wide metrics registry (counters, gauges, "
        "histograms; see docs/observability.md)",
    )
    metrics_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="output format: 'json' (default) or 'prom' (Prometheus text exposition)",
    )
    metrics_parser.add_argument(
        "--exercise",
        action="store_true",
        help="run a tiny pinned wire campaign first so the registry has "
        "series to show (a fresh process starts empty)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="summarise a --trace capture: per-stage latency percentiles "
        "and the slowest run's critical path",
    )
    trace_parser.add_argument("file", help="Chrome trace-event JSON written by --trace")
    trace_parser.add_argument("--json", action="store_true", help="emit the summary as JSON")

    portal_parser = subparsers.add_parser(
        "portal",
        help="operate a durable on-disk portal store (append-only segment "
        "files; see docs/portal.md)",
    )
    portal_sub = portal_parser.add_subparsers(dest="portal_command", required=True)

    def add_store_argument(sub):
        sub.add_argument("store", help="the durable portal store directory")

    portal_stats = portal_sub.add_parser(
        "stats", help="open the store (replaying its segments) and print its stats"
    )
    add_store_argument(portal_stats)

    portal_compact = portal_sub.add_parser(
        "compact",
        help="rewrite the store to one record per run, dropping superseded "
        "versions and recovered-around damage (versions preserved)",
    )
    add_store_argument(portal_compact)

    portal_snapshot = portal_sub.add_parser(
        "snapshot", help="write a compacted copy of the store to a new directory"
    )
    add_store_argument(portal_snapshot)
    portal_snapshot.add_argument("target", help="directory for the snapshot (must hold no segments)")

    portal_export = portal_sub.add_parser(
        "export",
        help="print matching records as JSON pages via the cursor-paginated search",
    )
    add_store_argument(portal_export)
    portal_export.add_argument("--experiment-id", default=None, help="filter: exact experiment id")
    portal_export.add_argument("--solver", default=None, help="filter: exact solver name")
    portal_export.add_argument(
        "--max-best-score", type=float, default=None, help="filter: best score at most this"
    )
    portal_export.add_argument(
        "--limit", type=_positive_int, default=100, help="page size (default 100)"
    )
    portal_export.add_argument(
        "--cursor", default=None, help="resume after this cursor (from a previous page's next_cursor)"
    )
    portal_export.add_argument(
        "--all", action="store_true", help="follow next_cursor until exhausted (one JSON page per line)"
    )

    portal_seed = portal_sub.add_parser(
        "seed",
        help="ingest synthetic run records for scale testing (e.g. a "
        "1M-record store for 'portal stats' and paginated 'portal export')",
    )
    add_store_argument(portal_seed)
    portal_seed.add_argument(
        "--records", type=_positive_int, default=10_000, help="records to ingest (default 10000)"
    )
    portal_seed.add_argument(
        "--experiments", type=_positive_int, default=100, help="experiments to spread them over"
    )
    portal_seed.add_argument(
        "--samples", type=_positive_int, default=4, help="samples per record (default 4)"
    )
    portal_seed.add_argument("--seed", type=int, default=4242, help="random seed")
    portal_seed.add_argument(
        "--fsync",
        choices=("always", "segment", "never"),
        default="segment",
        help="fsync policy while seeding (default segment)",
    )

    subparsers.add_parser("solvers", help="list the registered solvers")
    subparsers.add_parser("targets", help="list the built-in target colours")
    subparsers.add_parser("workcell", help="print the default workcell description (YAML)")
    return parser


def _parse_target(text: str):
    if "," in text:
        parts = [float(v) for v in text.split(",")]
        if len(parts) != 3:
            raise SystemExit(f"target must be a name or 'R,G,B', got {text!r}")
        return tuple(parts)
    return text


def _command_run(args) -> int:
    config = ExperimentConfig(
        target=_parse_target(args.target),
        n_samples=args.samples,
        batch_size=args.batch_size,
        solver=args.solver,
        measurement=args.measurement,
        seed=args.seed,
    )
    workcell = build_color_picker_workcell(seed=config.seed)
    registry = None
    if args.transport == "wire":
        registry = DriverRegistry.wire(workcell, speedup=args.speedup)
    engine = ConcurrentWorkflowEngine(workcell, drivers=registry)
    handle = engine.submit_program(ColorPickerApp(config, workcell=workcell).program(), name="run")
    try:
        engine.run_until_complete()
    finally:
        if registry is not None:
            registry.close()
    result = handle.result
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    best = result.best_sample
    print(f"Samples: {result.n_samples}   best score: {result.best_score:.2f}")
    if best is not None:
        rgb = ", ".join(f"{v:.0f}" for v in best.measured_rgb)
        print(f"Best sample: well {best.well}, measured RGB ({rgb})")
    print()
    print(render_table1(result.metrics))
    if registry is not None:
        stats = engine.transport_stats()
        latencies = engine.completion_latencies()
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
        print(
            f"\nTransport {engine.transport_name} (speedup {args.speedup:g}x): "
            f"{stats.delivered} completions delivered out-of-band, "
            f"mean delivery latency {mean_latency * 1000:.1f} ms"
        )
        recovery = engine.transport_retry_stats()
        if any(recovery.to_dict().values()):
            print(
                f"Wire recovery: {recovery.retries} retries, "
                f"{recovery.resyncs} resyncs, {recovery.crc_errors} CRC errors"
            )
    return 0


def _command_sweep(args) -> int:
    try:
        batch_sizes = tuple(int(v) for v in args.batch_sizes.split(",") if v.strip())
    except ValueError:
        raise SystemExit(f"--batch-sizes must be comma-separated integers, got {args.batch_sizes!r}")
    sweep = run_batch_sweep(
        batch_sizes=batch_sizes,
        n_samples=args.samples,
        solver=args.solver,
        seed=args.seed,
        n_ot2=args.n_ot2,
        assignment=args.assignment,
    )
    print(render_figure4(sweep))
    if args.n_ot2 > 1:
        print(f"\nConcurrent sweep on {args.n_ot2} OT-2 lanes: makespan {sweep.makespan_s / 3600:.2f} h")
    return 0


def _command_campaign(args) -> int:
    if args.portal_dir:
        from repro.publish.store import DurableDataPortal

        portal = DurableDataPortal(args.portal_dir)
    else:
        portal = DataPortal()
    chaos = None
    if args.chaos_seed is not None:
        from repro.wei.chaos import ChaosSchedule

        chaos = ChaosSchedule(args.chaos_seed)
    campaign = run_campaign(
        n_runs=args.runs,
        samples_per_run=args.samples_per_run,
        seed=args.seed,
        portal=portal,
        experiment_id="cli-campaign",
        n_ot2=args.n_ot2,
        n_workcells=args.n_workcells,
        assignment=args.assignment,
        module_speeds=_resolve_module_speeds(args.module_speeds, args.n_workcells),
        transport=args.transport,
        speedup=args.speedup,
        chaos=chaos,
    )
    print(render_figure3(campaign))
    stats = campaign.transport_stats
    if stats.present:
        print(
            f"\n{args.transport.capitalize()} transport (speedup {args.speedup:g}x): "
            f"{stats.delivered} completions delivered out-of-band in "
            f"{stats.wall_elapsed_s:.2f}s real time, mean delivery latency "
            f"{stats.mean_delivery_latency_s * 1000:.1f} ms"
        )
        print(
            f"Wire recovery: {stats.retries} retries, {stats.resyncs} resyncs, "
            f"{stats.crc_errors} CRC errors, "
            f"{stats.completions_retransmitted} completions retransmitted, "
            f"{stats.rejs_sent} REJs, {stats.polls_sent} polls"
            + (f" (chaos seed {args.chaos_seed})" if chaos is not None else "")
        )
    if args.n_workcells > 1:
        shards = ", ".join(f"{makespan / 3600:.2f} h" for makespan in campaign.workcell_makespans)
        print(
            f"\nCampaign sharded across {args.n_workcells} workcells "
            f"({args.n_ot2} OT-2 lane(s) each, {args.assignment} assignment): "
            f"makespan {campaign.makespan_s / 3600:.2f} h (shards: {shards})"
        )
    elif args.n_ot2 > 1:
        print(
            f"\nConcurrent campaign on {args.n_ot2} OT-2 lanes: "
            f"makespan {campaign.makespan_s / 3600:.2f} h"
        )
    if args.portal_dir:
        portal.close()
        print(
            f"\nPortal records appended to the durable store at {args.portal_dir} "
            f"(inspect with: python -m repro portal stats {args.portal_dir})"
        )
    return 0


def _command_fleet_status(args) -> int:
    from repro.wei.coordinator import MultiWorkcellCoordinator

    module_speeds = _resolve_module_speeds(args.module_speeds, args.n_workcells)
    # Any shard -- attached ones included -- may claim every run of the job
    # list run_campaign executes below, so each is stocked for all of it.
    job_args = dict(
        experiment_id="fleet-status",
        targets=None,
        batch_size=1,
        solver="evolutionary",
        measurement="direct",
        seed=args.seed,
    )
    stock = workcell_stock(campaign_configs(args.runs, args.samples_per_run, **job_args))
    coordinator = MultiWorkcellCoordinator.build_color_picker_fleet(
        args.n_workcells,
        seed=args.seed,
        n_ot2=args.n_ot2,
        module_speeds=module_speeds,
        **stock,
    )
    # Workcells attached mid-campaign reuse the single shared profile when
    # one was given; per-shard profile lists only cover the initial fleet.
    attach_profile = module_speeds if isinstance(module_speeds, ModuleSpeedProfile) else None
    portal = DataPortal()
    completed = 0

    def snapshot_line(note: str = "") -> str:
        status = coordinator.status()
        states = " ".join(
            f"{shard.workcell}:{shard.state}/{shard.in_flight} in-flight"
            for shard in status.shards
        )
        suffix = f"  <- {note}" if note else ""
        return (
            f"[t={status.time:8.0f}s] runs done {completed:3d} | "
            f"queue {status.queue_depth:2d} | {states}{suffix}"
        )

    def on_run_complete(completion) -> None:
        nonlocal completed
        completed += 1
        note = ""
        if args.attach_after is not None and completed == args.attach_after:
            engine = MultiWorkcellCoordinator.build_color_picker_shard(
                coordinator.n_workcells,
                seed=args.seed,
                n_ot2=args.n_ot2,
                profile=attach_profile,
                **stock,
            )
            coordinator.attach_workcell(
                engine, lanes=engine.workcell.ot2_barty_pairs()[: args.n_ot2]
            )
            note = f"attached {engine.workcell.name}"
        if args.drain_after is not None and completed == args.drain_after:
            active = [s for s in coordinator.status().shards if s.state == "active"]
            if len(active) > 1:
                coordinator.drain_workcell(active[0].shard_id)
                note = (note + "; " if note else "") + f"draining {active[0].workcell}"
        print(snapshot_line(note))

    campaign = run_campaign(
        n_runs=args.runs,
        samples_per_run=args.samples_per_run,
        portal=portal,
        n_ot2=args.n_ot2,
        assignment=args.assignment,
        coordinator=coordinator,
        on_run_complete=on_run_complete,
        **job_args,
    )

    status = coordinator.status()
    if args.json:
        print(json.dumps({"status": status.to_dict(), "events": coordinator.fleet_events}, indent=2))
        return 0
    print()

    def as_ms(value: Optional[float]) -> str:
        # "-" where no latency was observed: sim shards have no completion
        # bridge, and an idle shard's queue-wait histogram is empty.
        return "-" if value is None else f"{value * 1e3:.1f} ms"

    rows = [
        (
            shard.shard_id,
            shard.workcell,
            shard.state,
            shard.transport,
            shard.completed,
            shard.retries,
            shard.resyncs,
            as_ms(shard.delivery_p50_s),
            as_ms(shard.delivery_p95_s),
            as_ms(shard.queue_wait_p50_s),
            as_ms(shard.queue_wait_p95_s),
            as_ms(shard.queue_wait_mean_s),
            "-" if shard.predictor_drift is None else f"{shard.predictor_drift:.2f}x",
            f"{shard.utilisation:.2f}",
            f"{shard.makespan / 3600:.2f} h",
        )
        for shard in status.shards
    ]
    # Every latency column -- mean included -- is computed over the
    # histograms' bounded recent window, so they describe one time scope.
    print(
        format_table(
            [
                "shard",
                "workcell",
                "state",
                "transport",
                "runs",
                "retries",
                "resyncs",
                "deliver p50",
                "deliver p95",
                "queue p50",
                "queue p95",
                "queue mean",
                "drift",
                "utilisation",
                "makespan",
            ],
            rows,
        )
    )
    for event in coordinator.fleet_events:
        print(f"fleet event: {event['event']} {event['workcell']} at t={event['start_time']:.0f}s")
    print(
        f"\nCampaign: {campaign.n_runs} runs streamed to the portal "
        f"({portal.n_runs} records), fleet makespan {campaign.makespan_s / 3600:.2f} h"
    )
    return 0


def _command_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.lint import (
        PLACEHOLDER_JUSTIFICATION,
        RULES,
        Baseline,
        render_json,
        render_text,
        run_lint,
    )

    if args.rules:
        print(format_table(["rule", "invariant"], sorted(RULES.items())))
        return 0
    paths = [Path(p) for p in args.paths]
    for path in paths:
        if not path.exists():
            raise SystemExit(f"lint path does not exist: {path}")
    baseline = None
    if args.baseline is not None:
        try:
            baseline = Baseline.load(Path(args.baseline))
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load baseline {args.baseline}: {exc}")
    active, suppressed, checked = run_lint(paths, baseline)
    if args.write_baseline is not None:
        new_baseline = Baseline.from_violations(active, PLACEHOLDER_JUSTIFICATION)
        Path(args.write_baseline).write_text(new_baseline.to_json(), encoding="utf-8")
        print(f"wrote {len(active)} suppression(s) to {args.write_baseline}")
        if active:
            print(
                "edit each justification before use: --baseline refuses the "
                f"placeholder ({PLACEHOLDER_JUSTIFICATION!r})"
            )
        return 0
    render = render_json if args.format == "json" else render_text
    print(render(active, suppressed, checked))
    return 1 if active else 0


def _command_bench(args) -> int:
    from pathlib import Path

    from repro.bench import (
        DEFAULT_THRESHOLD,
        area_payload,
        compare_results,
        run_bench,
        write_results,
    )

    areas = None
    if args.areas is not None:
        areas = [name.strip() for name in args.areas.split(",") if name.strip()]
        if not areas:
            raise SystemExit("--areas must name at least one area")

    def progress(area: str) -> None:
        if not args.json:
            print(f"bench: running {area} ...", flush=True)

    results = run_bench(areas, repeats=args.repeat, scale=args.scale, progress=progress)
    payloads = [area_payload(result, repeats=args.repeat) for result in results] if args.json else []

    if args.json and args.compare is None:
        print(json.dumps(payloads, indent=2, sort_keys=True))
    elif not args.json:
        for result in results:
            print(f"\n[{result.area}]")
            rows = [
                (name, f"{metric['value']:,.1f}", metric["unit"])
                for name, metric in result.metrics.items()
            ]
            print(format_table(["metric", "value", "unit"], rows))
            for hot_path in result.hot_paths:
                print(
                    f"hot path {hot_path['name']}: baseline {hot_path['baseline_s'] * 1e3:.1f} ms "
                    f"-> optimised {hot_path['optimised_s'] * 1e3:.1f} ms "
                    f"({hot_path['speedup']:.2f}x)"
                )

    if args.write:
        written = write_results(results, repeats=args.repeat, directory=Path(args.out))
        if not args.json:
            print(f"\nwrote {len(written)} bench file(s) to {args.out}")

    if args.compare is None:
        return 0
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    comparison = compare_results(results, baseline_dir=Path(args.compare))
    deltas = comparison["deltas"]
    science_diffs = [check for check in comparison["science"] if check.differs]
    regressions = [delta for delta in deltas if delta.is_regression(threshold)]
    if args.json:
        # One document: the fresh results and the verdict on each of them.
        compare = {
            "baseline_dir": args.compare,
            "threshold": threshold,
            "deltas": [
                dict(vars(delta), regression=delta.is_regression(threshold)) for delta in deltas
            ],
            "science": [
                dict(vars(check), differs=check.differs) for check in comparison["science"]
            ],
            "skipped": comparison["skipped"],
            "regressions": len(regressions),
            "science_diffs": len(science_diffs),
        }
        print(json.dumps({"results": payloads, "compare": compare}, indent=2, sort_keys=True))
    else:
        print(f"\nCompare vs {args.compare} (threshold {threshold:.0%}):")
        rows = [
            (
                delta.area,
                delta.metric,
                f"{delta.baseline:,.1f}",
                f"{delta.current:,.1f}",
                f"{delta.change:+.1%}",
                "REGRESSION" if delta.is_regression(threshold) else "ok",
            )
            for delta in deltas
        ]
        rows += [
            (
                check.area,
                check.key,
                json.dumps(check.baseline, sort_keys=True)[:16],
                json.dumps(check.current, sort_keys=True)[:16],
                "",
                "SCIENCE DIFFERS" if check.differs else "ok",
            )
            for check in comparison["science"]
        ]
        if rows:
            print(format_table(["area", "metric", "baseline", "current", "change", "verdict"], rows))
        for area, reason in comparison["skipped"].items():
            print(f"skipped {area}: {reason}")
    if regressions and not args.json:
        print(f"\n{len(regressions)} metric(s) regressed beyond the {threshold:.0%} threshold")
    if science_diffs and not args.json:
        print(f"{len(science_diffs)} science digest(s) differ from the committed files")
    return 1 if regressions or science_diffs else 0


def _command_portal(args) -> int:
    from pathlib import Path

    from repro.publish.records import RunRecord, SampleRecord
    from repro.publish.store import DurableDataPortal
    from repro.utils.rng import ensure_rng

    store_dir = Path(args.store)
    if args.portal_command != "seed" and not store_dir.exists():
        raise SystemExit(f"portal store does not exist: {store_dir}")

    if args.portal_command == "stats":
        with DurableDataPortal(store_dir) as portal:
            print(json.dumps(portal.stats(), indent=2, sort_keys=True))
        return 0

    if args.portal_command == "compact":
        with DurableDataPortal(store_dir) as portal:
            manifest = portal.compact()
            manifest["stats"] = portal.stats()
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    if args.portal_command == "snapshot":
        with DurableDataPortal(store_dir) as portal:
            manifest = portal.snapshot(Path(args.target))
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0

    if args.portal_command == "export":
        with DurableDataPortal(store_dir) as portal:
            cursor = args.cursor
            while True:
                page = portal.search_page(
                    experiment_id=args.experiment_id,
                    solver=args.solver,
                    max_best_score=args.max_best_score,
                    limit=args.limit,
                    cursor=cursor,
                )
                print(json.dumps(page.to_dict(), sort_keys=True))
                cursor = page.next_cursor
                if not args.all or cursor is None:
                    break
        return 0

    # seed: synthetic records for scale testing.
    rng = ensure_rng(args.seed)
    with DurableDataPortal(store_dir, fsync_policy=args.fsync) as portal:
        start = portal.n_runs
        for number in range(args.records):
            experiment = int(rng.integers(args.experiments))
            scores = rng.uniform(0.0, 120.0, size=args.samples)
            volumes = rng.uniform(0.0, 40.0, size=(args.samples, 3))
            record = RunRecord(
                experiment_id=f"seed-exp-{experiment:05d}",
                run_id=f"seed-run-{start + number:08d}",
                run_index=start + number,
                target_rgb=[float(v) for v in rng.uniform(0.0, 255.0, size=3)],
                solver="synthetic",
                samples=[
                    SampleRecord(
                        sample_index=index,
                        well=f"A{index + 1}",
                        plate_barcode=f"seed-plate-{number:08d}",
                        volumes_ul={
                            "red": float(volumes[index][0]),
                            "green": float(volumes[index][1]),
                            "blue": float(volumes[index][2]),
                        },
                        measured_rgb=[float(v) for v in rng.uniform(0.0, 255.0, size=3)],
                        score=float(scores[index]),
                    )
                    for index in range(args.samples)
                ],
                metadata={"source": "portal-seed", "seed": args.seed},
            )
            portal.ingest(record)
        stats = portal.stats()
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _command_metrics(args) -> int:
    from repro.obs import metrics as obs_metrics

    if args.exercise:
        # A tiny pinned wire campaign touches every layer (bridge, wire
        # transport, coordinator, portal), populating the registry.
        run_campaign(
            n_runs=2,
            samples_per_run=2,
            seed=816,
            experiment_id="metrics-exercise",
            transport="wire",
            speedup=500_000.0,
        )
    registry = obs_metrics.get_registry()
    if args.format == "prom":
        print(registry.render_prometheus(), end="")
    else:
        print(json.dumps(registry.to_json(), indent=2, sort_keys=True))
    return 0


def _command_trace(args) -> int:
    from pathlib import Path

    from repro.obs import load_trace, render_summary, summarise_trace

    path = Path(args.file)
    if not path.exists():
        raise SystemExit(f"trace file does not exist: {path}")
    summary = summarise_trace(load_trace(path))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(render_summary(summary))
    return 0


def _command_solvers(_args) -> int:
    rows = [(name, SOLVER_REGISTRY[name].__doc__.strip().splitlines()[0]) for name in sorted(SOLVER_REGISTRY)]
    print(format_table(["solver", "description"], rows))
    return 0


def _command_targets(_args) -> int:
    rows = [
        (target.name, f"({target.rgb[0]:.0f}, {target.rgb[1]:.0f}, {target.rgb[2]:.0f})", target.description)
        for target in TARGET_COLORS.values()
    ]
    print(format_table(["target", "RGB", "description"], rows))
    return 0


def _command_workcell(_args) -> int:
    workcell = build_color_picker_workcell(seed=0)
    print(workcell.to_yaml())
    return 0


_COMMANDS = {
    "run": _command_run,
    "sweep": _command_sweep,
    "campaign": _command_campaign,
    "fleet-status": _command_fleet_status,
    "lint": _command_lint,
    "bench": _command_bench,
    "metrics": _command_metrics,
    "trace": _command_trace,
    "portal": _command_portal,
    "solvers": _command_solvers,
    "targets": _command_targets,
    "workcell": _command_workcell,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path:
            from pathlib import Path

            from repro import obs

            with obs.observed() as session:
                code = _COMMANDS[args.command](args)
            written = session.write_trace(Path(trace_path))
            # stderr keeps --json stdout machine-readable.
            print(
                f"trace: {len(session.spans)} span(s) written to {written} "
                "(load in Perfetto, or: python -m repro trace "
                f"{written})",
                file=sys.stderr,
            )
            return code
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
