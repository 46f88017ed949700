"""Seeded differential oracle: the science does not depend on how it is executed.

Each draw runs one job list under one execution configuration: 1-3
workcells, 1-2 OT-2 lanes, an assignment policy, sim or the framed wire at
speedup 5e5, a chaos seed or none, per-shard module speeds or none, tracing
on or off, an in-memory or durable portal, and (unless the policy is
``static``) a shard attached after the first completion and one drained
after the second.  Its portal-sourced ``campaign_fingerprint`` must equal
the one-lane sim baseline of the job list, and its ``makespan_s`` that of
the same fleet on sim with no chaos, no tracing and an in-memory portal.
Four fixed cases keep the chaos soak shape (3 runs x 4 samples, batch 2,
2 workcells, seed 816) on a clean wire and under chaos seeds 101/202/303.
Test ids name their draw: replay one with ``-k <id>``.
"""

from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
import pytest

from repro import obs
from repro.core.campaign import campaign_configs, run_campaign, workcell_stock
from repro.publish.portal import DataPortal
from repro.publish.store import DurableDataPortal
from repro.sim.durations import ModuleSpeedProfile
from repro.wei.chaos import ChaosSchedule
from repro.wei.chaos.soak import _diff_fingerprints, campaign_fingerprint
from repro.wei.concurrent import ConcurrentWorkflowEngine
from repro.wei.coordinator import ASSIGNMENT_POLICIES, MultiWorkcellCoordinator
from repro.wei.drivers.registry import DriverRegistry

SPEEDUP = 500_000.0
#: Job lists as ``(n_runs, samples_per_run, batch_size, seed)``; the first is the soak shape.
JOBS = ((3, 4, 2, 816), (4, 3, 3, 42))


@dataclass(frozen=True)
class Draw:
    """One execution configuration of one job list."""

    job: Tuple[int, int, int, int]
    n_workcells: int = 1
    n_ot2: int = 1
    assignment: str = "work-stealing"
    transport: str = "sim"
    chaos_seed: Optional[int] = None
    #: One ``((module, speed), ...)`` profile per shard, the attached one last.
    speeds: Optional[Tuple[Tuple[Tuple[str, float], ...], ...]] = None
    traced: bool = False
    durable: bool = False
    elastic: bool = False
    name: str = field(default="", compare=False)

    @property
    def id(self) -> str:
        link = self.transport if self.chaos_seed is None else f"wire-chaos{self.chaos_seed}"
        flags = [flag for flag in ("speeds", "traced", "durable", "elastic") if getattr(self, flag)]
        return "-".join([self.name, f"{self.n_workcells}wc", f"{self.n_ot2}ot2",
                         self.assignment, link] + flags)


def draw_configurations(seed: int = 2026, n: int = 48):
    """``n`` seeded draws; policy and transport cycle so both are balanced."""
    rng = np.random.default_rng(seed)
    draws = []
    for index in range(n):
        assignment = ASSIGNMENT_POLICIES[index % len(ASSIGNMENT_POLICIES)]
        transport = ("sim", "wire")[(index // len(ASSIGNMENT_POLICIES)) % 2]
        n_workcells = int(rng.integers(1, 4))
        elastic = assignment != "static" and bool(rng.random() < 0.5)
        speeds = None if rng.random() >= 0.5 else tuple(
            tuple((module, float(rng.choice((0.5, 1.0, 2.0, 2.5))))
                  for module in ("ot2", "pf400", "sciclops"))
            for _ in range(n_workcells + elastic)
        )
        chaos = transport == "wire" and rng.random() < 0.3
        chaos_seed = int(rng.integers(1, 10_000)) if chaos else None
        draws.append(Draw(
            job=JOBS[int(rng.integers(len(JOBS)))], n_workcells=n_workcells,
            n_ot2=int(rng.integers(1, 3)), assignment=assignment, transport=transport,
            chaos_seed=chaos_seed, speeds=speeds, traced=bool(rng.random() < 0.5),
            durable=bool(rng.random() < 0.5), elastic=elastic, name=f"draw{index:02d}",
        ))
    return draws


DRAWS = draw_configurations()
SOAK = Draw(job=JOBS[0], n_workcells=2, transport="wire")
FIXED = [replace(SOAK, name="fixed-clean")] + [
    replace(SOAK, chaos_seed=seed, name="fixed") for seed in (101, 202, 303)
]


def job_kwargs(job):
    n_runs, samples_per_run, batch_size, seed = job
    return dict(n_runs=n_runs, samples_per_run=samples_per_run, batch_size=batch_size,
                seed=seed, experiment_id="oracle")


def execute(draw: Draw, store_dir):
    """Run ``draw``; returns its campaign, fingerprint, chaos schedule and trace."""
    chaos = None if draw.chaos_seed is None else ChaosSchedule(draw.chaos_seed)
    portal = DurableDataPortal(store_dir) if draw.durable else DataPortal()
    kwargs = dict(job_kwargs(draw.job), portal=portal, n_ot2=draw.n_ot2,
                  assignment=draw.assignment)
    speeds = None if draw.speeds is None else [dict(profile) for profile in draw.speeds]
    session = None
    with ExitStack() as stack:
        stack.callback(portal.close)
        if draw.traced:
            session = stack.enter_context(obs.observed())
        if draw.elastic:
            campaign = run_elastic(draw, kwargs, speeds, chaos, stack)
        else:
            campaign = run_campaign(n_workcells=draw.n_workcells, module_speeds=speeds,
                                    transport=draw.transport, speedup=SPEEDUP, chaos=chaos,
                                    **kwargs)
        return campaign, campaign_fingerprint(campaign), chaos, session


def run_elastic(draw: Draw, kwargs, speeds, chaos, stack: ExitStack):
    """Run ``draw`` on a fleet it builds itself and reshapes mid-campaign."""

    def build_engine(workcell):
        if draw.transport == "sim":
            return ConcurrentWorkflowEngine(workcell)
        registry = DriverRegistry.wire(
            workcell, speedup=SPEEDUP, name=f"wire[{workcell.name}]", chaos=chaos
        )
        stack.callback(registry.close)
        return ConcurrentWorkflowEngine(workcell, drivers=registry)

    n_runs, samples_per_run, batch_size, seed = draw.job
    stock = workcell_stock(campaign_configs(
        n_runs, samples_per_run, experiment_id="oracle", targets=None, batch_size=batch_size,
        solver="evolutionary", measurement="direct", seed=seed,
    ))
    profiles = ModuleSpeedProfile.broadcast(speeds, draw.n_workcells + 1)
    fleet = MultiWorkcellCoordinator.build_color_picker_fleet(
        draw.n_workcells, seed=seed, n_ot2=draw.n_ot2, engine_factory=build_engine,
        module_speeds=profiles[:-1], **stock,
    )
    completed = []

    def reshape(completion):
        completed.append(completion.job_index)
        if len(completed) == 1:
            engine = fleet.build_color_picker_shard(
                fleet.n_workcells, seed=seed, n_ot2=draw.n_ot2,
                engine_factory=build_engine, profile=profiles[-1], **stock,
            )
            fleet.attach_workcell(engine, lanes=engine.workcell.ot2_barty_pairs()[: draw.n_ot2])
        elif len(completed) == 2:
            active = [s.shard_id for s in fleet.status().shards if s.state == "active"]
            fleet.drain_workcell(active[0])

    campaign = run_campaign(coordinator=fleet, on_run_complete=reshape, **kwargs)
    events = [event["event"] for event in fleet.fleet_events]
    assert events.count("workcell-attached") == 1 and "drain-requested" in events
    return campaign


@lru_cache(maxsize=None)
def baseline(job):
    """The one-lane simulated fingerprint of ``job``."""
    return campaign_fingerprint(run_campaign(portal=DataPortal(), **job_kwargs(job)))


@lru_cache(maxsize=None)
def sim_makespan(draw: Draw) -> float:
    return execute(draw, None)[0].makespan_s


def check(draw: Draw, store_dir):
    campaign, fingerprint, chaos, session = execute(draw, store_dir)
    mismatches = _diff_fingerprints(baseline(draw.job), fingerprint)
    assert not mismatches, f"{draw.id} changed the science:\n" + "\n".join(mismatches)
    reference = replace(draw, transport="sim", chaos_seed=None, traced=False, durable=False)
    if reference != draw:
        assert campaign.makespan_s == sim_makespan(reference), draw.id
    if draw.transport == "wire":
        stats = campaign.transport_stats
        assert stats.timed_out == 0 and stats.delivered > 0, stats
    if chaos is not None:
        assert chaos.faults_injected > 0, f"chaos seed {draw.chaos_seed} injected nothing"
    if session is not None:
        started, ended = session.tracer.counts()
        assert started == ended > 0
    return campaign


@pytest.mark.parametrize("draw", DRAWS, ids=[draw.id for draw in DRAWS])
def test_execution_configuration_keeps_the_science(draw, tmp_path):
    check(draw, tmp_path)


@pytest.mark.parametrize("draw", FIXED, ids=[draw.id for draw in FIXED])
def test_soak_shape_keeps_the_science(draw, tmp_path):
    stats = check(draw, tmp_path).transport_stats
    if draw.chaos_seed is not None:
        # Chaos really happened; it just was not observable in the science.
        assert stats.retries + stats.crc_errors + stats.resyncs > 0


def test_draws_cover_every_axis():
    def values(attribute):
        return {getattr(draw, attribute) for draw in DRAWS}

    assert values("n_workcells") == {1, 2, 3} and values("n_ot2") == {1, 2}
    assert values("assignment") == set(ASSIGNMENT_POLICIES)
    assert values("transport") == {"sim", "wire"} and values("job") == set(JOBS)
    for flag in ("chaos_seed", "speeds", "traced", "durable", "elastic"):
        assert {bool(value) for value in values(flag)} == {False, True}, flag
    assert len({draw.id for draw in DRAWS + FIXED}) == len(DRAWS) + len(FIXED)
