"""Tracing under chaos: the telemetry layer may observe, never perturb.

For each of three chaos seeds, an instrumented wire campaign must

* balance its spans (every start has an end, nothing leaks open),
* record exactly one delivered-completion (``bridge.deliver``) span per
  submitted action,
* surface the wire's recovery work — retries and resyncs — as spans whose
  counts match the transport's own recovery counters.

That tracing leaves the science unchanged is checked by
``tests/properties/test_execution_oracle.py``.
"""

import pytest

from repro import obs
from repro.core.campaign import run_campaign
from repro.publish.portal import DataPortal
from repro.wei.chaos.schedule import ChaosSchedule

#: The chaos soak shape (small enough for tier-1).
CAMPAIGN = dict(
    n_runs=3,
    samples_per_run=4,
    batch_size=2,
    n_workcells=2,
    solver="evolutionary",
    seed=816,
    experiment_id="obs-soak",
)
SPEEDUP = 500_000.0


@pytest.fixture(scope="class", params=(101, 202, 303))
def chaos_seed(request):
    """Class-scoped seed parametrisation: one campaign per seed, not per test."""
    return request.param


class TestTracedChaosCampaign:
    @pytest.fixture(scope="class")
    def traced(self, chaos_seed):
        """One instrumented chaos campaign per seed, shared by the class."""
        with obs.observed() as session:
            campaign = run_campaign(
                portal=DataPortal(),
                transport="wire",
                speedup=SPEEDUP,
                chaos=ChaosSchedule(chaos_seed),
                **CAMPAIGN,
            )
        by_name = {}
        for span_obj in session.spans:
            by_name.setdefault(span_obj.name, []).append(span_obj)
        return session, campaign, by_name

    def test_spans_are_balanced(self, traced, chaos_seed):
        session, _, _ = traced
        started, ended = session.tracer.counts()
        assert started == ended > 0
        assert session.tracer.open_spans() == 0
        assert session.tracer.dropped == 0

    def test_every_action_delivers_exactly_one_completion_span(self, traced, chaos_seed):
        _, campaign, by_name = traced
        deliver_tickets = [s.attrs["ticket_id"] for s in by_name["bridge.deliver"]]
        submit_tickets = [s.attrs["ticket_id"] for s in by_name["wire.submit"]]
        # Exactly one delivery per submitted action, despite duplicated /
        # retransmitted completions on the wire.
        assert len(deliver_tickets) == len(set(deliver_tickets))
        assert sorted(deliver_tickets) == sorted(submit_tickets)
        assert len(deliver_tickets) == campaign.transport_stats.delivered
        assert len(by_name["action"]) == len(deliver_tickets)

    def test_retries_and_resyncs_appear_as_child_spans(self, traced, chaos_seed):
        _, campaign, by_name = traced
        stats = campaign.transport_stats
        assert stats.retries + stats.resyncs > 0, (
            f"chaos seed {chaos_seed} injected no recovery work; "
            "the matrix no longer exercises the wire"
        )
        span_ids = {s.span_id: s for spans in by_name.values() for s in spans}
        retry_frames = [
            s
            for s in by_name.get("wire.frame", [])
            if s.attrs["kind"] == "SUBMIT" and s.attrs["attempt"] > 0
        ]
        assert len(retry_frames) == stats.retries
        for frame in retry_frames:
            parent = span_ids.get(frame.parent_id)
            assert parent is not None and parent.name == "wire.submit"
        assert len(by_name.get("wire.resync", [])) == stats.resyncs

    def test_chaos_injections_are_trace_events(self, traced, chaos_seed):
        _, _, by_name = traced
        injections = by_name.get("chaos.inject", [])
        assert injections, f"seed {chaos_seed} recorded no chaos.inject events"
        span_ids = {s.span_id: s for spans in by_name.values() for s in spans}
        parents = {
            span_ids[e.parent_id].name for e in injections if e.parent_id in span_ids
        }
        # Injections fire inside the transmitting thread's open frame span.
        assert parents <= {"wire.frame"}

    def test_causal_tree_reaches_the_campaign_root(self, traced, chaos_seed):
        _, _, by_name = traced
        (campaign_span,) = by_name["campaign"]
        span_ids = {s.span_id: s for spans in by_name.values() for s in spans}
        for run_span in by_name["run"]:
            assert run_span.parent_id == campaign_span.span_id
        # Every action chains up to the campaign root through run/workflow.
        for action in by_name["action"]:
            node, hops = action, 0
            while node.parent_id is not None and hops < 10:
                node = span_ids[node.parent_id]
                hops += 1
            assert node is campaign_span
