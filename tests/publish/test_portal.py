"""Tests for the data portal contract, run against both backends.

Tests taking the ``portal`` fixture (see ``conftest.py``) run once per
backend -- in-memory and durable -- so the legacy contract pinned here
also governs the on-disk store.  :class:`DataPortal` persists nothing;
``TestPersistence`` round-trips the durable store through a reopen, and its
segment-level persistence is covered in ``test_store.py`` /
``test_store_recovery.py``.
"""

import pytest

from repro.publish.portal import DataPortal, DuplicateRunError, PortalQueryError
from repro.publish.records import RunRecord, SampleRecord
from repro.publish.store import DurableDataPortal


def make_record(experiment="exp", run_index=0, solver="evolutionary", best=20.0):
    return RunRecord(
        experiment_id=experiment,
        run_id=f"{experiment}-run{run_index}",
        run_index=run_index,
        target_rgb=[120, 120, 120],
        solver=solver,
        samples=[
            SampleRecord(
                sample_index=i,
                well=f"A{i + 1}",
                plate_barcode="p",
                volumes_ul={"cyan": 5.0},
                measured_rgb=[100 + i, 100, 100],
                score=best + i,
            )
            for i in range(3)
        ],
        metadata={"batch_size": 1},
    )


class TestIngestAndQuery:
    def test_ingest_and_get(self, portal):
        record = make_record()
        portal.ingest(record)
        assert portal.n_runs == 1
        assert portal.n_experiments == 1
        assert portal.get_run(record.run_id).run_id == record.run_id

    def test_duplicate_run_id_raises(self, portal):
        portal.ingest(make_record(best=30.0))
        with pytest.raises(DuplicateRunError, match="exp-run0"):
            portal.ingest(make_record(best=10.0))
        # The stored record is untouched by the rejected ingest.
        assert portal.n_runs == 1
        assert portal.get_run("exp-run0").best_score == 30.0
        assert portal.version("exp-run0") == 1

    def test_overwrite_is_an_explicit_versioned_replace(self, portal):
        portal.ingest(make_record(best=30.0))
        portal.ingest(make_record(best=10.0), overwrite=True)
        assert portal.n_runs == 1
        assert portal.get_run("exp-run0").best_score == 10.0
        assert portal.version("exp-run0") == 2

    def test_version_of_unknown_run_raises(self, portal):
        with pytest.raises(PortalQueryError):
            portal.version("nope")

    def test_overwrite_across_experiments_leaves_no_stale_state(self, portal):
        moved = make_record("exp-a")
        portal.ingest(moved)
        replacement = make_record("exp-b")
        replacement.run_id = moved.run_id
        portal.ingest(replacement, overwrite=True)
        assert portal.experiment_ids() == ["exp-b"]
        assert portal.n_experiments == 1
        assert portal.get_run(moved.run_id).experiment_id == "exp-b"
        with pytest.raises(PortalQueryError):
            portal.get_experiment("exp-a")

    def test_unknown_queries_raise(self, portal):
        with pytest.raises(PortalQueryError):
            portal.get_run("nope")
        with pytest.raises(PortalQueryError):
            portal.get_experiment("nope")

    def test_invalid_record_rejected(self, portal):
        with pytest.raises(ValueError):
            portal.ingest(RunRecord(experiment_id="", run_id="x", run_index=0, target_rgb=[0, 0, 0]))

    def test_search_filters(self, portal):
        portal.ingest(make_record("exp-a", 0, solver="evolutionary", best=5.0))
        portal.ingest(make_record("exp-a", 1, solver="bayesian", best=50.0))
        portal.ingest(make_record("exp-b", 0, solver="evolutionary", best=8.0))
        assert len(portal.search(experiment_id="exp-a")) == 2
        assert len(portal.search(solver="evolutionary")) == 2
        assert len(portal.search(max_best_score=10.0)) == 2
        assert len(portal.search(experiment_id="exp-a", solver="bayesian")) == 1
        assert len(portal.search(metadata={"batch_size": 1})) == 3
        assert portal.search(metadata={"batch_size": 64}) == []


class TestPagination:
    def test_pages_cover_the_result_set_exactly_once(self, portal):
        for experiment in ("exp-a", "exp-b"):
            for index in range(5):
                portal.ingest(make_record(experiment, index))
        seen = []
        cursor = None
        pages = 0
        while True:
            page = portal.search_page(limit=3, cursor=cursor)
            assert len(page) <= 3
            seen.extend(record.run_id for record in page)
            pages += 1
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert pages == 4
        assert seen == sorted(record.run_id for record in portal.search())
        assert len(set(seen)) == 10

    def test_page_order_is_stable_total_order(self, portal):
        # Ingest out of order; pages come back in (experiment, run_index, run_id).
        portal.ingest(make_record("exp-b", 1))
        portal.ingest(make_record("exp-a", 2))
        portal.ingest(make_record("exp-a", 0))
        page = portal.search_page(limit=10)
        assert [record.run_id for record in page] == ["exp-a-run0", "exp-a-run2", "exp-b-run1"]
        assert page.next_cursor is None

    def test_filters_apply_within_pages(self, portal):
        for index in range(6):
            portal.ingest(make_record("exp", index, solver="bayesian" if index % 2 else "evolutionary"))
        page = portal.search_page(solver="bayesian", limit=2)
        assert [record.run_index for record in page] == [1, 3]
        rest = portal.search_page(solver="bayesian", limit=2, cursor=page.next_cursor)
        assert [record.run_index for record in rest] == [5]
        assert rest.next_cursor is None

    def test_exact_final_page_has_no_next_cursor(self, portal):
        for index in range(4):
            portal.ingest(make_record("exp", index))
        page = portal.search_page(limit=4)
        assert len(page) == 4
        assert page.next_cursor is None

    def test_ingest_between_pages_never_duplicates(self, portal):
        for index in range(4):
            portal.ingest(make_record("exp-b", index))
        first = portal.search_page(limit=2)
        # New records land both before and after the cursor position.
        portal.ingest(make_record("exp-a", 0))
        portal.ingest(make_record("exp-c", 0))
        rest = []
        cursor = first.next_cursor
        while cursor is not None:
            page = portal.search_page(limit=2, cursor=cursor)
            rest.extend(record.run_id for record in page)
            cursor = page.next_cursor
        walked = [record.run_id for record in first] + rest
        # Each record at most once; everything at-or-after the cursor seen.
        assert len(walked) == len(set(walked))
        assert "exp-c-run0" in walked
        assert "exp-b-run3" in walked

    def test_bad_limit_rejected(self, portal):
        with pytest.raises(ValueError):
            portal.search_page(limit=0)

    def test_malformed_cursor_raises_query_error(self, portal):
        portal.ingest(make_record())
        with pytest.raises(PortalQueryError):
            portal.search_page(cursor="not-a-cursor")

    def test_page_to_dict_is_json_shaped(self, portal):
        portal.ingest(make_record())
        payload = portal.search_page(limit=1).to_dict()
        assert payload["next_cursor"] is None
        assert payload["records"][0]["run_id"] == "exp-run0"


class TestViews:
    def test_experiment_summary_matches_figure3_shape(self, portal):
        for index in range(12):
            portal.ingest(make_record("acdc", index))
        summary = portal.summary_view("acdc")
        assert summary["n_runs"] == 12
        assert summary["total_samples"] == 36
        assert summary["samples_per_run"] == [3] * 12
        assert summary["solvers"] == ["evolutionary"]

    def test_detail_view_lists_samples(self, portal):
        record = make_record()
        portal.ingest(record)
        detail = portal.detail_view(record.run_id)
        assert detail["n_samples"] == 3
        assert detail["best_sample"]["well"] == "A1"
        assert len(detail["samples"]) == 3

    def test_experiment_runs_sorted_by_index(self, portal):
        portal.ingest(make_record("exp", 2))
        portal.ingest(make_record("exp", 0))
        portal.ingest(make_record("exp", 1))
        experiment = portal.get_experiment("exp")
        assert [run.run_index for run in experiment.runs] == [0, 1, 2]


class TestReadsAreFresh:
    """Every read hands out a record of its own on both backends: mutating
    what one read returned changes neither the portal nor the next read."""

    def test_mutating_a_read_record_leaves_the_portal_untouched(self, portal):
        original = make_record()
        original.metadata["tags"] = {"lane": [1]}
        portal.ingest(make_record())
        portal.ingest(original, overwrite=True)
        expected = original.to_dict()

        first = portal.get_run("exp-run0")
        first.samples[0].score = -5.0
        first.samples[1].volumes_ul["cyan"] = -1.0
        first.target_rgb[0] = -1.0
        first.metadata["tags"]["lane"].append(2)
        assert portal.get_run("exp-run0").to_dict() == expected
        assert portal.get_run("exp-run0").best_score == 20.0
        assert portal.search(max_best_score=0.0) == []

        [found] = portal.search()
        found.samples.pop()
        found.timings["mix_s"] = 1.0
        [paged] = portal.search_page().records
        paged.metadata["batch_size"] = 99
        [run] = portal.get_experiment("exp").runs
        run.samples.clear()
        assert portal.get_run("exp-run0").to_dict() == expected
        assert [record.to_dict() for record in portal.search()] == [expected]
        assert portal.detail_view("exp-run0")["n_samples"] == 3


class TestPersistence:
    def test_round_trip_through_reopen(self, portal_store_dir):
        with DurableDataPortal(portal_store_dir) as portal:
            for index in range(3):
                portal.ingest(make_record("exp", index))
        with DurableDataPortal(portal_store_dir) as reopened:
            assert reopened.n_runs == 3
            assert reopened.get_experiment("exp").n_samples == 9

    def test_overwrite_across_experiments_then_reopen(self, portal_store_dir):
        with DurableDataPortal(portal_store_dir) as portal:
            moved = make_record("exp-a")
            portal.ingest(moved)
            replacement = make_record("exp-b")
            replacement.run_id = moved.run_id
            portal.ingest(replacement, overwrite=True)
        # The reopened store holds the run once, under its new experiment.
        with DurableDataPortal(portal_store_dir) as reopened:
            assert reopened.n_runs == 1
            assert reopened.get_run(moved.run_id).experiment_id == "exp-b"
            with pytest.raises(PortalQueryError):
                reopened.get_experiment("exp-a")
