"""The bench subsystem: committed trajectory files stay valid, the runner's
schema round-trips, and the comparison logic judges regressions correctly.

``tools/check_bench.py`` runs standalone in the CI ``bench`` job; mirroring
it here means a malformed committed ``BENCH_<area>.json`` (or one whose
recorded hot-path speedup falls below the optimisation pass's claimed
floor) fails the tier-1 suite too.  The scenario smoke tests run heavily
scaled-down configs -- the bench's correctness (equivalence guards, schema,
science digests) is the same at any scale; only the absolute numbers need
the full pinned sizes.
"""

import json
import math
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_bench import CORE_AREAS, check_all, check_bench_file  # noqa: E402

from repro import bench as bench_package
from repro.bench import (
    AREA_ORDER,
    AreaResult,
    SCHEMA_VERSION,
    area_payload,
    bench_filename,
    compare_results,
    load_bench_file,
    run_area,
    run_bench,
    write_results,
)
from repro.bench.runner import MetricDelta


class TestCommittedFiles:
    def test_committed_bench_files_valid(self):
        problems = check_all(REPO_ROOT)
        assert problems == [], "\n".join(problems)

    def test_core_areas_all_committed(self):
        for area in CORE_AREAS:
            assert (REPO_ROOT / bench_filename(area)).exists(), area

    def test_committed_hot_paths_clear_the_floor(self):
        # The acceptance claim of the optimisation pass, re-read from disk.
        for area in CORE_AREAS:
            data = load_bench_file(REPO_ROOT / bench_filename(area))
            assert any(entry["speedup"] >= 1.3 for entry in data["hot_paths"]), area


class TestCheckBenchFile:
    def _valid_payload(self):
        result = run_area("portal", repeats=1, scale=0.02)
        return area_payload(result, repeats=1, root=REPO_ROOT)

    def test_accepts_fresh_payload(self, tmp_path):
        payload = self._valid_payload()
        path = tmp_path / "BENCH_portal.json"
        path.write_text(json.dumps(payload))
        assert check_bench_file(path, root=REPO_ROOT) == []

    def test_rejects_missing_keys_and_bad_values(self, tmp_path):
        payload = self._valid_payload()
        del payload["machine"]
        path = tmp_path / "BENCH_portal.json"
        path.write_text(json.dumps(payload))
        assert any("machine" in problem for problem in check_bench_file(path, root=REPO_ROOT))

        payload = self._valid_payload()
        payload["metrics"]["rows_per_s_ingest"]["value"] = float("nan")
        path.write_text(json.dumps(payload).replace("NaN", '"oops"'))
        assert any("rows_per_s_ingest" in p for p in check_bench_file(path, root=REPO_ROOT))

    def test_negative_values_only_for_signed_metrics(self, tmp_path):
        payload = self._valid_payload()
        payload["metrics"]["rows_per_s_ingest"]["value"] = -1.0
        path = tmp_path / "BENCH_portal.json"
        path.write_text(json.dumps(payload))
        assert any("non-negative" in p for p in check_bench_file(path, root=REPO_ROOT))

        payload["metrics"]["rows_per_s_ingest"]["signed"] = True
        path.write_text(json.dumps(payload))
        assert check_bench_file(path, root=REPO_ROOT) == []

    def test_rejects_wrong_filename_schema_and_future_stamp(self, tmp_path):
        payload = self._valid_payload()
        path = tmp_path / "BENCH_vision.json"
        path.write_text(json.dumps(payload))
        assert any("filename" in p for p in check_bench_file(path, root=REPO_ROOT))

        payload = self._valid_payload()
        payload["schema_version"] = 99
        path = tmp_path / "BENCH_portal.json"
        path.write_text(json.dumps(payload))
        assert any("schema_version" in p for p in check_bench_file(path, root=REPO_ROOT))

        payload = self._valid_payload()
        payload["created_utc"] = "2999-01-01T00:00:00Z"
        path.write_text(json.dumps(payload))
        assert any("future" in p for p in check_bench_file(path, root=REPO_ROOT))

    def test_rejects_unprovenanced_or_inconsistent_speedup(self, tmp_path):
        payload = self._valid_payload()
        payload["git_sha"] = "unknown"
        path = tmp_path / "BENCH_portal.json"
        path.write_text(json.dumps(payload))
        assert any("provenance" in p for p in check_bench_file(path, root=REPO_ROOT))

        payload = self._valid_payload()
        payload["hot_paths"] = [
            {"name": "fake", "baseline_s": 2.0, "optimised_s": 1.0, "speedup": 5.0, "unit": "s/op"}
        ]
        path.write_text(json.dumps(payload))
        assert any("inconsistent" in p for p in check_bench_file(path, root=REPO_ROOT))


class TestRunnerSmoke:
    """Tiny-scale scenario runs: every area produces a valid, self-consistent
    document and its in-run equivalence guards hold."""

    @pytest.mark.parametrize("area", [a for a in AREA_ORDER if a != "campaign"])
    def test_fast_areas_produce_valid_payloads(self, area, tmp_path):
        result = run_area(area, repeats=1, scale=0.01)
        assert result.area == area
        assert result.metrics
        payload = area_payload(result, repeats=1, root=REPO_ROOT)
        assert payload["schema_version"] == SCHEMA_VERSION
        path = tmp_path / bench_filename(area)
        path.write_text(json.dumps(payload))
        problems = [p for p in check_bench_file(path, root=REPO_ROOT) if "no hot path at >=" not in p]
        assert problems == [], "\n".join(problems)

    def test_campaign_area_smoke(self, tmp_path):
        # The smallest campaign the scenario allows: 32 runs on 4 workcells.
        result = run_area("campaign", repeats=1, scale=0.001)
        assert result.config["n_runs"] == 32
        assert result.config["n_workcells"] == 4
        assert result.metrics["makespan_h"]["value"] > 0
        assert result.science["campaign_fingerprint_sha256"]
        assert result.hot_paths[0]["baseline_s"] > 0

    def test_obs_area_reports_paired_on_overhead_with_its_spread(self):
        result = run_area("obs", repeats=1, scale=0.01)
        on = result.metrics["tracing_on_overhead_pct"]
        assert on["signed"] is True and math.isfinite(on["value"])
        assert result.metrics["tracing_on_overhead_iqr_pct"]["value"] >= 0

    def test_unknown_area_rejected(self):
        with pytest.raises(ValueError, match="unknown bench area"):
            run_area("nope")
        with pytest.raises(ValueError, match="unknown bench area"):
            run_bench(["events", "nope"])


class TestCompare:
    def test_round_trip_compare_is_clean(self, tmp_path):
        results = run_bench(["portal"], repeats=1, scale=0.02)
        write_results(results, repeats=1, directory=tmp_path)
        comparison = compare_results(results, baseline_dir=tmp_path)
        assert comparison["skipped"] == {}
        assert comparison["deltas"]
        assert all(not d.is_regression(0.15) for d in comparison["deltas"])

    def test_config_change_restarts_trajectory(self, tmp_path):
        results = run_bench(["portal"], repeats=1, scale=0.02)
        write_results(results, repeats=1, directory=tmp_path)
        changed = run_bench(["portal"], repeats=1, scale=0.04)
        comparison = compare_results(changed, baseline_dir=tmp_path)
        assert "portal" in comparison["skipped"]
        assert comparison["deltas"] == []

    def test_missing_baseline_is_skipped_not_judged(self, tmp_path):
        results = run_bench(["portal"], repeats=1, scale=0.02)
        comparison = compare_results(results, baseline_dir=tmp_path)
        assert comparison["skipped"] == {"portal": "no committed baseline file"}

    def test_changed_science_digest_fails_the_compare(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        def fabricated(fingerprint):
            return AreaResult(
                area="campaign",
                config={"n_runs": 4},
                metrics={"makespan_h": {"value": 2.0, "unit": "h", "direction": "lower"}},
                science={"campaign_fingerprint_sha256": fingerprint, "shards": {"lookahead": (1, 0)}},
            )

        write_results([fabricated("aaaa")], repeats=1, directory=tmp_path)
        same = compare_results([fabricated("aaaa")], baseline_dir=tmp_path)
        assert [(c.key, c.differs) for c in same["science"]] == [
            ("campaign_fingerprint_sha256", False),
            ("shards", False),
        ]
        changed = compare_results([fabricated("bbbb")], baseline_dir=tmp_path)
        assert [c.key for c in changed["science"] if c.differs] == ["campaign_fingerprint_sha256"]
        # The metrics alone would pass: only the digest moved.
        assert not any(d.is_regression(0.15) for d in changed["deltas"])

        for fingerprint, code in (("aaaa", 0), ("bbbb", 1)):
            monkeypatch.setattr(
                bench_package, "run_bench", lambda *a, fp=fingerprint, **k: [fabricated(fp)]
            )
            assert main(["bench", "--areas", "campaign", "--compare", str(tmp_path)]) == code
            out = capsys.readouterr().out
            assert ("SCIENCE DIFFERS" in out) == (code == 1)

    def test_compare_json_carries_deltas_and_science_checks(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        def fabricated(digest):
            return AreaResult(
                area="portal",
                config={"n_records": 4},
                metrics={"rows_per_s_ingest": {"value": 100.0, "unit": "rows/s", "direction": "higher"}},
                science={"portal_rows_sha256": digest},
            )

        write_results([fabricated("aaaa")], repeats=1, directory=tmp_path)
        monkeypatch.setattr(bench_package, "run_bench", lambda *a, **k: [fabricated("bbbb")])
        assert main(["bench", "--areas", "portal", "--compare", str(tmp_path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert [result["science"] for result in document["results"]] == [
            {"portal_rows_sha256": "bbbb"}
        ]
        compare = document["compare"]
        assert compare["science"] == [
            {
                "area": "portal",
                "key": "portal_rows_sha256",
                "baseline": "aaaa",
                "current": "bbbb",
                "differs": True,
            }
        ]
        [delta] = compare["deltas"]
        assert (delta["metric"], delta["change"], delta["regression"]) == (
            "rows_per_s_ingest",
            0.0,
            False,
        )
        assert (compare["regressions"], compare["science_diffs"], compare["skipped"]) == (0, 1, {})

    def test_delta_direction_semantics(self):
        slower_rate = MetricDelta(
            area="portal", metric="rows_per_s_ingest",
            baseline=100.0, current=50.0, unit="rows/s", direction="higher",
        )
        assert slower_rate.change == pytest.approx(-0.5)
        assert slower_rate.is_regression(0.15)
        longer_makespan = MetricDelta(
            area="campaign", metric="makespan_h",
            baseline=10.0, current=12.0, unit="h", direction="lower",
        )
        assert longer_makespan.change == pytest.approx(-0.2)
        assert longer_makespan.is_regression(0.15)
        shorter_makespan = MetricDelta(
            area="campaign", metric="makespan_h",
            baseline=10.0, current=9.0, unit="h", direction="lower",
        )
        assert shorter_makespan.change == pytest.approx(0.1)
        assert not shorter_makespan.is_regression(0.15)
