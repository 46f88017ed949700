"""Crash-recovery tests for the durable portal store.

A crash can leave the newest segment torn mid-record; bad disks or editors
can corrupt any line.  The contract: **open never raises** -- replay
recovers every complete record, reports each damaged byte range in
``recovery`` (the torn tail explicitly), new appends go to a fresh
segment rather than extending damage, and ``compact()`` restores a clean
store.  No silent data loss: what was durably written and intact is
always served.

Stores are created through ``portal_store_dir`` so a failing test's exact
segment bytes are captured as artifacts in CI (see ``conftest.py``).
"""

import json
import zlib

import pytest

from repro.publish.store import DurableDataPortal, _canonical_record_json, _envelope_line
from tests.publish.test_portal import make_record


def build_store(directory, n_records=6, segment_max_bytes=1024):
    """A small multi-segment store; returns the run_ids written."""
    store = DurableDataPortal(directory, segment_max_bytes=segment_max_bytes)
    run_ids = []
    for index in range(n_records):
        record = make_record("exp", index)
        store.ingest(record)
        run_ids.append(record.run_id)
    store.close()
    return run_ids


def segments(directory):
    return sorted(directory.glob("segment-*.jsonl"))


def truncate_tail(path, keep_fraction=0.5):
    """Chop the last line of ``path`` mid-record (no trailing newline)."""
    data = path.read_bytes()
    last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
    cut = last_line_start + max(1, int((len(data) - last_line_start) * keep_fraction))
    path.write_bytes(data[:cut])
    return data[last_line_start:]


class TestTornTail:
    def test_truncated_final_record_is_reported_not_fatal(self, portal_store_dir):
        run_ids = build_store(portal_store_dir)
        tail = segments(portal_store_dir)[-1]
        truncate_tail(tail)
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        # Open never raises; every *complete* record is served.
        assert not store.recovery.clean
        torn = store.recovery.torn_tail
        assert torn is not None and torn.segment == tail.name
        assert "torn tail" in torn.reason
        recovered = {record.run_id for record in store.search()}
        assert recovered == set(run_ids) - {run_ids[-1]}
        store.close()

    def test_truncation_on_segment_boundary_loses_nothing(self, portal_store_dir):
        run_ids = build_store(portal_store_dir)
        paths = segments(portal_store_dir)
        assert len(paths) > 1
        # Crash exactly between segments: the newest segment vanishes whole.
        lost = [
            json.loads(line)["record"]["run_id"]
            for line in paths[-1].read_text().splitlines()
        ]
        paths[-1].unlink()
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        # Clean open: every surviving byte is a complete record.
        assert store.recovery.clean
        assert {record.run_id for record in store.search()} == set(run_ids) - set(lost)
        store.close()

    def test_new_appends_after_torn_tail_start_a_fresh_segment(self, portal_store_dir):
        build_store(portal_store_dir)
        damaged = segments(portal_store_dir)[-1]
        truncate_tail(damaged)
        damaged_bytes = damaged.read_bytes()
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        store.ingest(make_record("fresh", 0))
        store.close()
        # The damaged segment was not extended; the write went elsewhere.
        assert damaged.read_bytes() == damaged_bytes
        assert len(segments(portal_store_dir)) >= 2
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert "fresh-run0" in {record.run_id for record in reopened.search()}
        reopened.close()

    def test_torn_overwrite_serves_previous_version(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record(best=30.0))
        store.ingest(make_record(best=10.0), overwrite=True)
        store.close()
        tail = segments(portal_store_dir)[-1]
        truncate_tail(tail)  # tear the overwrite envelope
        store = DurableDataPortal(portal_store_dir)
        # The overwrite never became durable; the run rolls back one version.
        assert store.get_run("exp-run0").best_score == 30.0
        assert store.version("exp-run0") == 1
        store.close()


class TestCorruption:
    def test_corrupt_middle_line_skipped_and_reported(self, portal_store_dir):
        run_ids = build_store(portal_store_dir, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"@@@ not json @@@\n"
        path.write_bytes(b"".join(lines))
        store = DurableDataPortal(portal_store_dir)
        assert len(store.recovery.faults) == 1
        fault = store.recovery.faults[0]
        assert fault.reason == "unparseable envelope line"
        assert not fault.at_tail
        assert {record.run_id for record in store.search()} == set(run_ids) - {run_ids[2]}
        store.close()

    def test_bitflip_fails_crc_and_is_skipped(self, portal_store_dir):
        run_ids = build_store(portal_store_dir, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip one payload character: still valid JSON, wrong checksum.
        lines[1] = lines[1].replace(b'"well":"A1"', b'"well":"Z9"', 1)
        path.write_bytes(b"".join(lines))
        store = DurableDataPortal(portal_store_dir)
        assert [fault.reason for fault in store.recovery.faults] == ["record checksum mismatch"]
        assert {record.run_id for record in store.search()} == set(run_ids) - {run_ids[1]}
        store.close()

    def test_replay_resumes_after_damage(self, portal_store_dir):
        run_ids = build_store(portal_store_dir, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"{\n"  # damage the *first* line
        path.write_bytes(b"".join(lines))
        store = DurableDataPortal(portal_store_dir)
        # Everything after the damaged line still replays.
        assert {record.run_id for record in store.search()} == set(run_ids) - {run_ids[0]}
        store.close()


class TestCompactCrash:
    """A crash at *any* phase of compact()'s commit-marker protocol must
    leave exactly one complete copy: before the fsynced ``compact-commit``
    marker the renamed-aside originals win (roll back), after it the
    staged ``.compact-tmp`` segments win (roll forward)."""

    def build_with_overwrites(self, directory):
        """6 runs, each overwritten once -- so the compacted form has
        measurably fewer envelope lines (6) than the original (12)."""
        store = DurableDataPortal(directory, segment_max_bytes=1024)
        for index in range(6):
            store.ingest(make_record("exp", index))
        for index in range(6):
            store.ingest(make_record("exp", index, best=1.0), overwrite=True)
        expected = {record.run_id: record.to_dict() for record in store.search()}
        return store, expected

    def stage_compaction(self, store):
        """A complete, fsynced staging directory -- compact()'s phase 1."""
        working = store.directory / ".compact-tmp"
        store.snapshot(working)
        return working

    def assert_no_protocol_residue(self, directory):
        assert not (directory / ".compact-tmp").exists()
        assert not (directory / "compact-commit").exists()
        assert not list(directory.glob("segment-*.jsonl.old"))

    def test_crash_mid_rename_aside_rolls_back(self, portal_store_dir):
        store, expected = self.build_with_overwrites(portal_store_dir)
        self.stage_compaction(store)
        store.close()
        # Crash mid-phase-2: some originals renamed aside, some not.
        live = segments(portal_store_dir)
        assert len(live) > 1
        for path in live[::2]:
            path.rename(path.with_name(path.name + ".old"))
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert reopened.recovery.clean
        assert {r.run_id: r.to_dict() for r in reopened.search()} == expected
        assert reopened.version("exp-run0") == 2
        self.assert_no_protocol_residue(portal_store_dir)
        reopened.close()

    def test_crash_with_torn_staging_rolls_back(self, portal_store_dir):
        store, expected = self.build_with_overwrites(portal_store_dir)
        store.close()
        # Crash mid-phase-1: the staging directory is garbage, no marker.
        working = portal_store_dir / ".compact-tmp"
        working.mkdir()
        (working / "segment-000001.jsonl").write_bytes(b'{"torn')
        for path in segments(portal_store_dir):
            path.rename(path.with_name(path.name + ".old"))
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert reopened.recovery.clean
        assert {r.run_id: r.to_dict() for r in reopened.search()} == expected
        self.assert_no_protocol_residue(portal_store_dir)
        reopened.close()

    def test_crash_after_commit_marker_rolls_forward(self, portal_store_dir):
        store, expected = self.build_with_overwrites(portal_store_dir)
        self.stage_compaction(store)
        store.close()
        # Crash right after phase 3: marker durable, nothing renamed in.
        for path in segments(portal_store_dir):
            path.rename(path.with_name(path.name + ".old"))
        (portal_store_dir / "compact-commit").write_bytes(b"commit\n")
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert reopened.recovery.clean
        assert {r.run_id: r.to_dict() for r in reopened.search()} == expected
        assert reopened.version("exp-run0") == 2
        assert reopened.ingest_count == 12
        # The compacted form won: one live envelope per run.
        lines = sum(len(p.read_text().splitlines()) for p in segments(portal_store_dir))
        assert lines == 6
        self.assert_no_protocol_residue(portal_store_dir)
        reopened.close()

    def test_crash_mid_rename_in_rolls_forward(self, portal_store_dir):
        store, expected = self.build_with_overwrites(portal_store_dir)
        working = self.stage_compaction(store)
        store.close()
        for path in segments(portal_store_dir):
            path.rename(path.with_name(path.name + ".old"))
        (portal_store_dir / "compact-commit").write_bytes(b"commit\n")
        # Crash mid-phase-4: the first staged segment already renamed in.
        staged = sorted(working.glob("segment-*.jsonl"))
        staged[0].rename(portal_store_dir / staged[0].name)
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert reopened.recovery.clean
        assert {r.run_id: r.to_dict() for r in reopened.search()} == expected
        self.assert_no_protocol_residue(portal_store_dir)
        reopened.close()


class TestEnvelopeValidation:
    def test_bool_or_nonpositive_version_is_rejected(self, portal_store_dir):
        run_ids = build_store(portal_store_dir, n_records=3, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # The CRC covers only the record, so these envelopes still checksum:
        # the version *type* check alone must reject them.
        lines[0]["version"] = True
        lines[1]["version"] = 0
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = DurableDataPortal(portal_store_dir)
        assert [fault.reason for fault in store.recovery.faults] == [
            "envelope version invalid (True)",
            "envelope version invalid (0)",
        ]
        assert {record.run_id for record in store.search()} == {run_ids[2]}
        store.close()

    def test_checksummed_non_object_sample_is_a_fault(self, portal_store_dir):
        run_ids = build_store(portal_store_dir, n_records=2, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        lines[0]["record"]["samples"] = [1]
        lines[0]["crc"] = zlib.crc32(_canonical_record_json(lines[0]["record"]))
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        store = DurableDataPortal(portal_store_dir)
        [fault] = store.recovery.faults
        assert fault.reason.startswith("record schema invalid")
        assert {record.run_id for record in store.search()} == {run_ids[1]}
        store.close()


class TestRawByteChecksum:
    def test_line_with_non_canonical_bytes_but_matching_canonical_crc_replays(
        self, portal_store_dir
    ):
        """The CRC is checked over a line's raw record bytes first; a line
        re-serialised with spaces fails that check and is still accepted
        through the canonical re-encode.  Compaction writes it back
        canonically."""
        build_store(portal_store_dir, n_records=3, segment_max_bytes=1 << 20)
        path = segments(portal_store_dir)[0]
        canonical = path.read_bytes()
        path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in canonical.splitlines()))
        assert path.read_bytes() != canonical
        store = DurableDataPortal(portal_store_dir)
        assert store.recovery.clean
        assert store.recovery.records_replayed == 3
        assert [record.to_dict() for record in store.search()] == [
            make_record("exp", index).to_dict() for index in range(3)
        ]
        store.compact()
        store.close()
        assert segments(portal_store_dir)[0].read_bytes() == canonical

    @staticmethod
    def rewrite_first_record(directory, change):
        """Apply ``change`` to the first line's record and write the line
        back canonically, with a CRC over the changed bytes."""
        path = segments(directory)[0]
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[0])["record"]
        change(record)
        lines[0] = _envelope_line(_canonical_record_json(record), 1)
        path.write_bytes(b"".join(lines))

    @pytest.mark.parametrize(
        "change",
        [
            lambda record: record.update(samples=[1]),
            lambda record: record.update(run_index=None),
            lambda record: record.update(run_index="x"),
            lambda record: record["samples"][0].update(score="x"),
            lambda record: record["samples"][0].update(volumes_ul=[1.0]),
        ],
        ids=["non-object-sample", "null-run-index", "string-run-index", "string-score", "list-volumes"],
    )
    def test_canonical_line_with_invalid_values_is_a_fault(self, portal_store_dir, change):
        """A line that passes the raw-byte CRC is still refused when its
        values do not make a record, and the store opens and answers."""
        run_ids = build_store(portal_store_dir, n_records=2, segment_max_bytes=1 << 20)
        self.rewrite_first_record(portal_store_dir, change)
        store = DurableDataPortal(portal_store_dir)
        [fault] = store.recovery.faults
        assert fault.reason.startswith("record schema invalid")
        assert {record.run_id for record in store.search(max_best_score=1e9)} == {run_ids[1]}
        assert [page.run_id for page in store.search_page(limit=5)] == [run_ids[1]]
        store.close()

    def test_values_the_constructors_convert_are_read_converted(self, portal_store_dir):
        """A CRC-valid line whose values need the constructors' conversions
        (a score written as a string) replays, is read through them, and
        is written back converted by compaction."""
        run_ids = build_store(portal_store_dir, n_records=2, segment_max_bytes=1 << 20)
        expected = make_record("exp", 0).to_dict()
        score = expected["samples"][0]["score"]
        self.rewrite_first_record(
            portal_store_dir, lambda record: record["samples"][0].update(score=str(score))
        )
        store = DurableDataPortal(portal_store_dir)
        assert store.recovery.clean
        assert store.get_run(run_ids[0]).to_dict() == expected
        assert {record.run_id for record in store.search(max_best_score=1e9)} == set(run_ids)
        store.compact()
        store.close()
        line = segments(portal_store_dir)[0].read_bytes().splitlines()[0]
        assert json.loads(line)["record"] == expected


class TestCompactHeals:
    def test_compact_restores_a_clean_store(self, portal_store_dir):
        run_ids = build_store(portal_store_dir)
        tail = segments(portal_store_dir)[-1]
        truncate_tail(tail)
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        survivors = {record.run_id: record.to_dict() for record in store.search()}
        assert not store.recovery.clean
        store.compact()
        # The reloaded-in-place store is clean and byte-identical in content.
        assert store.recovery.clean
        assert {record.run_id: record.to_dict() for record in store.search()} == survivors
        store.close()
        reopened = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        assert reopened.recovery.clean
        assert reopened.recovery.records_replayed == len(run_ids) - 1
        assert {record.run_id: record.to_dict() for record in reopened.search()} == survivors
        reopened.close()
