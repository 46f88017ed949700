"""Durable-store-specific tests: reopen, segments, compaction, snapshots.

The shared portal contract is enforced on this backend by the parametrized
suites in ``test_portal.py``/``test_flows.py`` and the parity property
suite; this file pins what only the durable store has -- on-disk layout,
reopen semantics, maintenance operations, fsync accounting.
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.publish.portal import DuplicateRunError
from repro.publish.records import RunRecord, SampleRecord
from repro.publish.store import (
    _CANONICAL_ENCODER,
    FSYNC_POLICIES,
    DurableDataPortal,
    _envelope_line,
)
from tests.publish.test_portal import make_record


def reopen(store):
    """Close ``store`` and open a fresh portal on the same directory."""
    store.close()
    return DurableDataPortal(store.directory, segment_max_bytes=store.segment_max_bytes)


class TestReopen:
    def test_reopen_preserves_records_and_insertion_order(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=2048)
        for experiment in ("exp-b", "exp-a"):
            for index in range(3):
                store.ingest(make_record(experiment, index))
        reopened = reopen(store)
        assert reopened.recovery.clean
        assert reopened.recovery.records_replayed == 6
        assert reopened.n_runs == 6
        # Insertion order of experiments survives, like the dict backend.
        assert reopened.experiment_ids() == ["exp-b", "exp-a"]
        assert [r.run_id for r in reopened.search()] == [r.run_id for r in store.search()]
        reopened.close()

    def test_reopen_preserves_versions_and_ingest_count(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record(best=30.0))
        store.ingest(make_record(best=20.0), overwrite=True)
        store.ingest(make_record(best=10.0), overwrite=True)
        assert store.ingest_count == 3
        reopened = reopen(store)
        assert reopened.version("exp-run0") == 3
        assert reopened.ingest_count == 3
        assert reopened.get_run("exp-run0").best_score == 10.0
        # The duplicate guard still counts from the persisted version.
        with pytest.raises(DuplicateRunError, match="version 3"):
            reopened.ingest(make_record())
        reopened.close()

    def test_reopen_continues_duplicate_protection_and_overwrites(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record())
        reopened = reopen(store)
        reopened.ingest(make_record(best=1.0), overwrite=True)
        assert reopened.version("exp-run0") == 2
        reopened.close()

    def test_cross_experiment_overwrite_survives_reopen(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        moved = make_record("exp-a")
        store.ingest(moved)
        replacement = make_record("exp-b")
        replacement.run_id = moved.run_id
        store.ingest(replacement, overwrite=True)
        reopened = reopen(store)
        assert reopened.experiment_ids() == ["exp-b"]
        assert reopened.get_run(moved.run_id).experiment_id == "exp-b"
        reopened.close()


class TestSegments:
    def test_ingest_rolls_segments_at_size_cap(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        for index in range(12):
            store.ingest(make_record("exp", index))
        segments = sorted(portal_store_dir.glob("segment-*.jsonl"))
        assert len(segments) > 1
        assert all(path.stat().st_size <= 2048 for path in segments)
        store.close()
        # Every line is valid JSON with the envelope keys.
        for path in segments:
            for line in path.read_text().splitlines():
                envelope = json.loads(line)
                assert set(envelope) == {"crc", "v", "version", "record"}

    def test_appends_after_reopen_extend_intact_tail_segment(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1 << 20)
        store.ingest(make_record("exp", 0))
        reopened = reopen(store)
        reopened.ingest(make_record("exp", 1))
        reopened.close()
        assert len(list(portal_store_dir.glob("segment-*.jsonl"))) == 1

    def test_oversized_record_gets_its_own_segment(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=64)
        store.ingest(make_record("exp", 0))  # larger than one segment
        store.ingest(make_record("exp", 1))
        assert store.n_runs == 2
        reopened = reopen(store)
        assert reopened.n_runs == 2
        reopened.close()


class TestCompactAndSnapshot:
    def test_compact_drops_superseded_versions_but_keeps_counters(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        for index in range(6):
            store.ingest(make_record("exp", index))
        for index in range(6):
            store.ingest(make_record("exp", index, best=1.0), overwrite=True)
        before = {r.run_id: r.to_dict() for r in store.search()}
        manifest = store.compact()
        assert manifest["records"] == 6
        assert {r.run_id: r.to_dict() for r in store.search()} == before
        assert store.version("exp-run0") == 2
        assert store.ingest_count == 12
        # One live envelope per run on disk now.
        lines = sum(
            len(path.read_text().splitlines())
            for path in portal_store_dir.glob("segment-*.jsonl")
        )
        assert lines == 6
        reopened = reopen(store)
        assert reopened.version("exp-run0") == 2
        assert {r.run_id: r.to_dict() for r in reopened.search()} == before
        reopened.close()

    def test_compact_is_usable_immediately_and_accepts_ingest(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record("exp", 0))
        store.compact()
        store.ingest(make_record("exp", 1))
        assert store.n_runs == 2
        store.close()

    def test_leftover_compact_tmp_is_discarded_on_open(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record())
        store.close()
        # Simulate a crash mid-compaction: a stale working directory.
        working = portal_store_dir / ".compact-tmp"
        working.mkdir()
        (working / "segment-000001.jsonl").write_text("garbage\n")
        reopened = DurableDataPortal(portal_store_dir)
        assert reopened.recovery.clean
        assert reopened.n_runs == 1
        assert not working.exists()
        reopened.close()

    def test_snapshot_copies_live_state_without_touching_store(self, portal_store_dir, tmp_path):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record("exp", 0))
        store.ingest(make_record("exp", 0, best=2.0), overwrite=True)
        store.ingest(make_record("exp", 1))
        segments_before = {
            path.name: path.stat().st_size
            for path in portal_store_dir.glob("segment-*.jsonl")
        }
        manifest = store.snapshot(tmp_path / "snap")
        assert manifest["records"] == 2
        assert {
            path.name: path.stat().st_size
            for path in portal_store_dir.glob("segment-*.jsonl")
        } == segments_before
        snapshot = DurableDataPortal(tmp_path / "snap")
        assert snapshot.recovery.clean
        assert snapshot.version("exp-run0") == 2
        assert [r.to_dict() for r in snapshot.search()] == [r.to_dict() for r in store.search()]
        snapshot.close()
        store.close()

    def test_snapshot_refuses_nonempty_target(self, portal_store_dir, tmp_path):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record())
        target = tmp_path / "snap"
        store.snapshot(target)
        with pytest.raises(ValueError, match="already contains"):
            store.snapshot(target)
        store.close()


class TestLifecycleAndStats:
    def test_invalid_construction_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_policy"):
            DurableDataPortal(tmp_path / "s", fsync_policy="sometimes")
        with pytest.raises(ValueError, match="segment_max_bytes"):
            DurableDataPortal(tmp_path / "s", segment_max_bytes=0)

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_accounting(self, tmp_path, policy):
        store = DurableDataPortal(tmp_path / policy, fsync_policy=policy)
        for index in range(3):
            store.ingest(make_record("exp", index))
        store.close()
        if policy == "always":
            assert store.fsyncs >= 3
        elif policy == "segment":
            assert store.fsyncs == 1  # the close() seal
        else:
            assert store.fsyncs == 0

    def test_sync_is_an_explicit_fsync_point(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record())
        before = store.fsyncs
        store.sync()
        assert store.fsyncs == before + 1
        store.close()

    def test_closed_store_rejects_ingest_and_close_is_idempotent(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record())
        store.close()
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.ingest(make_record("other"))

    def test_context_manager_closes(self, portal_store_dir):
        with DurableDataPortal(portal_store_dir) as store:
            store.ingest(make_record())
        with pytest.raises(RuntimeError, match="closed"):
            store.ingest(make_record("other"))

    def test_stats_shape(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        store.ingest(make_record("exp", 0))
        store.ingest(make_record("exp", 0, best=1.0), overwrite=True)
        store.ingest(make_record("exp", 1))
        stats = store.stats()
        assert stats["backend"] == "durable"
        assert stats["n_runs"] == 2
        assert stats["n_experiments"] == 1
        assert stats["ingest_count"] == 3
        assert stats["overwritten_runs"] == 1
        assert stats["segments"] == 1
        assert stats["total_bytes"] > stats["live_bytes"] > 0
        # Default "segment" policy: creating the first segment also made
        # its directory entry durable.
        assert stats["dir_fsyncs"] >= 1
        assert stats["recovery"]["clean"] is True
        json.dumps(stats)
        store.close()


def golden_records():
    """50 seeded run records covering every value shape the store writes.

    Numpy-built and plain samples, an empty run (``best_score`` null), a
    non-ASCII title (``\\u`` escapes), a numpy integer in the metadata
    (written through the encoder's ``default=str``), nested containers
    and an image reference on every fifth run.
    """
    rng = np.random.default_rng(4711)
    dyes = ("cyan", "magenta", "yellow", "black")
    records = []
    for index in range(50):
        n_samples = 0 if index == 13 else int(rng.integers(1, 6))
        volumes = rng.uniform(0.0, 90.0, size=(n_samples, len(dyes)))
        rgb = rng.uniform(0.0, 255.0, size=(n_samples, 3))
        scores = rng.uniform(0.0, 120.0, size=n_samples)
        samples = [
            SampleRecord(
                sample_index=sample,
                well=f"{'ABCDEFGH'[sample % 8]}{sample // 8 + 1}",
                plate_barcode=f"plate-{index:03d}",
                # Odd runs keep numpy arrays and scalars, even runs plain lists.
                volumes_ul=dict(zip(dyes, volumes[sample] if index % 2 else volumes[sample].tolist())),
                measured_rgb=rgb[sample] if index % 2 else rgb[sample].tolist(),
                score=scores[sample] if index % 2 else float(scores[sample]),
                proposed_by=("solver", "seed")[sample % 2],
                timestamp=float(index * 60 + sample),
            )
            for sample in range(n_samples)
        ]
        records.append(
            RunRecord(
                experiment_id=f"exp-{index % 4}",
                run_id=f"exp-{index % 4}-run{index:03d}",
                run_index=index,
                target_rgb=rng.uniform(0.0, 255.0, size=3),
                samples=samples,
                timings={"elapsed_s": float(rng.uniform(600.0, 4000.0)), "wait_s": 1.5},
                solver=("evolutionary", "bayesian", "random")[index % 3],
                image_reference=f"images/{index:03d}.png" if index % 5 == 0 else None,
                metadata={
                    "workcell": np.int64(index % 3),
                    "title": "Farbabgleich épreuve – 色",
                    "batch": {"size": n_samples, "wells": [s.well for s in samples]},
                },
            )
        )
    return records


#: sha256 of the golden store's segment bytes (concatenated in segment
#: order) and of its snapshot.  Both were computed at commit 33b161b, the
#: last one whose ``SampleRecord.to_dict`` used ``dataclasses.asdict`` and
#: whose envelope was built from a second ``json.dumps``.  The on-disk
#: format is a contract: these must not change without an
#: ``ENVELOPE_VERSION`` bump.
GOLDEN_SEGMENTS_SHA256 = "4282af07867fa7ec7dd637dcd5d599554fc4eb52db9741c8e97e000631b55c70"
GOLDEN_SNAPSHOT_SHA256 = "52c2bec9b62927a6907447c5d7a50f7b4afeb8780f4f07fccdfac71f4109f2cb"


def _segments_sha256(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.glob("segment-*.jsonl")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGoldenBytes:
    def test_segment_and_snapshot_bytes_are_the_format_contract(self, portal_store_dir, tmp_path):
        records = golden_records()
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=8192)
        for record in records:
            store.ingest(record)
        overwritten = records[7]
        overwritten.samples[0].score = 0.5
        store.ingest(overwritten, overwrite=True)
        store.snapshot(tmp_path / "snap")
        store.close()
        assert len(list(portal_store_dir.glob("segment-*.jsonl"))) > 1
        assert (_segments_sha256(portal_store_dir), _segments_sha256(tmp_path / "snap")) == (
            GOLDEN_SEGMENTS_SHA256,
            GOLDEN_SNAPSHOT_SHA256,
        )
        reopened = DurableDataPortal(portal_store_dir)
        assert reopened.recovery.clean
        assert reopened.recovery.records_replayed == 51
        assert reopened.version(overwritten.run_id) == 2
        assert reopened.get_run(overwritten.run_id).best_score == min(
            sample.score for sample in overwritten.samples
        )
        reopened.close()


def _open_fds_under(directory):
    """Targets of this process's open file descriptors inside ``directory``
    (deleted files included, which the kernel marks "(deleted)")."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor listdir itself used, now closed
            continue
        if target.startswith(str(directory)):
            targets.append(target)
    return targets


class TestReadPath:
    def test_mutating_a_read_record_leaves_the_next_read_untouched(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir)
        original = make_record()
        store.ingest(original)
        first = store.get_run(original.run_id)
        assert first == original
        first.samples[0].volumes_ul["cyan"] = -1.0
        first.samples[0].measured_rgb.append(7.0)
        first.samples.pop()
        first.target_rgb[0] = -1.0
        first.metadata["batch_size"] = 99
        [found] = store.search()
        assert found == original
        found.timings["mix_s"] = 1.0
        assert store.get_experiment("exp").runs == [original]
        assert store.get_run(original.run_id) == original
        store.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_descriptor_outlives_close_or_compact(self, portal_store_dir):
        store = DurableDataPortal(portal_store_dir, segment_max_bytes=1024)
        for index in range(8):
            store.ingest(make_record("exp", index))
        n_segments = len(list(portal_store_dir.glob("segment-*.jsonl")))
        assert n_segments > 1
        assert len(store.search()) == 8
        # One read handle per segment, plus the write handle.
        assert len(_open_fds_under(portal_store_dir)) == n_segments + 1
        store.compact()
        assert _open_fds_under(portal_store_dir) == []
        assert [record.run_id for record in store.search()] == [f"exp-run{i}" for i in range(8)]
        assert _open_fds_under(portal_store_dir)
        store.close()
        assert _open_fds_under(portal_store_dir) == []
        # A closed store still answers a query, and keeps no handle for it.
        assert store.get_run("exp-run3").run_index == 3
        assert _open_fds_under(portal_store_dir) == []


_FLOATS = st.floats(allow_nan=False, width=64)
_TEXT = st.text(max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**53), 2**53) | _FLOATS | _TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=8,
)
_SAMPLE = st.builds(
    SampleRecord,
    sample_index=st.integers(0, 95),
    well=_TEXT,
    plate_barcode=_TEXT,
    volumes_ul=st.dictionaries(_TEXT, _FLOATS, max_size=4),
    measured_rgb=st.lists(_FLOATS, min_size=3, max_size=3),
    score=_FLOATS,
    proposed_by=_TEXT,
    timestamp=_FLOATS,
)
_RECORD = st.builds(
    RunRecord,
    experiment_id=st.sampled_from(["exp-a", "exp-é", "実験"]),
    run_id=st.sampled_from(["run-0", "run-1", "run-ü"]),
    run_index=st.integers(0, 10**6),
    target_rgb=st.lists(_FLOATS, min_size=3, max_size=3),
    samples=st.lists(_SAMPLE, max_size=3),
    timings=st.dictionaries(_TEXT, _FLOATS, max_size=3),
    solver=_TEXT,
    image_reference=st.none() | _TEXT,
    metadata=st.dictionaries(_TEXT, _JSON, max_size=4),
)


class TestIngestBytesProperty:
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_RECORD, min_size=1, max_size=6))
    def test_ingest_writes_the_canonical_to_dict_bytes(self, records):
        """Whatever the record -- nested metadata, no samples, non-ASCII
        text, overwrites -- each appended line is the envelope around
        ``_CANONICAL_ENCODER.encode(record.to_dict())``, and the trusted
        read path gives the record back."""
        with tempfile.TemporaryDirectory() as directory:
            store = DurableDataPortal(Path(directory))
            versions, expected_lines, latest = {}, [], {}
            for record in records:
                store.ingest(record, overwrite=True)
                versions[record.run_id] = versions.get(record.run_id, 0) + 1
                record_json = _CANONICAL_ENCODER.encode(record.to_dict()).encode("utf-8")
                expected_lines.append(_envelope_line(record_json, versions[record.run_id]))
                latest[record.run_id] = record
            assert [store.get_run(run_id) for run_id in latest] == list(latest.values())
            store.close()
            [segment] = Path(directory).glob("segment-*.jsonl")
            assert segment.read_bytes().splitlines(keepends=True) == expected_lines
            reopened = DurableDataPortal(Path(directory))
            assert reopened.recovery.clean
            assert [reopened.get_run(run_id) for run_id in latest] == list(latest.values())
            reopened.close()
