"""Durable append-only backend for the data portal.

:class:`DurableDataPortal` stores run records in rolling **JSONL segment
files** (``segment-000001.jsonl``, ...): every ingest -- including an
explicit ``overwrite=True`` re-publication -- appends exactly one envelope
line and never rewrites earlier bytes, so the write path is sequential I/O
and a crash can only ever damage the tail of the newest segment.  On open
the segments are replayed in order, **latest append wins** per ``run_id``
(versioned overwrites need no tombstones), and the in-memory indexes --
run locations, per-experiment membership, the pagination order -- are
rebuilt; records themselves stay on disk and are loaded lazily, so the
resident cost of a million-record store is the index, not the data.

Envelope format (one JSON object per line, these exact bytes)::

    {"crc":<crc32 of the record bytes>,"v":1,"version":<per-run ingest counter>,"record":{...}}

with no spaces, the header keys in that order, ``record`` last, and the
record in its canonical form (sorted keys, tight separators, ASCII-only).

The CRC plus line framing make torn or corrupted tails *detectable*:
:meth:`DurableDataPortal.open`-time replay skips any line that fails to
parse or checksum, records each skip in the :class:`RecoveryReport`
(never raising), resumes at the next newline, and starts a **fresh
segment** for new appends so recovered garbage is never extended.
:meth:`DurableDataPortal.compact` rewrites the store to one envelope per
live run (versions preserved -- they ride in the envelope), dropping both
superseded versions and recovered-around damage; :meth:`snapshot` writes
the same compacted form to another directory without touching the live
store.  Compaction is crash-safe via a commit-marker protocol: the
rewrite is staged in ``.compact-tmp``, the live segments are renamed
aside (never unlinked while they are the only copy), and an fsynced
``compact-commit`` marker is the atomic decision point -- on the next
open, :meth:`_recover_compaction` rolls the store forward (marker
present: the staged segments are authoritative) or back (marker absent:
the originals are), so a crash at *any* instant leaves one complete
copy.

Durability contract (see ``docs/portal.md`` for the full protocol):

* every append is ``flush()``\\ ed before :meth:`ingest` returns, so other
  *threads* and queries always see it (exactly-once visibility);
* ``fsync`` points are explicit and policy-controlled
  (``fsync_policy="always"|"segment"|"never"``): ``"always"`` fsyncs every
  append, ``"segment"`` (the default) fsyncs on segment roll, on
  :meth:`sync` and on :meth:`close`, ``"never"`` leaves flushing to the OS;
  whenever the policy fsyncs file *contents*, the store directory is also
  fsynced after creating a segment (and around compaction's renames), so
  the directory entries those bytes live under are durable too
  (``dir_fsyncs`` counts these separately);
* concurrent ingest from many coordinator shards is supported: one
  coarse store lock (built through
  :func:`repro.analysis.runtime.make_lock`, so it is a named node in the
  instrumented lock-order graph) serialises every mutation, every index
  read *and* every record load from disk -- so a query can never observe
  compaction's rename window or read a stale offset from a freshly
  rewritten segment.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple

from repro.analysis.runtime import make_lock
from repro.obs import metrics as obs_metrics
from repro.publish.portal import (
    PortalBackend,
    PortalQueryError,
    SearchPage,
    _decode_cursor,
    _encode_cursor,
)
from repro.publish.records import ExperimentRecord, RunRecord

__all__ = ["StoreFault", "RecoveryReport", "DurableDataPortal"]

#: Envelope schema version (bump on incompatible line-format changes).
ENVELOPE_VERSION = 1

#: Segment filename pattern; the numeric part orders replay.
_SEGMENT_GLOB = "segment-*.jsonl"

#: Compaction staging directory (inside the store directory).
_COMPACT_TMP = ".compact-tmp"

#: Compaction commit marker: present on disk exactly while the staged
#: compacted segments (not the renamed-aside originals) are authoritative.
_COMPACT_MARKER = "compact-commit"

#: Suffix live segments are renamed to during compaction (never matches
#: ``_SEGMENT_GLOB``, so an aside segment is invisible to replay).
_ASIDE_SUFFIX = ".old"
_ASIDE_GLOB = _SEGMENT_GLOB + _ASIDE_SUFFIX

#: Allowed fsync policies (see the module docstring).
FSYNC_POLICIES = ("always", "segment", "never")

#: Lock-order-graph role name of the store's mutation lock.
STORE_LOCK_ROLE = "durable-portal"


#: The one encoder behind :func:`_canonical_record_json` (``json.dumps``
#: with the same arguments builds an identical encoder on every call).  It
#: skips the circular-reference check: it only ever encodes the tree
#: ``RunRecord.to_dict`` builds, and a cycle planted in a record's
#: metadata still fails the ingest (as a ``RecursionError``).
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str, check_circular=False
)


def _canonical_record_json(record_dict: Dict[str, Any]) -> bytes:
    """The canonical serialisation the CRC covers, as the bytes written.

    ``sort_keys`` + tight separators make the bytes a pure function of the
    record's *content*, so the checksum computed at append time and the one
    recomputed from the parsed line at replay time agree exactly.
    """
    return _CANONICAL_ENCODER.encode(record_dict).encode("utf-8")


def _envelope_line(record_json: bytes, version: int) -> bytes:
    """One segment line around the canonical record bytes ``record_json``.

    The header keys are ``crc``, ``v``, ``version`` in that order with the
    ``record`` last; the CRC covers exactly the record bytes the line holds.
    """
    return b'{"crc":%d,"v":%d,"version":%d,"record":%b}\n' % (
        zlib.crc32(record_json),
        ENVELOPE_VERSION,
        version,
        record_json,
    )


def _is_canonical_envelope(line: bytes, version: int) -> bool:
    """True when ``line`` (newline included) is exactly
    :func:`_envelope_line` of its own raw record bytes at ``version``, so
    its CRC covers those bytes.

    Replay checks a line this way first; only a line that fails it needs
    the canonical re-encode of its parsed record.
    """
    start = line.find(b'"record":') + len(b'"record":')
    return _envelope_line(line[start:-2], version) == line


def _record_of(line: bytes, canonical: bool) -> RunRecord:
    """The record of an envelope line the index points at.  A ``canonical``
    line holds exactly the ``to_dict`` of a valid record (see
    :class:`_IndexEntry`), so its record is built without re-validation;
    any other line goes through the validating constructors."""
    record_dict = json.loads(line)["record"]
    if canonical:
        return RunRecord.from_checked_dict(record_dict)
    return RunRecord.from_dict(record_dict)


def _segment_name(index: int) -> str:
    return f"segment-{index:06d}.jsonl"


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


@dataclass(frozen=True)
class StoreFault:
    """One damaged byte range the replay skipped (and recovered around)."""

    segment: str
    offset: int
    length: int
    reason: str
    at_tail: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "segment": self.segment,
            "offset": self.offset,
            "length": self.length,
            "reason": self.reason,
            "at_tail": self.at_tail,
        }


@dataclass
class RecoveryReport:
    """What the last :meth:`DurableDataPortal` open found while replaying."""

    segments: int = 0
    records_replayed: int = 0
    faults: List[StoreFault] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every byte of every segment replayed as a valid record."""
        return not self.faults

    @property
    def torn_tail(self) -> Optional[StoreFault]:
        """The trailing-partial-write fault, if the newest segment has one."""
        for fault in reversed(self.faults):
            if fault.at_tail:
                return fault
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "segments": self.segments,
            "records_replayed": self.records_replayed,
            "clean": self.clean,
            "faults": [fault.to_dict() for fault in self.faults],
        }


@dataclass(slots=True)
class _IndexEntry:
    """Where one run's *latest* record lives, plus its searchable fields."""

    run_id: str
    experiment_id: str
    run_index: int
    solver: str
    best_score: float
    version: int
    segment: str
    offset: int
    length: int
    #: The line is a canonical envelope (its CRC covers its raw record
    #: bytes) and its record decodes to exactly the ``to_dict`` of a valid
    #: record: true of every line ingest writes, and of a replayed line
    #: whose values need none of the validating constructors' conversions.
    #: Reads of such a line skip the validation and compaction copies it.
    canonical: bool


class DurableDataPortal(PortalBackend):
    """Append-only on-disk portal backend (see the module docstring).

    Parameters
    ----------
    directory:
        The store directory (created if missing); holds only segment files
        and, transiently while a compaction is in flight, a
        ``.compact-tmp`` staging directory, renamed-aside ``*.jsonl.old``
        segments and the ``compact-commit`` marker.
    segment_max_bytes:
        Roll to a new segment once the active one would exceed this size
        (default 8 MiB).  Smaller segments bound the blast radius of tail
        damage and the cost of partial compaction; tests shrink this to
        force multi-segment stores.
    fsync_policy:
        ``"always"`` | ``"segment"`` (default) | ``"never"``; see the
        module docstring.  ``fsyncs`` counts the calls actually issued so
        the policy is observable.
    """

    backend_name = "durable"

    def __init__(
        self,
        directory: Path,
        *,
        segment_max_bytes: int = 8 * 1024 * 1024,
        fsync_policy: str = "segment",
    ):
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync_policy {fsync_policy!r}; expected one of {FSYNC_POLICIES}"
            )
        if segment_max_bytes < 1:
            raise ValueError(f"segment_max_bytes must be >= 1, got {segment_max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fsync_policy = fsync_policy
        # Fsync counters live on the metrics registry (mutated under the
        # store lock); the fsyncs/dir_fsyncs properties stay as thin views.
        registry = obs_metrics.get_registry()
        labels = {"store": self.directory.name, "instance": obs_metrics.next_instance()}
        self._m_fsyncs = registry.counter("portal_fsyncs_total", labels)
        self._m_dir_fsyncs = registry.counter("portal_dir_fsyncs_total", labels)
        self.recovery = RecoveryReport()
        self._lock = make_lock(STORE_LOCK_ROLE)
        self._index: Dict[str, _IndexEntry] = {}
        #: Experiment -> its run ids in first-publication order (a dict
        #: used as an insertion-ordered set).
        self._experiments: Dict[str, Dict[str, None]] = {}
        #: Sorted pagination keys ``(experiment_id, run_index, run_id)``.
        self._order: List[Tuple[str, int, str]] = []
        self._write_handle: Optional[IO[bytes]] = None
        #: One read handle per segment, opened by the first read of it and
        #: closed by :meth:`close` and :meth:`compact` (under the lock).
        self._read_handles: Dict[str, IO[bytes]] = {}
        self._write_segment = ""
        self._write_offset = 0
        self._closed = False
        self._load()

    # ------------------------------------------------------------------
    # Open / replay
    # ------------------------------------------------------------------
    def _segment_paths(self) -> List[Path]:
        return sorted(self.directory.glob(_SEGMENT_GLOB), key=_segment_index)

    def _recover_compaction(self) -> None:
        """Finish or roll back a compaction a previous process died inside.

        :meth:`compact` stages the rewrite in ``.compact-tmp``, renames
        the live segments aside (``*.jsonl.old``), then fsyncs a
        ``compact-commit`` marker before renaming the staged segments in.
        The marker is the atomic decision point:

        * marker present -- the staged segments are authoritative: finish
          renaming them in, then drop the aside originals and the marker;
        * marker absent -- the originals are authoritative: restore any
          aside segments to their live names and discard the staging
          directory (it may be incomplete).

        Either way exactly one complete copy survives a crash at any
        instant, so this never loses data.
        """
        working = self.directory / _COMPACT_TMP
        marker = self.directory / _COMPACT_MARKER
        aside = sorted(self.directory.glob(_ASIDE_GLOB))
        if not (marker.exists() or aside or working.exists()):
            return
        if marker.exists():
            # Committed: the staged rewrite is complete and fsynced.
            if working.exists():
                for path in sorted(working.glob(_SEGMENT_GLOB), key=_segment_index):
                    path.replace(self.directory / path.name)
                shutil.rmtree(working, ignore_errors=True)
            for path in aside:
                path.unlink()
            marker.unlink()
        else:
            # Not committed: the staging directory was never part of the
            # live store and may be torn mid-write -- discard it and put
            # back any segments the crashed compact had renamed aside.
            if working.exists():
                shutil.rmtree(working, ignore_errors=True)
            for path in aside:
                original = self.directory / path.name[: -len(_ASIDE_SUFFIX)]
                if original.exists():
                    path.unlink()
                else:
                    path.rename(original)
        self._fsync_dir(self.directory)

    def _load(self) -> None:
        """Replay every segment, rebuilding the indexes; never raises on
        damaged data -- each skipped byte range lands in ``self.recovery``."""
        self._recover_compaction()
        self._index.clear()
        self._experiments.clear()
        self._order = []
        report = RecoveryReport()
        paths = self._segment_paths()
        report.segments = len(paths)
        for path_number, path in enumerate(paths):
            last_segment = path_number == len(paths) - 1
            data = path.read_bytes()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                if newline < 0:
                    # Trailing bytes with no terminator: a torn append.
                    report.faults.append(
                        StoreFault(
                            segment=path.name,
                            offset=offset,
                            length=len(data) - offset,
                            reason="torn tail (no trailing newline)",
                            at_tail=last_segment,
                        )
                    )
                    break
                line = data[offset : newline + 1]
                problem = self._replay_line(path.name, offset, line)
                if problem is None:
                    report.records_replayed += 1
                else:
                    report.faults.append(
                        StoreFault(
                            segment=path.name,
                            offset=offset,
                            length=len(line),
                            reason=problem,
                            at_tail=last_segment and data.find(b"\n", newline + 1) < 0
                            and newline + 1 == len(data),
                        )
                    )
                offset = newline + 1
        self.recovery = report
        # Sort once; ingest maintains the order incrementally afterwards.
        self._order = sorted(
            (entry.experiment_id, entry.run_index, entry.run_id)
            for entry in self._index.values()
        )
        # Appends go to the last segment only if it is intact and has room;
        # damaged or full tails are left in place (until compact) and a
        # fresh segment takes the writes, so recovered-around garbage is
        # never extended into fresh appends.
        self._write_handle = None
        self._write_segment = ""
        self._write_offset = 0
        if paths:
            tail = paths[-1]
            tail_damaged = any(fault.segment == tail.name for fault in report.faults)
            size = tail.stat().st_size
            if not tail_damaged and size < self.segment_max_bytes:
                self._write_segment = tail.name
                self._write_offset = size

    def _replay_line(self, segment: str, offset: int, line: bytes) -> Optional[str]:
        """Apply one envelope line (newline included); returns a fault
        reason or ``None``.

        The CRC is checked over the line's raw record bytes; only a line
        that is not the canonical envelope around them pays for the
        canonical re-encode of its parsed record.  The record is always
        built by the validating constructors: replay is where a line's
        values are checked, once, for every later read.
        """
        try:
            envelope = json.loads(line)
        except ValueError:
            return "unparseable envelope line"
        if not isinstance(envelope, dict):
            return "envelope is not a JSON object"
        record_dict = envelope.get("record")
        version = envelope.get("version")
        crc = envelope.get("crc")
        if not isinstance(record_dict, dict) or not isinstance(version, int):
            return "envelope missing record/version"
        if isinstance(version, bool) or version < 1:
            # bool is an int subclass; neither it nor a non-positive count
            # may seed the version counter ingest/overwrite build on.
            return f"envelope version invalid ({version!r})"
        raw_bytes_checked = _is_canonical_envelope(line, version)
        if not raw_bytes_checked and zlib.crc32(_canonical_record_json(record_dict)) != crc:
            return "record checksum mismatch"
        try:
            record = RunRecord.from_dict(record_dict)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"record schema invalid ({exc})"
        if not record.run_id or not record.experiment_id:
            return "record missing run_id/experiment_id"
        self._apply(
            _IndexEntry(
                record.run_id,
                record.experiment_id,
                record.run_index,
                record.solver,
                record.best_score,
                version,
                segment,
                offset,
                len(line),
                raw_bytes_checked and record.to_dict() == record_dict,
            ),
            maintain_order=False,
        )
        return None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, record: RunRecord, *, overwrite: bool = False) -> None:
        """Append one run record; durable per the fsync policy, visible to
        every query (from any thread) on return.

        Semantics mirror :meth:`DataPortal.ingest` exactly: duplicates
        raise :class:`~repro.publish.portal.DuplicateRunError` unless
        ``overwrite=True``, which appends a higher-``version`` envelope
        (latest-wins on replay -- no tombstones, no in-place rewrites).
        """
        self._validate_record(record)
        # Encoded before taking the lock, so other shards' appends never
        # wait on this record's serialisation.
        record_dict = record.to_dict()
        record_json = _canonical_record_json(record_dict)
        best_score = record_dict["best_score"]
        with self._lock:
            self._ensure_open()
            previous = self._index.get(record.run_id)
            if previous is not None and not overwrite:
                raise self._duplicate_error(record.run_id, previous.version)
            version = previous.version + 1 if previous is not None else 1
            line = _envelope_line(record_json, version)
            segment, offset = self._append(line)
            self._apply(
                _IndexEntry(
                    record.run_id,
                    record.experiment_id,
                    record.run_index,
                    record.solver,
                    float("inf") if best_score is None else best_score,
                    version,
                    segment,
                    offset,
                    len(line),
                    True,
                ),
                maintain_order=True,
            )

    def _apply(self, entry: _IndexEntry, *, maintain_order: bool) -> None:
        """Update the indexes for one appended (or replayed) envelope."""
        import bisect

        run_id, experiment_id = entry.run_id, entry.experiment_id
        previous = self._index.get(run_id)
        if previous is not None and previous.experiment_id != experiment_id:
            # Latest-wins across experiments: the run leaves its old
            # experiment entirely, exactly like the in-memory backend.
            old_runs = self._experiments[previous.experiment_id]
            del old_runs[run_id]
            if not old_runs:
                del self._experiments[previous.experiment_id]
        if maintain_order:
            key = (experiment_id, entry.run_index, run_id)
            if previous is not None:
                old_key = (previous.experiment_id, previous.run_index, previous.run_id)
                if old_key != key:
                    position = bisect.bisect_left(self._order, old_key)
                    if position < len(self._order) and self._order[position] == old_key:
                        del self._order[position]
                    bisect.insort(self._order, key)
            else:
                bisect.insort(self._order, key)
        self._index[run_id] = entry
        self._experiments.setdefault(experiment_id, {})[run_id] = None

    def _append(self, line: bytes) -> Tuple[str, int]:
        """Write one envelope line to the active segment (rolling first if
        it would overflow); returns ``(segment_name, offset)``."""
        if self._write_handle is None or (
            self._write_offset > 0 and self._write_offset + len(line) > self.segment_max_bytes
        ):
            self._roll_segment()
        assert self._write_handle is not None
        offset = self._write_offset
        self._write_handle.write(line)
        # Flush unconditionally: visibility ("a record is queryable the
        # moment ingest returns", from any thread or a concurrent reader
        # process) must not depend on the durability policy.
        self._write_handle.flush()
        if self.fsync_policy == "always":
            self._fsync(self._write_handle)
        self._write_offset = offset + len(line)
        return self._write_segment, offset

    def _roll_segment(self) -> None:
        """Seal the active segment (fsync point) and open the next one."""
        if self._write_handle is not None:
            if self.fsync_policy != "never":
                self._fsync(self._write_handle)
            self._write_handle.close()
            self._write_handle = None
        if not self._write_segment:
            paths = self._segment_paths()
            next_index = _segment_index(paths[-1]) + 1 if paths else 1
        else:
            next_index = _segment_index(Path(self._write_segment)) + 1
        self._write_segment = _segment_name(next_index)
        self._write_handle = open(self.directory / self._write_segment, "ab")
        self._write_offset = 0
        if self.fsync_policy != "never":
            # The new segment's *directory entry* must be durable too, or
            # a power loss can drop a fully-fsynced file from the tree.
            self._fsync_dir(self.directory)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"portal store {self.directory} is closed")
        if self._write_handle is None and self._write_segment:
            # Lazily reattach to the intact tail segment found at open time.
            self._write_handle = open(self.directory / self._write_segment, "ab")

    def _fsync(self, handle: IO[bytes]) -> None:
        handle.flush()
        os.fsync(handle.fileno())
        self._m_fsyncs.inc()

    def _fsync_dir(self, directory: Path) -> None:
        """Make ``directory``'s entries (creates/renames/unlinks) durable;
        counted in ``dir_fsyncs``, separately from data fsyncs."""
        if os.name == "nt":  # pragma: no cover - directories aren't
            return  # openable on Windows; entry durability is best-effort
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self._m_dir_fsyncs.inc()

    @property
    def fsyncs(self) -> int:
        """Data fsyncs issued so far (thin view over the registry counter)."""
        return int(self._m_fsyncs.value)

    @property
    def dir_fsyncs(self) -> int:
        """Directory fsyncs issued so far (thin view over the registry counter)."""
        return int(self._m_dir_fsyncs.value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def version(self, run_id: str) -> int:
        """How many times ``run_id`` has been ingested -- preserved across
        reopen (the counter rides in every appended envelope)."""
        with self._lock:
            entry = self._index.get(run_id)
        if entry is None:
            raise PortalQueryError(f"unknown run id {run_id!r}")
        return entry.version

    @property
    def ingest_count(self) -> int:
        """Total ingests ever accepted (every ingest bumps one run's
        version by one, so this is the version sum -- compaction-proof)."""
        with self._lock:
            return sum(entry.version for entry in self._index.values())

    @property
    def n_runs(self) -> int:
        """Total number of stored run records."""
        with self._lock:
            return len(self._index)

    @property
    def n_experiments(self) -> int:
        """Number of distinct experiments with at least one run."""
        with self._lock:
            return len(self._experiments)

    def experiment_ids(self) -> List[str]:
        """All experiment ids in insertion order."""
        with self._lock:
            return list(self._experiments)

    def _read_line(self, entry: _IndexEntry) -> bytes:
        """The envelope line (newline included) of one index entry.

        Caller holds the store lock: a ``(segment, offset)`` pair is only
        meaningful against the segment files as they existed when the
        index entry was taken, and :meth:`compact` swaps those files (same
        names, different contents) under the same lock, closing the read
        handles first.  A closed store keeps no handle open.
        """
        if self._closed:
            with open(self.directory / entry.segment, "rb") as handle:
                handle.seek(entry.offset)
                return handle.read(entry.length)
        handle = self._read_handles.get(entry.segment)
        if handle is None:
            handle = self._read_handles[entry.segment] = open(self.directory / entry.segment, "rb")
        handle.seek(entry.offset)
        return handle.read(entry.length)

    def _read_entry(self, entry: _IndexEntry) -> RunRecord:
        """Load one record from its segment byte range (caller holds the
        store lock); each call decodes a fresh record the caller may
        mutate."""
        return _record_of(self._read_line(entry), entry.canonical)

    def get_run(self, run_id: str) -> RunRecord:
        """Fetch a run record by id (the latest version, if overwritten)."""
        with self._lock:
            entry = self._index.get(run_id)
            record = self._read_entry(entry) if entry is not None else None
        if record is None:
            raise PortalQueryError(f"unknown run id {run_id!r}")
        return record

    def get_experiment(self, experiment_id: str) -> ExperimentRecord:
        """Assemble the experiment record for ``experiment_id`` (runs
        sorted by ``run_index``, like the in-memory backend)."""
        with self._lock:
            run_ids = self._experiments.get(experiment_id)
            runs = (
                [self._read_entry(self._index[run_id]) for run_id in run_ids]
                if run_ids
                else None
            )
        if runs is None:
            raise PortalQueryError(f"unknown experiment id {experiment_id!r}")
        runs.sort(key=lambda run: run.run_index)
        return ExperimentRecord(experiment_id=experiment_id, runs=runs)

    @staticmethod
    def _admits(
        entry: _IndexEntry,
        experiment_id: Optional[str],
        solver: Optional[str],
        max_best_score: Optional[float],
    ) -> bool:
        """The index pre-filter: the criteria an entry's resident fields
        decide without reading the record."""
        return (
            (experiment_id is None or entry.experiment_id == experiment_id)
            and (solver is None or entry.solver == solver)
            and (max_best_score is None or entry.best_score <= max_best_score)
        )

    def search(
        self,
        *,
        experiment_id: Optional[str] = None,
        solver: Optional[str] = None,
        max_best_score: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[RunRecord]:
        """Search run records by indexed fields (all criteria must match).

        The index pre-filters on its resident fields (experiment, solver,
        best score) so only candidate records are read from disk; the loaded
        records then pass through the *same* filter implementation as the
        in-memory backend, and results sort identically by
        ``(experiment_id, run_index)`` with insertion order breaking ties.
        """
        with self._lock:
            candidates = [
                entry
                for entry in self._index.values()
                if self._admits(entry, experiment_id, solver, max_best_score)
            ]
            results = [
                record
                for record in (self._read_entry(entry) for entry in candidates)
                if self._matches(record, experiment_id, solver, max_best_score, metadata)
            ]
        results.sort(key=lambda record: (record.experiment_id, record.run_index))
        return results

    def search_page(
        self,
        *,
        experiment_id: Optional[str] = None,
        solver: Optional[str] = None,
        max_best_score: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
        limit: int = 100,
        cursor: Optional[str] = None,
    ) -> SearchPage:
        """One page of matches without materialising the full result set.

        Walks the maintained pagination order from the cursor position,
        index-pre-filtering before any disk read; behaviour (ordering,
        cursor semantics, page boundaries) is identical to the in-memory
        :meth:`~repro.publish.portal.DataPortal.search_page`.
        """
        import bisect

        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        after = _decode_cursor(cursor) if cursor is not None else None
        records: List[RunRecord] = []
        next_cursor: Optional[str] = None
        with self._lock:
            start = bisect.bisect_right(self._order, after) if after is not None else 0
            for key in self._order[start:]:
                entry = self._index[key[2]]
                if not self._admits(entry, experiment_id, solver, max_best_score):
                    continue
                record = self._read_entry(entry)
                if not self._matches(record, experiment_id, solver, max_best_score, metadata):
                    continue
                if len(records) == limit:
                    # One match beyond the page proves there is a next page.
                    next_cursor = _encode_cursor(
                        (records[-1].experiment_id, records[-1].run_index, records[-1].run_id)
                    )
                    break
                records.append(record)
        return SearchPage(records=records, next_cursor=next_cursor)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Operational snapshot: sizes, segments, versions, recovery state."""
        with self._lock:
            n_runs = len(self._index)
            n_experiments = len(self._experiments)
            overwritten = sum(1 for entry in self._index.values() if entry.version > 1)
            live_bytes = sum(entry.length for entry in self._index.values())
            ingests = sum(entry.version for entry in self._index.values())
            # Under the lock too: compact() renames segments, so an
            # unlocked stat() walk could race a vanishing file.
            paths = self._segment_paths()
            total_bytes = sum(path.stat().st_size for path in paths)
        return {
            "backend": self.backend_name,
            "directory": str(self.directory),
            "n_runs": n_runs,
            "n_experiments": n_experiments,
            "ingest_count": ingests,
            "overwritten_runs": overwritten,
            "segments": len(paths),
            "total_bytes": total_bytes,
            "live_bytes": live_bytes,
            "fsync_policy": self.fsync_policy,
            "fsyncs": self.fsyncs,
            "dir_fsyncs": self.dir_fsyncs,
            "recovery": self.recovery.to_dict(),
        }

    def _write_compacted(self, directory: Path) -> Dict[str, Any]:
        """Write one envelope per live run (current versions preserved) as
        fresh segments under ``directory``; returns a manifest.

        Caller holds the store lock.  Output is fsynced regardless of
        policy: a compacted store or snapshot claims to be durable.
        """
        directory.mkdir(parents=True, exist_ok=True)
        segment_number = 1
        written_records = 0
        written_bytes = 0
        handle = open(directory / _segment_name(segment_number), "wb")
        try:
            offset = 0
            # Grouped live-iteration order: experiments in first-publication
            # order, runs in membership order.  Replaying this layout
            # reconstructs the exact experiment/run iteration order the
            # live store exposes (``experiment_ids()`` and friends), so
            # compaction is invisible to the parity suite.
            ordered_entries = [
                self._index[run_id]
                for run_ids in self._experiments.values()
                for run_id in run_ids
            ]
            for entry in ordered_entries:
                # A canonical line is copied as it is; any other line is
                # written as the canonical envelope of its validated record.
                line = self._read_line(entry)
                if not entry.canonical:
                    record_json = _canonical_record_json(_record_of(line, False).to_dict())
                    line = _envelope_line(record_json, entry.version)
                if offset > 0 and offset + len(line) > self.segment_max_bytes:
                    self._fsync(handle)
                    handle.close()
                    segment_number += 1
                    handle = open(directory / _segment_name(segment_number), "wb")
                    offset = 0
                handle.write(line)
                offset += len(line)
                written_records += 1
                written_bytes += len(line)
            self._fsync(handle)
        finally:
            handle.close()
        # Entries as well as contents: the compacted form claims to be
        # fully durable, so its directory must survive power loss too.
        self._fsync_dir(directory)
        return {
            "records": written_records,
            "segments": segment_number,
            "bytes": written_bytes,
            "directory": str(directory),
        }

    def snapshot(self, target: Path) -> Dict[str, Any]:
        """Write a compacted, self-contained copy of the live store to
        ``target`` (which must not already contain segments); the live
        store is untouched.  Returns the snapshot manifest."""
        target = Path(target)
        if sorted(target.glob(_SEGMENT_GLOB)):
            raise ValueError(f"snapshot target {target} already contains segment files")
        with self._lock:
            self._ensure_open()
            return self._write_compacted(target)

    def compact(self) -> Dict[str, Any]:
        """Rewrite the store to one envelope per live run.

        Drops superseded versions and any recovered-around damage; version
        counters are preserved (they ride in the envelopes).  Crash-safe
        commit-marker protocol -- at every instant at least one complete,
        recoverable copy of the store exists on disk:

        1. stage the rewrite in ``.compact-tmp`` (contents and directory
           entries fsynced);
        2. rename the live segments aside to ``*.jsonl.old`` -- renamed,
           never unlinked, because they are still the only committed copy;
        3. write and fsync the ``compact-commit`` marker: the atomic
           point of no return, after which the staged segments are
           authoritative;
        4. rename the staged segments in, then drop the aside originals,
           the staging directory and the marker.

        A crash before step 3 rolls back on the next open (originals
        restored, staging discarded); a crash after it rolls forward
        (staged rewrite completed) -- see :meth:`_recover_compaction`.
        Returns the compaction manifest.
        """
        working = self.directory / _COMPACT_TMP
        marker = self.directory / _COMPACT_MARKER
        with self._lock:
            self._ensure_open()
            if working.exists():
                shutil.rmtree(working)
            manifest = self._write_compacted(working)
            self._close_handles()
            for path in self._segment_paths():
                path.rename(path.with_name(path.name + _ASIDE_SUFFIX))
            with open(marker, "wb") as handle:
                handle.write(b"commit\n")
                self._fsync(handle)
            self._fsync_dir(self.directory)
            for path in sorted(working.glob(_SEGMENT_GLOB), key=_segment_index):
                path.rename(self.directory / path.name)
            shutil.rmtree(working, ignore_errors=True)
            for path in sorted(self.directory.glob(_ASIDE_GLOB)):
                path.unlink()
            marker.unlink()
            self._fsync_dir(self.directory)
            self._load()
            manifest["directory"] = str(self.directory)
        return manifest

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Explicit fsync point: flush the active segment to stable storage."""
        with self._lock:
            if self._write_handle is not None:
                self._fsync(self._write_handle)

    def close(self) -> None:
        """Seal the active segment (final fsync point) and release handles.

        Idempotent; a closed store raises on further ingest but the object
        may simply be dropped -- reopening is ``DurableDataPortal(dir)``.
        """
        with self._lock:
            if self._closed:
                return
            if self._write_handle is not None and self.fsync_policy != "never":
                self._fsync(self._write_handle)
            self._close_handles()
            self._closed = True

    def _close_handles(self) -> None:
        """Close the write handle and every read handle (caller holds the
        store lock)."""
        if self._write_handle is not None:
            self._write_handle.close()
            self._write_handle = None
        for handle in self._read_handles.values():
            handle.close()
        self._read_handles.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DurableDataPortal({str(self.directory)!r}, n_runs={self.n_runs})"
