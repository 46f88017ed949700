"""A local, searchable data portal (stand-in for the ACDC Globus Search portal).

The portal stores published :class:`~repro.publish.records.RunRecord` entries,
indexes a handful of searchable fields, and can produce the two views shown in
the paper's Figure 3:

* the **summary view** of an experiment (number of runs, total samples, best
  score, thumbnails of the plate images), and
* the **detail view** of a single run (per-sample volumes, colours, scores,
  timing breakdown).

Two backends implement one contract (:class:`PortalBackend`):

* :class:`DataPortal` -- the in-memory store, and
* :class:`~repro.publish.store.DurableDataPortal` -- the one persisted
  store: append-only JSONL segments with crash recovery and compaction,
  documented in ``docs/portal.md``.

Both expose the same queries, the same Figure-3 views, the same
``DuplicateRunError``/``overwrite=True``/``version()`` write contract, and
the same cursor-based :meth:`PortalBackend.search_page` pagination, and
both hand out a record of its own on every read -- the parity property
suite (``tests/properties/test_portal_parity.py``) holds the two to
byte-identical observable behaviour.

Consistency, duplicates and thread safety
-----------------------------------------

:class:`DataPortal` is an **in-process, single-threaded** store: it takes no
locks, and concurrent mutation from several OS threads is not supported.  It
*is* safe to ingest from inside a fleet's merged event loop (the
:class:`~repro.wei.coordinator.MultiWorkcellCoordinator` streams each run's
record as the owning shard completes it): every mutation is applied
synchronously, so a record is visible to every query -- ``get_run``,
``search``, the Figure-3 views -- the moment :meth:`DataPortal.ingest`
returns, including to later run listeners of the same completion event.
(The durable backend additionally supports concurrent ingest from many
threads; see its docstring.)

Duplicate ``run_id``\\ s are **rejected, never silently clobbered**: a second
``ingest`` of an existing run raises :class:`DuplicateRunError` unless the
caller passes ``overwrite=True``, which performs an explicit *versioned
overwrite* -- the new record replaces the old one and the run's version
counter (:meth:`DataPortal.version`) increments.  (The durable backend
records the version in every appended envelope, so its counters survive
reopen.)
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.publish.records import ExperimentRecord, RunRecord

__all__ = [
    "PortalQueryError",
    "DuplicateRunError",
    "SearchPage",
    "PortalBackend",
    "DataPortal",
]


class PortalQueryError(KeyError):
    """Raised when a query references an unknown experiment or run."""


class DuplicateRunError(ValueError):
    """Raised when ingesting a ``run_id`` the portal already holds.

    Pass ``overwrite=True`` to :meth:`DataPortal.ingest` to replace the
    stored record explicitly (a versioned overwrite) instead.
    """


def _page_key(record: RunRecord) -> Tuple[str, int, str]:
    """The total order pagination walks: ``(experiment_id, run_index, run_id)``.

    ``run_id`` breaks ties so the order is stable under concurrent ingest --
    a cursor always names one exact position, never "somewhere between two
    equal keys".
    """
    return (record.experiment_id, record.run_index, record.run_id)


def _encode_cursor(key: Tuple[str, int, str]) -> str:
    """Opaque, URL-safe token naming the last-returned pagination key."""
    raw = json.dumps(list(key), separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii")


def _decode_cursor(cursor: str) -> Tuple[str, int, str]:
    """Inverse of :func:`_encode_cursor`; malformed tokens raise
    :class:`PortalQueryError` (a client bug, not a server state)."""
    try:
        parts = json.loads(base64.urlsafe_b64decode(cursor.encode("ascii")))
        experiment_id, run_index, run_id = parts
        return (str(experiment_id), int(run_index), str(run_id))
    except (ValueError, TypeError, KeyError):
        raise PortalQueryError(f"malformed search cursor {cursor!r}") from None


@dataclass
class SearchPage:
    """One page of :meth:`PortalBackend.search_page` results.

    ``next_cursor`` is ``None`` on the final page; otherwise pass it back to
    ``search_page`` (with the *same* filters) to fetch the next page.  The
    ordering is the stable total order ``(experiment_id, run_index,
    run_id)``, so walking every page yields each matching record exactly
    once even while new records are being ingested (records sorting before
    an already-consumed cursor are simply not revisited).
    """

    records: List[RunRecord] = field(default_factory=list)
    next_cursor: Optional[str] = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.records)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the CLI ``portal export`` page shape)."""
        return {
            "records": [record.to_dict() for record in self.records],
            "next_cursor": self.next_cursor,
        }


class PortalBackend:
    """The contract both portal backends implement, plus the shared logic.

    Subclasses provide the storage primitives (``ingest``, ``version``,
    ``get_run``, ``get_experiment``, ``search``, ``search_page``, the
    counters); this base supplies everything defined *in terms of* those --
    the Figure-3 views, the context-manager lifecycle -- and the single
    filter implementation (:meth:`_matches`) and cursor encoding so the two
    backends cannot drift on search semantics.  Every read hands out records
    of its own: mutating a returned record changes neither the portal nor a
    later read.
    """

    #: Human-readable backend name (CLI / stats / test ids).
    backend_name = "abstract"

    # -- storage primitives (subclass responsibilities) -------------------
    def ingest(self, record: RunRecord, *, overwrite: bool = False) -> None:
        raise NotImplementedError

    def version(self, run_id: str) -> int:
        raise NotImplementedError

    @property
    def n_runs(self) -> int:
        raise NotImplementedError

    @property
    def n_experiments(self) -> int:
        raise NotImplementedError

    def experiment_ids(self) -> List[str]:
        raise NotImplementedError

    def get_run(self, run_id: str) -> RunRecord:
        raise NotImplementedError

    def get_experiment(self, experiment_id: str) -> ExperimentRecord:
        raise NotImplementedError

    def search(
        self,
        *,
        experiment_id: Optional[str] = None,
        solver: Optional[str] = None,
        max_best_score: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[RunRecord]:
        raise NotImplementedError

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
        """One page of matching records in stable ``(experiment_id,
        run_index, run_id)`` order.

        ``limit`` caps the page size; ``cursor`` (from a previous page's
        ``next_cursor``) resumes strictly *after* the last returned record.
        """
        raise NotImplementedError

    # -- shared write-contract helpers ------------------------------------
    @staticmethod
    def _validate_record(record: RunRecord) -> None:
        """The ingest preconditions both backends enforce identically."""
        if not record.run_id:
            raise ValueError("run record must have a non-empty run_id")
        if not record.experiment_id:
            raise ValueError("run record must have a non-empty experiment_id")

    @staticmethod
    def _duplicate_error(run_id: str, version: int) -> DuplicateRunError:
        """The one duplicate-rejection message, so parity holds to the byte."""
        return DuplicateRunError(
            f"portal already holds run {run_id!r} "
            f"(version {version}); "
            "pass overwrite=True for an explicit versioned overwrite"
        )

    @staticmethod
    def _matches(
        record: RunRecord,
        experiment_id: Optional[str],
        solver: Optional[str],
        max_best_score: Optional[float],
        metadata: Optional[Dict[str, Any]],
    ) -> bool:
        """The single search-filter implementation (all criteria must match)."""
        if experiment_id is not None and record.experiment_id != experiment_id:
            return False
        if solver is not None and record.solver != solver:
            return False
        if max_best_score is not None and record.best_score > max_best_score:
            return False
        if metadata:
            if any(record.metadata.get(key) != value for key, value in metadata.items()):
                return False
        return True

    # -- Figure-3-style views ----------------------------------------------
    def summary_view(self, experiment_id: str) -> Dict[str, Any]:
        """The experiment summary view (left panel of Figure 3)."""
        experiment = self.get_experiment(experiment_id)
        return {
            "experiment_id": experiment_id,
            "n_runs": experiment.n_runs,
            "samples_per_run": [run.n_samples for run in experiment.runs],
            "total_samples": experiment.n_samples,
            "best_score": experiment.best_score if experiment.runs else None,
            "solvers": sorted({run.solver for run in experiment.runs if run.solver}),
            "images": [run.image_reference for run in experiment.runs if run.image_reference],
        }

    def detail_view(self, run_id: str) -> Dict[str, Any]:
        """The per-run detail view (right panel of Figure 3)."""
        record = self.get_run(run_id)
        return {
            "run_id": record.run_id,
            "experiment_id": record.experiment_id,
            "run_index": record.run_index,
            "target_rgb": list(record.target_rgb),
            "solver": record.solver,
            "n_samples": record.n_samples,
            "best_score": record.best_score if record.samples else None,
            "best_sample": record.best_sample.to_dict() if record.best_sample else None,
            "timings": dict(record.timings),
            "samples": [sample.to_dict() for sample in record.samples],
        }

    # -- lifecycle ----------------------------------------------------------
    def sync(self) -> None:
        """Force buffered state to stable storage (no-op for in-memory)."""

    def close(self) -> None:
        """Release storage resources; queries after close are undefined."""

    def __enter__(self) -> "PortalBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DataPortal(PortalBackend):
    """In-memory run-record store with search.

    Nothing is persisted: use :class:`~repro.publish.store.DurableDataPortal`
    for records that must outlive the process.  Not thread-safe; see the
    module docstring for the consistency model (mutations are visible to
    every query as soon as the mutating call returns).
    """

    backend_name = "memory"

    def __init__(self) -> None:
        self._runs: Dict[str, RunRecord] = {}
        #: Experiment -> its run ids in first-publication order (a dict
        #: used as an insertion-ordered set, as in the durable store).
        self._experiments: Dict[str, Dict[str, None]] = {}
        self._versions: Dict[str, int] = {}
        self.ingest_count = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, record: RunRecord, *, overwrite: bool = False) -> None:
        """Store one run record; visible to all queries on return.

        A ``run_id`` the portal already holds raises
        :class:`DuplicateRunError` unless ``overwrite=True``, in which case
        the stored record is replaced and the run's version counter
        (:meth:`version`) increments -- re-publication is an explicit,
        observable event, never a silent clobber.
        """
        self._validate_record(record)
        previous = self._runs.get(record.run_id)
        if previous is not None and not overwrite:
            raise self._duplicate_error(record.run_id, self._versions[record.run_id])
        if previous is not None and previous.experiment_id != record.experiment_id:
            # An overwrite that moves the run between experiments must leave
            # no trace under the old one.
            old_runs = self._experiments[previous.experiment_id]
            del old_runs[record.run_id]
            if not old_runs:
                del self._experiments[previous.experiment_id]
        self._runs[record.run_id] = record
        self._versions[record.run_id] = self._versions.get(record.run_id, 0) + 1
        self._experiments.setdefault(record.experiment_id, {})[record.run_id] = None
        self.ingest_count += 1

    def version(self, run_id: str) -> int:
        """How many times ``run_id`` has been ingested (1 = never overwritten)."""
        try:
            return self._versions[run_id]
        except KeyError:
            raise PortalQueryError(f"unknown run id {run_id!r}") from None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Total number of stored run records."""
        return len(self._runs)

    @property
    def n_experiments(self) -> int:
        """Number of distinct experiments with at least one run."""
        return len(self._experiments)

    def experiment_ids(self) -> List[str]:
        """All experiment ids in insertion order."""
        return list(self._experiments)

    def get_run(self, run_id: str) -> RunRecord:
        """Fetch a run record by id (the latest version, if overwritten)."""
        try:
            return _fresh(self._runs[run_id])
        except KeyError:
            raise PortalQueryError(f"unknown run id {run_id!r}") from None

    def get_experiment(self, experiment_id: str) -> ExperimentRecord:
        """Assemble the experiment record for ``experiment_id``.

        Runs are sorted by ``run_index``, so a campaign streamed out of
        shard-completion order still reads back as one ordered experiment.
        """
        if experiment_id not in self._experiments:
            raise PortalQueryError(f"unknown experiment id {experiment_id!r}")
        runs = [_fresh(self._runs[run_id]) for run_id in self._experiments[experiment_id]]
        runs.sort(key=lambda run: run.run_index)
        return ExperimentRecord(experiment_id=experiment_id, runs=runs)

    def search(
        self,
        *,
        experiment_id: Optional[str] = None,
        solver: Optional[str] = None,
        max_best_score: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[RunRecord]:
        """Search run records by indexed fields (all criteria must match).

        Results are sorted by ``(experiment_id, run_index)`` and reflect
        every ingest that returned before this call.
        """
        matches = self._stored_matches(experiment_id, solver, max_best_score, metadata)
        return [_fresh(record) for record in matches]

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
        """One page of :meth:`search`'s matches in ``(experiment_id,
        run_index, run_id)`` order, resuming strictly after ``cursor``."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        matches = self._stored_matches(experiment_id, solver, max_best_score, metadata)
        matches.sort(key=_page_key)
        if cursor is not None:
            after = _decode_cursor(cursor)
            matches = [record for record in matches if _page_key(record) > after]
        page = matches[:limit]
        next_cursor = _encode_cursor(_page_key(page[-1])) if len(matches) > limit else None
        return SearchPage(records=[_fresh(record) for record in page], next_cursor=next_cursor)

    def _stored_matches(
        self,
        experiment_id: Optional[str],
        solver: Optional[str],
        max_best_score: Optional[float],
        metadata: Optional[Dict[str, Any]],
    ) -> List[RunRecord]:
        """The stored records (not copies) that match, by ``(experiment_id, run_index)``."""
        results = [
            record
            for record in self._runs.values()
            if self._matches(record, experiment_id, solver, max_best_score, metadata)
        ]
        results.sort(key=lambda record: (record.experiment_id, record.run_index))
        return results


def _fresh(record: RunRecord) -> RunRecord:
    """A copy of a stored record that shares no container with it, as each
    durable read (decoded from its own line) is."""
    data = record.to_dict()
    data["metadata"] = _copied(record.metadata)
    return RunRecord.from_checked_dict(data)


def _copied(value: Any) -> Any:
    """``value`` with every dict and list in it copied: a deep copy of the
    JSON-shaped metadata the durable backend stores, ~4x cheaper than
    ``copy.deepcopy`` on a campaign record's metadata."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copied(item) for item in value]
    return value
