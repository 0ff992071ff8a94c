"""Persistence for sweeps and campaigns: append-only JSONL checkpoints.

File format (one JSON object per line):

* line 1 — a header ``{"kind": "header", "version": 1, "fingerprint": ...,
  "plan": {...}}`` where ``fingerprint`` is the SHA-256 of the canonical plan
  serialisation.  Resuming against a file whose fingerprint does not match
  the current plan is refused — a checkpoint is only valid for the exact
  sweep that produced it.  ``version`` is the store's format
  (:attr:`JsonlCheckpointStore.store_version`): 1 for sweeps, 3 for
  validation campaigns; a file in any other format is refused.
* every later line — a unit row ``{"kind": "unit", "unit": {...},
  "records": [...]}``: one completed work unit.  Any other row is refused
  with its line number.

Each appended line is flushed and fsynced, so a run killed mid-append loses
at most the line being written; :func:`repro.io.read_jsonl` drops a truncated
final line when loading a checkpoint.  A checkpoint is one file per stage
(a directory is refused); a completed checkpoint *is* the saved result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from ..core.exceptions import ConfigurationError
from ..io import MALFORMED_ROW_ERRORS, append_jsonl, malformed_row, read_jsonl
from .backends import WorkUnit
from .config import ExperimentPlan, plan_from_dict, plan_to_dict
from .runner import RunRecord, SweepResult

__all__ = [
    "plan_fingerprint",
    "JsonlCheckpointStore",
    "SweepStore",
    "as_store",
    "load_checkpoint",
    "load_sweep_result",
]


def plan_fingerprint(plan: ExperimentPlan) -> str:
    """SHA-256 of the canonical plan serialisation (hex digest)."""
    canonical = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class JsonlCheckpointStore:
    """Shared machinery of the append-only JSONL checkpoint stores.

    One fingerprinted header line followed by one fsynced line per completed
    work unit.  Sub-classes (:class:`SweepStore` here, ``ValidationStore`` in
    :mod:`repro.experiments.validation`) say what a plan, a unit and a record
    are through the ``_fingerprint`` / ``_plan_to_dict`` / ``_plan_from_dict``
    / ``_unit_from_dict`` / ``_record_from_dict`` hooks; the base class owns
    everything they share — the initialize/resume flow, checkpoint parsing,
    sharding verification, refusal to overwrite populated or foreign files,
    and pruning of a torn tail line before a resumed run appends past it.
    The path names one file; a directory is refused when the store is built.

    ``data_description`` labels the file kind in error messages;
    ``store_marker`` is written to (and required of) the header's ``"store"``
    field — the original sweep format predates the field and leaves it unset;
    ``store_version`` is written to (and required of) its ``"version"``;
    ``rerun_note`` ends the refusal of an older format.
    """

    data_description = "sweep"
    store_marker: str | None = None
    store_version = 1
    rerun_note = ""
    run_noun = "sweep"        # "start a fresh <run_noun>" in resume errors
    plan_noun = "plan"        # "written by a different <plan_noun>"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise ConfigurationError(
                f"{self.path} is a directory; a {self.data_description} checkpoint "
                f"is one JSONL file"
            )

    # -- subclass hooks -------------------------------------------------- #
    @staticmethod
    def _fingerprint(plan) -> str:
        raise NotImplementedError

    @staticmethod
    def _plan_to_dict(plan) -> dict:
        raise NotImplementedError

    @staticmethod
    def _plan_from_dict(data):
        raise NotImplementedError

    @staticmethod
    def _unit_from_dict(data):
        raise NotImplementedError

    @staticmethod
    def _record_from_dict(data):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def initialize(self, plan, *, resume: bool = False, units: list | None = None) -> dict:
        """Prepare the file for a run of ``plan``; return completed units.

        Without ``resume`` the file is created with a fresh header and ``{}``
        is returned; a file that already holds data is refused (it must be
        resumed or deleted explicitly, never silently overwritten).  With
        ``resume`` the file must exist (a missing path is an error, not a
        fresh start — it is usually a typo), its fingerprint must match
        ``plan`` and, when the current work-unit list ``units`` is given,
        each checkpointed unit must match its counterpart (same sharding —
        a different ``chunk_size`` changes what a unit index means);
        completed units are returned keyed by unit index so the driver can
        skip them.
        """
        if resume:
            if not self.path.exists():
                raise ConfigurationError(
                    f"{self.path} does not exist; nothing to resume "
                    f"(check the path, or drop resume to start a fresh {self.run_noun})"
                )
            _, completed, stored_units = self._load_checkpoint(plan)
            if units is not None:
                self._check_sharding(stored_units, units)
            self._repair_truncated_tail()
            return completed
        self._begin_fresh_file(self._header(plan))
        return {}

    def append(self, unit, records: list) -> None:
        """Checkpoint one completed work unit (durable append)."""
        append_jsonl(
            self.path,
            {
                "kind": "unit",
                "unit": unit.as_dict(),
                "records": [record.as_dict() for record in records],
            },
        )

    # ------------------------------------------------------------------ #
    def _header(self, plan) -> dict:
        header: dict = {"kind": "header", "version": self.store_version}
        if self.store_marker is not None:
            header["store"] = self.store_marker
        header["fingerprint"] = self._fingerprint(plan)
        header["plan"] = self._plan_to_dict(plan)
        return header

    def _check_sharding(self, stored_units: dict, units: list) -> None:
        for index, unit in stored_units.items():
            stored = unit.as_dict()
            current = units[index].as_dict() if 0 <= index < len(units) else None
            if current != stored:
                raise ConfigurationError(
                    f"{self.path} was checkpointed with a different work-unit sharding "
                    f"(unit {index}: stored {stored}, current {current}); resume with "
                    f"the same chunk_size the original run used"
                )

    def _load_checkpoint(self, plan) -> tuple:
        """Parse the checkpoint: (stored plan, records per unit, units per index)."""
        rows = read_jsonl(self.path, ignore_truncated=True)
        if not rows:
            raise ConfigurationError(
                f"{self.path} is empty, not a {self.data_description} checkpoint"
            )
        header = self._check_header_row(rows[0])
        try:
            stored_plan = self._plan_from_dict(header["plan"])
            fingerprint = str(header["fingerprint"])
        except MALFORMED_ROW_ERRORS as exc:
            raise malformed_row(self.path, 1, exc, "header") from None
        if plan is not None and fingerprint != self._fingerprint(plan):
            raise ConfigurationError(
                f"{self.path} was written by a different {self.plan_noun} "
                f"(fingerprint {fingerprint[:12]}... != "
                f"{self._fingerprint(plan)[:12]}...); refusing to resume"
            )
        completed: dict[int, list] = {}
        stored_units: dict = {}
        for number, row in enumerate(rows[1:], start=2):
            if not isinstance(row, Mapping) or row.get("kind") != "unit":
                raise ConfigurationError(
                    f"{self.path} line {number} is not a unit row; a "
                    f"{self.data_description} checkpoint holds one header line "
                    f"and unit rows only"
                )
            try:
                unit = self._unit_from_dict(row["unit"])
                records = [self._record_from_dict(entry) for entry in row["records"]]
            except MALFORMED_ROW_ERRORS as exc:
                raise malformed_row(self.path, number, exc, "unit") from None
            completed[unit.index] = records
            stored_units[unit.index] = unit
        return stored_plan, completed, stored_units

    # ------------------------------------------------------------------ #
    def _check_header_row(self, row: Mapping) -> Mapping:
        if not isinstance(row, Mapping) or row.get("kind") != "header":
            raise ConfigurationError(
                f"{self.path} does not start with a {self.data_description} header line"
            )
        # the kind first: a checkpoint of the other kind is named as such,
        # whatever format version it carries
        if row.get("store") != self.store_marker:
            raise ConfigurationError(
                f"{self.path} is a {row.get('store') or 'sweep'} checkpoint, not a "
                f"{self.data_description} checkpoint; refusing to touch it"
            )
        version = row.get("version")
        if version != self.store_version:
            if isinstance(version, int) and version < self.store_version:
                raise ConfigurationError(
                    f"{self.path} predates {self.data_description} checkpoint format "
                    f"{self.store_version} (it has format {version}); re-run the "
                    f"{self.run_noun} into a fresh checkpoint{self.rerun_note}"
                )
            raise ConfigurationError(
                f"{self.path} has store version {version!r}, expected {self.store_version}"
            )
        return row

    def _begin_fresh_file(self, header: Mapping) -> None:
        """Refuse unsafe overwrites, then (re)create the file with ``header``."""
        if self.path.exists():
            refusal = self._overwrite_refusal()
            if refusal is not None:
                raise ConfigurationError(refusal)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        append_jsonl(self.path, header)

    def _overwrite_refusal(self) -> str | None:
        """Why the existing file must not be overwritten (``None`` if it may).

        Only an empty file or a bare header (an aborted run that never
        completed a unit) may be recreated.  Everything else is refused,
        conservatively: a header followed by any row at all, an unreadable
        file (a corrupt interior line in an otherwise recoverable
        checkpoint), and any file that is not a checkpoint at all (a mistyped
        ``--out`` pointing at unrelated data).
        """
        try:
            rows = read_jsonl(self.path, ignore_truncated=True)
        except ConfigurationError:
            return (
                f"{self.path} exists but cannot be parsed; refusing to overwrite it "
                f"(delete the file to start over)"
            )
        if not rows:
            if self.path.stat().st_size > 0:
                # non-empty but nothing parsed: a lone malformed line is
                # forgiven by read_jsonl, yet the file is not ours to wipe
                return (
                    f"{self.path} exists and is not a {self.data_description} checkpoint; "
                    f"refusing to overwrite it (pick another path or delete the file)"
                )
            return None
        first = rows[0]
        if not (isinstance(first, dict) and first.get("kind") == "header"):
            return (
                f"{self.path} exists and is not a {self.data_description} checkpoint; "
                f"refusing to overwrite it (pick another path or delete the file)"
            )
        if first.get("store") != self.store_marker:
            # even a header-only file of the *other* checkpoint kind is not
            # ours to wipe — the cross-store discipline holds for overwrites
            # exactly as it does for resumes
            return (
                f"{self.path} is a {first.get('store') or 'sweep'} checkpoint, not a "
                f"{self.data_description} checkpoint; refusing to overwrite it "
                f"(pick another path or delete the file)"
            )
        if rows[1:]:
            return (
                f"{self.path} already holds {self.data_description} data; resume the "
                f"checkpoint with resume=True (--resume on the command line), or delete "
                f"the file to start over"
            )
        return None

    def _repair_truncated_tail(self) -> None:
        """Prune trailing garbage left behind by a kill mid-append.

        ``read_jsonl`` forgives a malformed *final* line, but once the
        resumed run appends new units that line becomes an interior one and
        the file is permanently unreadable — so before anything is appended
        the tail is truncated back to the last line that parses as JSON
        (restoring a missing final newline on the way).
        """
        data = self.path.read_bytes()
        if not data:
            return
        end = len(data)
        needs_newline = False
        while end > 0:
            content_end = end - 1 if data[end - 1] == 0x0A else end
            boundary = data.rfind(b"\n", 0, content_end)
            segment = data[boundary + 1 : content_end]
            if segment.strip():
                try:
                    json.loads(segment.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass
                else:
                    needs_newline = content_end == end  # valid line missing its \n
                    break
            end = boundary + 1  # drop the blank/garbage segment, look further back
        if end == len(data) and not needs_newline:
            return
        with self.path.open("r+b") as handle:
            handle.truncate(end)
            if needs_newline:
                handle.seek(0, 2)
                handle.write(b"\n")


class SweepStore(JsonlCheckpointStore):
    """Append-only JSONL checkpoint store for one sweep file."""

    _fingerprint = staticmethod(plan_fingerprint)
    _plan_to_dict = staticmethod(plan_to_dict)
    _plan_from_dict = staticmethod(plan_from_dict)
    _unit_from_dict = staticmethod(WorkUnit.from_dict)
    _record_from_dict = staticmethod(RunRecord.from_dict)


def as_store(store, store_type: type[JsonlCheckpointStore]):
    """The store a driver's ``store`` argument names.

    A path becomes a ``store_type`` file; store objects and ``None`` pass
    through unchanged.
    """
    if isinstance(store, (str, Path)):
        return store_type(store)
    return store


def load_checkpoint(path: str | Path, store_type: type[JsonlCheckpointStore]) -> tuple:
    """Read a checkpoint: ``(plan, units, records)``, both in canonical unit order.

    Completeness is the caller's check.
    """
    store = store_type(path)
    if not store.path.exists():
        raise ConfigurationError(f"{path} does not exist")
    plan, completed, units = store._load_checkpoint(None)
    order = sorted(completed)
    return plan, [units[index] for index in order], [
        record for index in order for record in completed[index]
    ]


def load_sweep_result(path: str | Path, *, allow_partial: bool = False) -> SweepResult:
    """Read a sweep checkpoint file as a result.

    A checkpoint holding fewer records than its header's plan calls for (an
    interrupted, never-resumed sweep) is refused unless ``allow_partial`` —
    figure aggregations over silently incomplete sweeps produce misleading
    curves.
    """
    plan, _, records = load_checkpoint(path, SweepStore)
    if len(records) != plan.num_records and not allow_partial:
        raise ConfigurationError(
            f"{path} holds {len(records)} of the {plan.num_records} records its plan "
            f"calls for (incomplete sweep); resume it, or pass allow_partial=True to "
            f"load it anyway"
        )
    return SweepResult(plan=plan, records=records)
