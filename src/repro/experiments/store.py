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
final line when loading a checkpoint.  :func:`load_checkpoint` reads a single
file or a :class:`ShardedStore` directory; a completed checkpoint *is* the
saved result.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from ..core.exceptions import ConfigurationError
from ..io import append_jsonl, read_jsonl
from .backends import WorkUnit
from .config import ExperimentPlan, plan_from_dict, plan_to_dict
from .runner import RunRecord, SweepResult

__all__ = [
    "plan_fingerprint",
    "JsonlCheckpointStore",
    "ShardedStore",
    "SweepStore",
    "as_store",
    "load_checkpoint",
    "load_sweep_result",
    "shard_paths",
]

#: What a ``from_dict`` raises on a row of the wrong shape: a missing key, a
#: value of the wrong type, a non-numeric string, a short list.
_MALFORMED_ROW = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _malformed_row(
    path: Path, number: int, exc: Exception, kind: str = "unit"
) -> ConfigurationError:
    """The one-line error for a checkpoint row this version cannot parse."""
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigurationError(
        f"{path} line {number} is not a {kind} row this version can "
        f"read ({detail}); refusing to load it"
    )


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
        except _MALFORMED_ROW as exc:
            raise _malformed_row(self.path, 1, exc, "header") from None
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
            except _MALFORMED_ROW as exc:
                raise _malformed_row(self.path, number, exc) from None
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


_SHARD_PATTERN = "shard-*.jsonl"


def shard_paths(root: Path) -> list[Path]:
    """The shard checkpoint files under ``root``, in canonical (sorted) order."""
    return sorted(Path(root).glob(_SHARD_PATTERN))


class ShardedStore:
    """A directory of per-shard checkpoint stores behind the single-store API.

    Campaigns that fan out across processes or nodes cannot share one
    append-only file (interleaved writers would tear lines); instead each
    writer appends to its own :class:`JsonlCheckpointStore` under a common
    directory — ``<root>/shard-0000.jsonl``, ``shard-0001.jsonl``, ... —
    and :func:`load_checkpoint` merges the shards.  Every shard carries the
    full fingerprinted header, so each file is independently resumable and a
    foreign shard dropped into the directory is refused exactly like a
    foreign single-store checkpoint.

    The class duck-types the store interface the driver uses
    (:meth:`initialize` / :meth:`append`, plus a ``path`` attribute for
    messages), so :func:`~repro.experiments.backends.run_units` takes a
    ``ShardedStore`` anywhere it takes a single store.  Units are routed to
    shards by ``unit.index % shards``; merging is keyed by unit index with
    first-shard-wins on duplicates, and the driver reassembles records in
    canonical unit order — so a sharded run is byte-identical to a
    single-store run of the same plan.

    ``store_type`` is the single-store class to instantiate per shard
    (:class:`SweepStore`, ``ValidationStore``); it is a constructor argument
    rather than an import so this module never depends on the stores defined
    elsewhere.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        store_type: type[JsonlCheckpointStore],
        shards: int | None = None,
    ) -> None:
        self.path = Path(root)
        self.store_type = store_type
        if shards is not None:
            shards = int(shards)
            if shards < 1:
                raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    # ------------------------------------------------------------------ #
    def _shard_path(self, shard: int) -> Path:
        return self.path / f"shard-{shard:04d}.jsonl"

    def _existing_shards(self) -> list[JsonlCheckpointStore]:
        return [self.store_type(path) for path in shard_paths(self.path)]

    def shard_for(self, index: int) -> JsonlCheckpointStore:
        """The shard store a unit index routes to (``index % shards``)."""
        if self.shards is None:
            raise ConfigurationError(
                f"{self.path}: shard count not yet resolved; initialize() the "
                f"store before appending to it"
            )
        return self.store_type(self._shard_path(index % self.shards))

    # -- the store interface the drivers use ---------------------------- #
    def initialize(self, plan, *, resume: bool = False, units: list | None = None) -> dict:
        """Prepare every shard for a run of ``plan``; return merged completed units.

        Fresh: the directory is created and each of the ``shards`` files gets
        a fingerprinted header (populated shard files are refused by the
        underlying store, exactly like a populated single-store path).
        Resume: every existing ``shard-*.jsonl`` is resumed through the
        underlying store — fingerprint check, sharding check and torn-tail
        repair per shard — their completed units merged first-shard-wins,
        and any shard files the current shard count calls for but the
        directory lacks are created fresh, so a run resumed with a wider
        shard count just starts routing to the new files.
        """
        if resume:
            existing = self._existing_shards()
            if not existing:
                raise ConfigurationError(
                    f"{self.path} holds no shard checkpoints ({_SHARD_PATTERN}); "
                    f"nothing to resume (check the path, or drop resume to start fresh)"
                )
            if self.shards is None:
                self.shards = len(existing)
            completed: dict[int, list] = {}
            for shard in existing:
                for index, records in shard.initialize(
                    plan, resume=True, units=units
                ).items():
                    completed.setdefault(index, records)
            for number in range(self.shards):
                if not self._shard_path(number).exists():
                    self.store_type(self._shard_path(number)).initialize(plan)
            return completed
        if self.shards is None:
            raise ConfigurationError(
                f"{self.path}: a fresh sharded checkpoint needs an explicit "
                f"shard count (pass shards=N)"
            )
        stale = [path for path in shard_paths(self.path) if path not in
                 {self._shard_path(number) for number in range(self.shards)}]
        if stale:
            raise ConfigurationError(
                f"{self.path} already holds shard files beyond the requested "
                f"{self.shards} shard(s) ({stale[0].name}, ...); resume the "
                f"checkpoint, or delete the directory to start over"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        for number in range(self.shards):
            self.store_type(self._shard_path(number)).initialize(plan)
        return {}

    def append(self, unit, records: list) -> None:
        """Checkpoint one completed unit into its shard (durable append)."""
        self.shard_for(unit.index).append(unit, records)


def as_store(store, store_type: type[JsonlCheckpointStore]):
    """The store a driver's ``store`` argument names.

    A directory path becomes a :class:`ShardedStore` of ``store_type`` shards
    (resumable; a fresh sharded run needs an explicit shard count), any other
    path a single ``store_type`` file; store objects and ``None`` pass
    through unchanged.
    """
    if isinstance(store, (str, Path)):
        if Path(store).is_dir():
            return ShardedStore(store, store_type=store_type)
        return store_type(store)
    return store


def load_checkpoint(path: str | Path, store_type: type[JsonlCheckpointStore]) -> tuple:
    """Read a checkpoint: ``(plan, units, records)``, both in canonical unit order.

    ``path`` is a single ``store_type`` file or a :class:`ShardedStore`
    directory of ``shard-*.jsonl`` files.  Shards are merged under the plan
    fingerprint of the first one — first shard wins on a duplicate unit, a
    shard with a foreign fingerprint is refused — and the completed units and
    their concatenated records come back in canonical unit order, so a
    sharded checkpoint reads byte-identically to a single-file one.
    Completeness is the caller's check.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"{path} does not exist")
    paths = shard_paths(path) if path.is_dir() else [path]
    if not paths:
        raise ConfigurationError(
            f"{path} is a directory holding no shard checkpoints "
            f"({_SHARD_PATTERN}); not a sharded {store_type.data_description} store"
        )
    plan = None
    completed: dict[int, list] = {}
    units: dict = {}
    for shard in paths:
        # passing the first shard's plan makes _load_checkpoint refuse any
        # shard with a foreign fingerprint — one directory, one run
        shard_plan, shard_completed, shard_units = store_type(shard)._load_checkpoint(plan)
        if plan is None:
            plan = shard_plan
        for index, records in shard_completed.items():
            if index not in completed:
                completed[index] = records
                units[index] = shard_units[index]
    order = sorted(completed)
    return plan, [units[index] for index in order], [
        record for index in order for record in completed[index]
    ]


def load_sweep_result(path: str | Path, *, allow_partial: bool = False) -> SweepResult:
    """Read a sweep checkpoint (a file or a shard directory) as a result.

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
