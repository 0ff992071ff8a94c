"""Result memoisation: a JSONL-backed cross-campaign cache of computed records.

The sweep and validation drivers recompute every cell of their grids on every
run, even when an identical study already produced the records — the common
case when many similar pipelines are dimensioned (ROADMAP item 2).  This
module adds the missing layer: a :class:`ResultMemoStore` keyed on
``(study key, cell key)`` that serves previously-computed record dicts
byte-identically, across store directories and campaigns.

Keys are content fingerprints, never labels:

* the **study key** hashes everything that determines how a cell's records
  are computed but is shared by all cells — for a sweep, the workload setting,
  base seed and the full algorithm line-up (plus the ``check`` and
  ``capture_allocations`` execution switches, which change record content);
  for a validation campaign, the sweep plan it replays plus the warm-up
  fraction, data-set cap, screen tier and record format (so cells cached
  under an older seeding miss).  Plan *names* and grid extents
  (``num_configurations``, ``target_throughputs``, horizons, multipliers)
  are deliberately excluded: they are labels or outer-loop bounds, so a
  bigger sweep reuses the cells of a smaller one.  A campaign unit spans
  every horizon and is served only when all its cells hit, so adding a
  horizon to a memoised campaign recomputes whole units, each simulated to
  the longest horizon even when the added one is shorter.
* the **cell key** hashes the one grid cell: ``(configuration index, rho)``
  for a sweep cell, ``(source, horizon, rate multiplier, scenario)`` for a
  validation cell — with the source's captured allocation payload included,
  so a cell is never served records simulated from a different allocation.

Both keys go through :func:`~repro.utils.rng.stable_text_digest` over the
canonical (sorted, separator-free) JSON form, so they are identical across
interpreter runs, worker processes and machines.

The file format is the repo's usual append-only JSONL: a header line
``{"kind": "header", "store": "memo", "version": 1}`` followed by one fsynced
``{"kind": "memo", "study": ..., "cell": ..., "records": [...]}`` line per
cached cell.  Appends are durable (:func:`repro.io.append_jsonl`) and
serialised by an advisory ``fcntl`` lock on a ``.lock`` sidecar, so service
job threads, pool workers and concurrent CLI runs may share one cache file
without interleaved torn lines; a torn final line (a writer killed
mid-append) is dropped on load, and duplicate keys are tolerated (last
write wins — cached records are deterministic, so duplicates are identical).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

try:
    import fcntl
except ImportError:  # non-POSIX platform: appends stay unlocked, as before
    fcntl = None  # type: ignore[assignment]

from ..core.exceptions import ConfigurationError
from ..io import MALFORMED_ROW_ERRORS, append_jsonl, malformed_row, read_jsonl
from ..utils.rng import stable_text_digest

__all__ = [
    "MemoStats",
    "ResultMemoStore",
    "default_memo_path",
    "memo_key",
]

_MEMO_VERSION = 1


def memo_key(data: Mapping[str, Any]) -> str:
    """The canonical fingerprint of a key payload (32 hex chars).

    Hashes the sorted, separator-free JSON form with
    :func:`~repro.utils.rng.stable_text_digest` (128 bits), so the key is
    stable across interpreter runs and ``PYTHONHASHSEED`` s — two processes
    computing the key of the same payload always agree.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return f"{stable_text_digest(canonical, bits=128):032x}"


def default_memo_path() -> Path:
    """Where the cache lives when no explicit path is configured.

    ``REPRO_MEMO_PATH`` wins outright; otherwise the XDG cache directory
    (``$XDG_CACHE_HOME`` or ``~/.cache``) under ``repro-cloud/``.  The cache
    deliberately lives *outside* any study's ``store_dir`` — serving results
    across store directories is the point.
    """
    explicit = os.environ.get("REPRO_MEMO_PATH")
    if explicit:
        return Path(explicit)
    cache_root = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_root) if cache_root else Path.home() / ".cache"
    return base / "repro-cloud" / "result-memo.jsonl"


@contextmanager
def _advisory_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``<path>.lock`` for the block's duration.

    Serialises appends when several processes — service job threads, pool
    workers, concurrent CLI runs — share one memo file: each writer's
    header-check + append happens atomically, so the file gains exactly one
    header and no interleaved (torn) entry lines.  The lock lives in a
    sidecar file so lock acquisition never touches the cache file itself;
    closing the descriptor releases the lock even if the process dies
    mid-append.  On platforms without ``fcntl`` the block simply runs
    unlocked (single-writer behaviour is unchanged).
    """
    if fcntl is None:
        yield
        return
    lock_file = os.open(
        path.with_name(path.name + ".lock"), os.O_CREAT | os.O_RDWR, 0o644
    )
    try:
        fcntl.flock(lock_file, fcntl.LOCK_EX)
        yield
    finally:
        os.close(lock_file)


@dataclass
class MemoStats:
    """Hit/miss counts of one driver run (cells, not units)."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


class ResultMemoStore:
    """Append-only JSONL cache of computed records, keyed on content fingerprints.

    ``lookup``/``put`` work on plain record *dicts* (the ``as_dict`` form the
    checkpoint stores serialise), so a served cell round-trips through exactly
    the JSON representation a recomputation would have checkpointed —
    byte-identity of memo-served and recomputed campaigns rests on this.
    The file is loaded lazily on first access and kept as an in-memory index
    for the store's lifetime; ``put`` is write-through (fsynced append).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._entries: "dict[tuple[str, str], list] | None" = None

    # ------------------------------------------------------------------ #
    def _load(self) -> dict:
        if self._entries is not None:
            return self._entries
        entries: dict[tuple[str, str], list] = {}
        if self.path.exists():
            rows = read_jsonl(self.path, ignore_truncated=True)
            if rows:
                self._check_header(rows[0])
            for number, row in enumerate(rows[1:], start=2):
                if not isinstance(row, Mapping) or row.get("kind") != "memo":
                    raise ConfigurationError(
                        f"{self.path} line {number} is not a memo entry; "
                        f"refusing to use the file as a result cache"
                    )
                try:
                    key = (str(row["study"]), str(row["cell"]))
                    records = row["records"]
                    if not isinstance(records, list) or not all(
                        isinstance(record, dict) for record in records
                    ):
                        raise TypeError("records is not a list of objects")
                except MALFORMED_ROW_ERRORS as exc:
                    raise malformed_row(self.path, number, exc, "memo") from None
                entries[key] = records
        self._entries = entries
        return entries

    def _check_header(self, row: Any) -> None:
        if (
            not isinstance(row, Mapping)
            or row.get("kind") != "header"
            or row.get("store") != "memo"
        ):
            raise ConfigurationError(
                f"{self.path} is not a result-memo cache (bad or missing header); "
                f"pick another path or delete the file"
            )
        if row.get("version") != _MEMO_VERSION:
            raise ConfigurationError(
                f"{self.path} has memo version {row.get('version')!r}, "
                f"expected {_MEMO_VERSION}"
            )

    # ------------------------------------------------------------------ #
    def lookup(self, study_key: str, cell_key: str) -> "list | None":
        """The cached record dicts of one cell, or ``None`` on a miss."""
        return self._load().get((study_key, cell_key))

    def put(self, study_key: str, cell_key: str, records: list) -> None:
        """Cache one cell's record dicts (durable, idempotent).

        A key that is already cached is left untouched — the first write wins
        within one store instance, which keeps re-runs from growing the file.
        """
        entries = self._load()
        key = (study_key, cell_key)
        if key in entries:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with _advisory_lock(self.path):
            # the existence check runs under the lock: of two processes
            # racing to create the cache, the second sees the first's header
            if not self.path.exists():
                # RL004 pragmas: ResultMemoStore is itself an append-only JSONL
                # store (idempotent first-write-wins cache, not a campaign
                # checkpoint); it uses io.append_jsonl's fsync durability directly
                append_jsonl(  # repro-lint: disable=RL004 -- memo store IS the append-only store
                    self.path,
                    {"kind": "header", "store": "memo", "version": _MEMO_VERSION},
                )
            append_jsonl(  # repro-lint: disable=RL004 -- memo entry write, see above
                self.path,
                {
                    "kind": "memo",
                    "study": study_key,
                    "cell": cell_key,
                    "records": records,
                },
            )
        entries[key] = list(records)

    def __len__(self) -> int:
        return len(self._load())
