"""Public facade: run a declarative study end to end.

:class:`Study` turns a :class:`~repro.experiments.spec.StudySpec` into the
paper's full pipeline — generate the workload, sweep every algorithm over
every (configuration, throughput), capture the solved allocations, replay
them through the stream simulator, aggregate the figure series — as **one
resumable run** through the existing execution backends and JSONL checkpoint
stores:

.. code-block:: python

    from repro.api import Study

    result = Study.from_file("study.json").run(progress=print)
    print(result.series.title, result.worst_ratio())

or from a spec built in Python:

.. code-block:: python

    from repro.experiments.config import paper_algorithms
    from repro.experiments.spec import ExecutionSpec, StudySpec, ValidationSpec, WorkloadSpec

    spec = StudySpec(
        name="quick-look",
        workload=WorkloadSpec("small", num_configurations=5, target_throughputs=(60, 120)),
        algorithms=tuple(paper_algorithms(iterations=500)),
        execution=ExecutionSpec(workers=4, store_dir="runs"),
        validation=ValidationSpec(horizons=(50.0,), rate_multipliers=(1.0, 1.05)),
    )
    result = Study.from_spec(spec).run(progress=print)

When the spec names checkpoint stores, every completed work unit of both
stages is fsynced to disk and ``run(resume=True)`` (or ``repro-cloud run
study.json --resume``) picks up wherever the previous run stopped — mid-sweep
or mid-campaign.  With a ``store_dir`` the study also writes a
``<name>-study.json`` manifest carrying the
:func:`~repro.experiments.spec.study_fingerprint`; the fingerprint ties the
sweep and campaign checkpoints to the exact spec that produced them, and a
directory holding a different study's artifacts is refused instead of
silently mixed into.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .core.exceptions import ConfigurationError
from .experiments.metrics import SERIES, SeriesByAlgorithm
from .experiments.runner import SweepResult, run_plan
from .experiments.spec import StudySpec, study_fingerprint
from .experiments.store import SweepStore, as_store
from .experiments.validation import CampaignResult, ValidationStore, run_validation

__all__ = ["Study", "StudyResult"]


@dataclass
class StudyResult:
    """Everything one study run produced.

    ``campaign`` is ``None`` for studies without a validation spec; ``series``
    is the aggregation the spec's ``series`` field selected (normalised cost,
    best count, ...), computed lazily on first access — callers that only
    consume the campaign (the ``validate`` CLI) never pay for it.
    """

    spec: StudySpec
    sweep: SweepResult
    campaign: CampaignResult | None = None
    _series: SeriesByAlgorithm | None = field(default=None, init=False, repr=False)

    @property
    def series(self) -> SeriesByAlgorithm:
        if self._series is None:
            self._series = SERIES[self.spec.series](self.sweep)
        return self._series

    def worst_ratio(self) -> float:
        """The campaign's weakest achieved/target ratio (``nan`` if no campaign)."""
        if self.campaign is None:
            return float("nan")
        return self.campaign.worst_ratio()


class Study:
    """A runnable study: a :class:`StudySpec` bound to the execution machinery."""

    def __init__(self, spec: StudySpec) -> None:
        self.spec = spec

    # -- constructors ----------------------------------------------------- #
    @classmethod
    def from_spec(cls, spec: StudySpec) -> "Study":
        return cls(spec)

    @classmethod
    def from_file(cls, path: "str | Path") -> "Study":
        """Load a ``study.json`` written by :meth:`StudySpec.to_json` (or by hand)."""
        return cls(StudySpec.from_json(path))

    # -- derived paths ----------------------------------------------------- #
    @property
    def sweep_store_path(self) -> Path | None:
        return self.spec.execution.sweep_store_path(self.spec.name)

    @property
    def validation_store_path(self) -> Path | None:
        return self.spec.execution.validation_store_path(self.spec.name)

    @property
    def manifest_path(self) -> Path | None:
        return self.spec.execution.manifest_path(self.spec.name)

    # -- pipeline ---------------------------------------------------------- #
    def run(
        self,
        *,
        resume: bool | None = None,
        progress: Callable[[str], None] | None = None,
        sweep: SweepResult | None = None,
    ) -> StudyResult:
        """Execute the study: sweep → (capture) → validation → series.

        Execution follows the spec's :class:`ExecutionSpec`; ``resume``
        defaults to its ``resume`` field.  A pre-computed ``sweep`` skips the
        sweep stage — the ``validate`` CLI uses this to campaign over an
        existing checkpoint, including a partial one, and figures that share
        a sweep (Figures 3-5) aggregate one sweep several ways.

        With ``resume=True`` each stage resumes from its checkpoint when the
        file already exists and starts fresh otherwise, so one flag drives
        the whole pipeline no matter where the previous run stopped.
        """
        spec = self.spec
        execution = spec.execution
        if resume is None:
            resume = execution.resume
        backend = execution.build_backend()
        # built before any stage runs, so a directory given as a checkpoint
        # is refused before the sweep spends any time
        sweep_store = as_store(self.sweep_store_path, SweepStore)
        validation_store = as_store(self.validation_store_path, ValidationStore)
        if resume and sweep is None and sweep_store is None and validation_store is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint location (store_dir, "
                "sweep_store or validation_store in the execution spec)"
            )
        self._reconcile_manifest()

        memo = execution.build_memo()
        if sweep is None:
            sweep = run_plan(
                spec.experiment_plan(),
                backend=backend,
                store=sweep_store,
                resume=bool(resume) and _existing(sweep_store),
                progress=progress,
                chunk_size=execution.chunk_size,
                capture_allocations=spec.capture_allocations,
                memo=memo,
            )
        campaign = None
        if spec.validation is not None:
            campaign = run_validation(
                spec.validation_plan(sweep),
                backend=backend,
                store=validation_store,
                resume=bool(resume) and _existing(validation_store),
                progress=progress,
                chunk_size=execution.chunk_size,
                memo=memo,
            )
        return StudyResult(spec=spec, sweep=sweep, campaign=campaign)

    # -- manifest ----------------------------------------------------------- #
    def _reconcile_manifest(self) -> None:
        """Create or verify the ``<name>-study.json`` manifest.

        The manifest records the study fingerprint next to the checkpoint
        files; running a spec whose fingerprint differs from the manifest in
        place is refused — the sweep/campaign checkpoints in that directory
        belong to a different study and must not be resumed against or
        overwritten by this one.
        """
        path = self.manifest_path
        if path is None:
            return
        fingerprint = study_fingerprint(self.spec)
        if path.exists():
            try:
                stored = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                raise ConfigurationError(
                    f"{path} exists but is not a readable study manifest; refusing "
                    f"to reuse the directory (delete the file to start over)"
                ) from None
            stored_fingerprint = (
                stored.get("fingerprint") if isinstance(stored, Mapping) else None
            )
            if stored_fingerprint != fingerprint:
                raise ConfigurationError(
                    f"{path} was written by a different study (fingerprint "
                    f"{str(stored_fingerprint)[:12]}... != {fingerprint[:12]}...); "
                    f"its checkpoints do not belong to this spec — use another "
                    f"store_dir or delete the stale study artifacts"
                )
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": "study-manifest",
            "fingerprint": fingerprint,
            "spec": self.spec.as_dict(),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _existing(store: "SweepStore | ValidationStore | None") -> bool:
    """Whether a store holds a checkpoint to resume from."""
    return store is not None and store.path.exists()
