"""Routing: ``(method, path, body)`` in, ``(status, payload, route)`` out.

Pure request logic, no sockets: the :class:`Router` is driven by the HTTP
handler in :mod:`repro.service.server` and by the in-process tests, which
exercise every endpoint without binding a port.  The returned ``route`` is
the *template* (``/v1/studies/{id}``, not the concrete path), so metrics
cardinality stays bounded.

Endpoints::

    GET  /healthz                  liveness + job-state counts
    GET  /metrics                  request/job/memo counters
    POST /v1/studies               submit a StudySpec JSON -> job (dedup)
    GET  /v1/studies               all jobs
    GET  /v1/studies/{id}          one job's status + durable progress
    GET  /v1/studies/{id}/results  the records (the byte-identity surface)
    GET  /v1/studies/{id}/series   the aggregated figure series
"""

from __future__ import annotations

import json
import math
from typing import Mapping

from ..core.exceptions import ConfigurationError
from ..experiments.spec import StudySpec
from .errors import BadRequest, Conflict, MethodNotAllowed, NotFound
from .jobs import Job, JobManager
from .metrics import ServiceMetrics

__all__ = ["Router"]


class Router:
    """Dispatch requests against a :class:`JobManager` and its metrics."""

    def __init__(self, manager: JobManager, metrics: ServiceMetrics) -> None:
        self.manager = manager
        self.metrics = metrics

    def dispatch(
        self, method: str, path: str, body: "bytes | None" = None
    ) -> "tuple[int, dict, str]":
        """Handle one request; raises :class:`ServiceError` subclasses."""
        path = path.split("?", 1)[0]
        if path != "/" and path.endswith("/"):
            path = path.rstrip("/")
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, {"status": "ok", "jobs": self.manager.state_counts()}, "/healthz"
        if path == "/metrics":
            self._require(method, "GET", path)
            payload = self.metrics.snapshot(job_states=self.manager.state_counts())
            return 200, payload, "/metrics"
        if path == "/v1/studies":
            if method == "POST":
                return self._submit(body)
            self._require(method, "GET", path)
            jobs = [job.describe() for job in self.manager.list_jobs()]
            return 200, {"studies": jobs}, "/v1/studies"
        if path.startswith("/v1/studies/"):
            parts = path[len("/v1/studies/"):].split("/")
            job = self.manager.get(parts[0])  # unknown id -> NotFound
            if len(parts) == 1:
                self._require(method, "GET", path)
                return 200, job.describe(), "/v1/studies/{id}"
            if len(parts) == 2 and parts[1] == "results":
                self._require(method, "GET", path)
                return 200, self._results(job), "/v1/studies/{id}/results"
            if len(parts) == 2 and parts[1] == "series":
                self._require(method, "GET", path)
                return 200, self._series(job), "/v1/studies/{id}/series"
        raise NotFound(f"no route {path!r}")

    # ------------------------------------------------------------------ #
    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise MethodNotAllowed(f"{path} only supports {expected}")

    def _submit(self, body: "bytes | None") -> "tuple[int, dict, str]":
        if not body:
            raise BadRequest("a StudySpec JSON body is required")
        try:
            data = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(data, Mapping):
            raise BadRequest("body must be a JSON object (a serialised StudySpec)")
        try:
            spec = StudySpec.from_dict(data)
        except ConfigurationError as exc:
            raise BadRequest(f"invalid study spec: {exc}") from None
        job, created = self.manager.submit(spec)
        payload = job.describe()
        payload["created"] = created
        return (202 if created else 200), payload, "/v1/studies"

    @staticmethod
    def _finished_result(job: Job):
        if job.state == "failed":
            raise Conflict(f"study job {job.id} failed: {job.error}")
        if job.state != "done" or job.result is None:
            raise Conflict(
                f"study job {job.id} is {job.state}; results are served once it is done"
            )
        return job.result

    def _results(self, job: Job) -> dict:
        """Every record of the finished study, in canonical order.

        The record dicts are exactly what the checkpoint stores serialise
        (``as_dict`` form), so a client canonically re-serialising them gets
        the same bytes a local ``repro-cloud run`` checkpoint holds — this
        payload is the end-to-end determinism surface ``bench_service.py``
        asserts on.
        """
        result = self._finished_result(job)
        payload = job.describe()
        payload["sweep"] = [record.as_dict() for record in result.sweep.records]
        payload["campaign"] = (
            []
            if result.campaign is None
            else [record.as_dict() for record in result.campaign.records]
        )
        return payload

    def _series(self, job: Job) -> dict:
        result = self._finished_result(job)
        series = result.series
        return {
            "id": job.id,
            "title": series.title,
            "ylabel": series.ylabel,
            "throughputs": list(series.throughputs),
            "series": {
                name: [_json_number(value) for value in values]
                for name, values in series.series.items()
            },
        }


def _json_number(value) -> "float | None":
    """NaN -> null: the series payload must be strict JSON for any client."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value
