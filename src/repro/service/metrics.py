"""Service observability: thread-safe request/job/memo counters.

This is the one place in the repository outside :mod:`repro.utils.timing`
where wall-clock *measurements* accumulate — request latencies and uptime,
taken with the sanctioned timing helpers by the HTTP layer.  The numbers are
observability-only: :meth:`ServiceMetrics.snapshot` feeds ``GET /metrics``
and nothing else, so no wall-clock-derived value can reach a record, a
fingerprint or a checkpoint store (the byte-identity tests, such as
``tests/experiments/test_driver_properties.py``, fail if one does).
"""

from __future__ import annotations

import threading

from ..utils.timing import Stopwatch

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Counters behind ``GET /metrics``, safe for concurrent request threads.

    Three families, all updated under one lock:

    * per-route request counts, error counts and latency aggregates
      (count / total seconds / max seconds), keyed by route template so
      cardinality stays bounded;
    * named event counters (``jobs_submitted``, ``jobs_attached``,
      ``jobs_done``, ``jobs_failed``, ``memo_hits``, ``memo_misses``, ...)
      incremented by the job manager;
    * service uptime, from a :class:`~repro.utils.timing.Stopwatch` started
      at construction.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._uptime = Stopwatch().start()
        self._requests: dict[str, dict[str, float]] = {}
        self._counters: dict[str, int] = {}

    def observe_request(self, route: str, status: int, seconds: float) -> None:
        """Record one handled request (any status, errors included)."""
        with self._lock:
            entry = self._requests.setdefault(
                route,
                {"count": 0, "errors": 0, "seconds_total": 0.0, "seconds_max": 0.0},
            )
            entry["count"] += 1
            if status >= 400:
                entry["errors"] += 1
            entry["seconds_total"] += seconds
            entry["seconds_max"] = max(entry["seconds_max"], seconds)

    def increment(self, name: str, amount: int = 1) -> None:
        """Bump a named event counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(amount)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self, *, job_states: "dict[str, int] | None" = None) -> dict:
        """The ``GET /metrics`` payload (a plain JSON-serialisable dict)."""
        with self._lock:
            requests = {route: dict(entry) for route, entry in self._requests.items()}
            counters = dict(self._counters)
        return {
            "uptime_seconds": self._uptime.current(),
            "requests": requests,
            "counters": counters,
            "jobs": dict(job_states or {}),
        }
