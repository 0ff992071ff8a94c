"""Tests for the study-execution service (repro.service).

The service contracts under test: submissions deduplicate by study
fingerprint (concurrent identical submits attach to one execution), results
served over HTTP are byte-identical to a local run of the same spec, a
graceful shutdown loses no checkpointed work and a restarted manager resumes
to the identical final result, and every error path answers structured JSON
with the right status code.
"""

import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.api import Study
from repro.core import ConfigurationError
from repro.experiments.spec import StudySpec, study_fingerprint
from repro.io import append_jsonl
from repro.service import (
    BadRequest,
    JobJournalStore,
    JobManager,
    Router,
    ServiceMetrics,
    StudyService,
)


def tiny_spec_dict(name="svc-small"):
    """A study small enough to execute inside a test, as a client would POST it."""
    return {
        "name": name,
        "workload": {
            "setting": "small",
            "num_configurations": 1,
            "target_throughputs": [60],
            "base_seed": 2016,
        },
        "algorithms": [{"name": "ILP"}, {"name": "H1"}],
        "validation": {"horizons": [8], "rate_multipliers": [1.0]},
    }


def canonical_lines(record_dicts) -> list[str]:
    return [
        json.dumps(data, sort_keys=True, separators=(",", ":")) for data in record_dicts
    ]


def sweep_identity_lines(record_dicts) -> list[str]:
    """Sweep records minus the ``time`` field (solve wall-clock varies)."""
    return canonical_lines(
        [{k: v for k, v in data.items() if k != "time"} for data in record_dicts]
    )


@pytest.fixture(scope="module")
def reference():
    """The local, storeless run of the tiny study — the identity baseline."""
    return Study.from_spec(StudySpec.from_dict(tiny_spec_dict())).run()


@pytest.fixture()
def service(tmp_path):
    metrics = ServiceMetrics()
    manager = JobManager(tmp_path / "state", jobs=2, metrics=metrics)
    server = StudyService(
        ("127.0.0.1", 0), manager=manager, metrics=metrics, request_timeout=10.0
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        manager.shutdown()


def request(server, method, path, body=None):
    url = f"http://127.0.0.1:{server.port}{path}"
    req = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def submit(server, spec_dict):
    return request(
        server, "POST", "/v1/studies", json.dumps(spec_dict).encode("utf-8")
    )


class TestEndpoints:
    def test_healthz(self, service):
        status, payload = request(service, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_submit_execute_and_serve_results(self, service, reference):
        status, payload = submit(service, tiny_spec_dict())
        assert status == 202 and payload["created"] is True
        job_id = payload["id"]
        assert job_id == study_fingerprint(StudySpec.from_dict(tiny_spec_dict()))[:16]
        assert service.manager.get(job_id).wait(timeout=120)

        status, payload = request(service, "GET", f"/v1/studies/{job_id}")
        assert status == 200 and payload["state"] == "done"
        assert payload["units_completed"] > 0

        status, results = request(service, "GET", f"/v1/studies/{job_id}/results")
        assert status == 200
        # the HTTP-served campaign is byte-identical to the local run; the
        # sweep matches on identity (solve wall-clock is not comparable)
        assert canonical_lines(results["campaign"]) == canonical_lines(
            [r.as_dict() for r in reference.campaign.records]
        )
        assert sweep_identity_lines(results["sweep"]) == sweep_identity_lines(
            [r.as_dict() for r in reference.sweep.records]
        )

        status, series = request(service, "GET", f"/v1/studies/{job_id}/series")
        assert status == 200
        assert series["throughputs"] == [60.0]
        assert set(series["series"]) == {"ILP", "H1"}
        for values in series["series"].values():
            assert all(value is None or isinstance(value, float) for value in values)

        status, listing = request(service, "GET", "/v1/studies")
        assert status == 200 and [job["id"] for job in listing["studies"]] == [job_id]

    def test_concurrent_duplicate_submissions_execute_once(self, service):
        body = json.dumps(tiny_spec_dict("svc-dedup")).encode("utf-8")
        results = []

        def post():
            results.append(request(service, "POST", "/v1/studies", body))

        threads = [threading.Thread(target=post) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(status for status, _ in results) in ([200, 200, 200, 202],)
        assert len({payload["id"] for _, payload in results}) == 1
        assert sum(payload["created"] for _, payload in results) == 1
        assert service.metrics.counter("jobs_submitted") == 1
        assert service.metrics.counter("jobs_attached") == 3
        job_id = results[0][1]["id"]
        assert service.manager.get(job_id).wait(timeout=120)
        assert service.metrics.counter("jobs_done") == 1

    def test_metrics_endpoint_reports_requests_and_jobs(self, service):
        request(service, "GET", "/healthz")
        status, payload = request(service, "GET", "/metrics")
        assert status == 200
        assert payload["uptime_seconds"] >= 0.0
        assert payload["requests"]["/healthz"]["count"] == 1
        assert payload["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_error_paths_answer_structured_json(self, service):
        assert request(service, "GET", "/v1/studies/feedfacedeadbeef")[0] == 404
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "POST", "/healthz", b"{}")[0] == 405
        status, payload = request(service, "POST", "/v1/studies", b"")
        assert (status, payload["error"]) == (400, "bad-request")
        assert request(service, "POST", "/v1/studies", b"not json")[0] == 400
        assert request(service, "POST", "/v1/studies", b'["a", "list"]')[0] == 400
        status, payload = request(
            service, "POST", "/v1/studies", b'{"name": "x", "bogus_field": 1}'
        )
        assert status == 400 and "invalid study spec" in payload["message"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_bad_request(self, service, length):
        # urllib always sends a valid length, so speak HTTP over a raw socket
        head = (
            f"POST /v1/studies HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", service.port), timeout=30) as sock:
            sock.sendall(head.encode("ascii"))
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        status_line, _, rest = response.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
        assert payload["error"] == "bad-request"
        assert "Content-Length" in payload["message"] and repr(length) in payload["message"]
        assert service.manager.list_jobs() == []

    @pytest.mark.parametrize(
        "algorithm, message",
        [
            ({"name": "H2", "params": {"iterations": 0}}, "iterations must be positive"),
            ({"name": "ILP", "params": {"time_limit": -1}}, "time_limit must be positive"),
        ],
        ids=["H2-iterations-0", "ILP-negative-time-limit"],
    )
    def test_values_a_solver_refuses_are_a_bad_request(self, service, algorithm, message):
        # they pass the parameter schema but not the solver's constructor: the
        # submit answers 400 in one line instead of queueing a job bound to fail
        status, payload = submit(service, {**tiny_spec_dict(), "algorithms": [algorithm]})
        assert (status, payload["error"]) == (400, "bad-request")
        assert "invalid study spec" in payload["message"] and message in payload["message"]
        assert "\n" not in payload["message"]
        assert service.manager.list_jobs() == []
        assert service.manager.journal.load() == []

    @pytest.mark.parametrize(
        "section, field, value",
        [
            pytest.param("validation", "horizons", [math.inf], id="horizon-inf"),
            pytest.param("validation", "rate_multipliers", [math.inf], id="multiplier-inf"),
            pytest.param("workload", "target_throughputs", [math.nan], id="throughput-nan"),
            pytest.param("workload", "target_throughputs", [math.inf], id="throughput-inf"),
            pytest.param("workload", "target_throughputs", [-5], id="throughput-negative"),
            pytest.param("workload", "base_seed", -1, id="base-seed-negative"),
            pytest.param("validation", "scenarios", [{"name": "s", "arrival": 5}],
                         id="arrival-not-a-dict"),
            pytest.param("validation", "scenarios",
                         [{"name": "s", "failures": [{"start": 0, "duration": 1}]}],
                         id="failure-without-type"),
            pytest.param("validation", "scenarios",
                         [{"name": "s", "arrival": {"kind": "nope"}}], id="unknown-arrival"),
        ],
    )
    def test_malformed_or_non_finite_spec_is_a_bad_request(self, tmp_path, section, field, value):
        # the body parses as JSON (Python's json reads Infinity and NaN), so
        # only the spec can refuse it: 400 in one line, no job, no journal line
        manager = JobManager(tmp_path / "state", jobs=1)
        try:
            manager._stopping.set()  # a study accepted by mistake must not run
            data = tiny_spec_dict()
            data[section][field] = value
            with pytest.raises(BadRequest, match="invalid study spec") as info:
                Router(manager, ServiceMetrics()).dispatch(
                    "POST", "/v1/studies", json.dumps(data).encode()
                )
            assert "\n" not in str(info.value)
            assert manager.list_jobs() == []
            assert manager.journal.load() == []
        finally:
            manager.shutdown()

    def test_trailing_slash_and_query_string_are_tolerated(self, service):
        assert request(service, "GET", "/healthz/")[0] == 200
        assert request(service, "GET", "/healthz?verbose=1")[0] == 200

    def test_results_before_done_is_a_conflict(self, tmp_path):
        # router-level: a job that has not finished cannot serve results
        metrics = ServiceMetrics()
        manager = JobManager(tmp_path / "state", jobs=1, metrics=metrics)
        try:
            manager._stopping.set()  # keep the pool from running the job
            job, created = manager.submit(StudySpec.from_dict(tiny_spec_dict()))
            assert created
            router = Router(manager, metrics)
            from repro.service.errors import Conflict

            with pytest.raises(Conflict, match="queued"):
                router.dispatch("GET", f"/v1/studies/{job.id}/results")
        finally:
            manager.shutdown()

    def test_failed_job_reports_conflict_with_error(self, tmp_path, monkeypatch):
        import repro.api

        metrics = ServiceMetrics()
        manager = JobManager(tmp_path / "state", jobs=1, metrics=metrics)
        try:
            # a spec that parses but whose execution blows up mid-pipeline
            def explode(spec):
                raise RuntimeError("solver exploded")

            monkeypatch.setattr(repro.api.Study, "from_spec", staticmethod(explode))
            job, _ = manager.submit(StudySpec.from_dict(tiny_spec_dict("svc-fail")))
            assert job.wait(timeout=120)
            assert job.state == "failed" and job.error
            router = Router(manager, metrics)
            from repro.service.errors import Conflict

            with pytest.raises(Conflict, match="failed"):
                router.dispatch("GET", f"/v1/studies/{job.id}/results")
            assert metrics.counter("jobs_failed") == 1
        finally:
            manager.shutdown()


class TestRestartAndRecovery:
    def test_journal_records_and_recovers_finished_jobs(self, tmp_path, reference):
        root = tmp_path / "state"
        first = JobManager(root, jobs=1)
        job, _ = first.submit(StudySpec.from_dict(tiny_spec_dict()))
        assert job.wait(timeout=120) and job.state == "done"
        first.shutdown()

        second = JobManager(root, jobs=1)
        try:
            assert second.recover() == 1
            recovered = second.get(job.id)
            assert recovered.wait(timeout=120) and recovered.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in recovered.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
        finally:
            second.shutdown()

    def test_shutdown_mid_run_then_restart_resumes_identically(self, tmp_path, reference):
        root = tmp_path / "state"
        first = JobManager(root, jobs=1)
        job, _ = first.submit(StudySpec.from_dict(tiny_spec_dict()))
        # drain immediately: the job aborts at its next checkpointed unit
        # boundary (or was never started); either way nothing durable is lost
        first.shutdown()
        assert job.state in ("queued", "done")

        second = JobManager(root, jobs=1)
        try:
            assert second.recover() == 1
            resumed = second.get(job.id)
            assert resumed.wait(timeout=120) and resumed.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in resumed.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
        finally:
            second.shutdown()

    def test_drain_closes_the_shared_pool_before_the_forkserver_stops(self, tmp_path):
        # the sequence of perfbench's traced serve-mixed: the forkserver exits
        # only once every pool worker has, so a worker left alive hangs _stop()
        driver = tmp_path / "drain.py"
        driver.write_text(textwrap.dedent(
            f"""
            from multiprocessing import forkserver

            from repro.experiments.spec import StudySpec
            from repro.service import JobManager

            if __name__ == "__main__":
                manager = JobManager({str(tmp_path / "state")!r}, jobs=1, workers=2)
                job, _ = manager.submit(StudySpec.from_dict({tiny_spec_dict()!r}))
                assert job.wait(timeout=25) and job.state == "done", job.error
                manager.shutdown()
                forkserver._forkserver._stop()
            """
        ))
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, str(driver)], env=env, capture_output=True, text=True, timeout=30
        )
        assert result.returncode == 0, result.stderr

    def test_recovered_job_with_format_2_campaign_fails_in_one_line(self, tmp_path):
        # a store root written before campaign format 3: the recovered job
        # must fail with the checkpoint refusal, not resume a mixed campaign
        root = tmp_path / "state"
        first = JobManager(root, jobs=1)
        job, _ = first.submit(StudySpec.from_dict(tiny_spec_dict()))
        assert job.wait(timeout=120) and job.state == "done"
        first.shutdown()
        downgraded = 0
        for path in job.store_dir.rglob("*.jsonl"):
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            if header.get("store") == "validation":
                lines[0] = json.dumps({**header, "version": 2})
                path.write_text("\n".join(lines) + "\n")
                downgraded += 1
        assert downgraded

        second = JobManager(root, jobs=1)
        try:
            assert second.recover() == 1
            recovered = second.get(job.id)
            assert recovered.wait(timeout=120) and recovered.state == "failed"
            assert "predates validation checkpoint format 3" in recovered.error
            assert "\n" not in recovered.error
        finally:
            second.shutdown()

    def test_recovers_journal_with_null_chunk_policy(self, tmp_path, reference):
        # older servers journaled execution dicts carrying "chunk_policy": null
        root = tmp_path / "state"
        root.mkdir()
        spec = StudySpec.from_dict(tiny_spec_dict())
        data = spec.as_dict()
        data["execution"]["chunk_policy"] = None
        fingerprint = study_fingerprint(spec)
        JobJournalStore(root / "jobs.jsonl").record(
            fingerprint[:16], "submitted", fingerprint=fingerprint, spec=data
        )
        manager = JobManager(root, jobs=1)
        try:
            assert manager.recover() == 1
            job = manager.get(fingerprint[:16])
            assert job.wait(timeout=120) and job.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in job.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
        finally:
            manager.shutdown()

    def test_recovers_store_root_of_a_sharding_server(self, tmp_path, reference):
        # a server that sharded campaigns journaled specs spelling out
        # "validation_shards": null and left <name>-validation/shard-*.jsonl
        # behind; the recovered job checkpoints to <name>-validation.jsonl
        # and its progress does not count the stale shard's lines
        spec = StudySpec.from_dict(tiny_spec_dict())
        local = tmp_path / "local"
        Study.from_spec(spec.with_execution(store_dir=str(local))).run()
        root = tmp_path / "state"
        fingerprint = study_fingerprint(spec)
        stale = root / "studies" / fingerprint[:16] / f"{spec.name}-validation"
        stale.mkdir(parents=True)
        (stale / "shard-0000.jsonl").write_text(
            (local / f"{spec.name}-validation.jsonl").read_text()
        )
        data = spec.as_dict()
        data["execution"]["validation_shards"] = None
        JobJournalStore(root / "jobs.jsonl").record(
            fingerprint[:16], "submitted", fingerprint=fingerprint, spec=data
        )
        manager = JobManager(root, jobs=1)
        try:
            assert manager.recover() == 1
            job = manager.get(fingerprint[:16])
            assert job.wait(timeout=120) and job.state == "done"
            assert canonical_lines(
                [r.as_dict() for r in job.result.campaign.records]
            ) == canonical_lines([r.as_dict() for r in reference.campaign.records])
            assert (job.store_dir / f"{spec.name}-validation.jsonl").is_file()
            # one sweep unit and one campaign unit
            assert job.units_completed() == 2
        finally:
            manager.shutdown()

    def test_retired_validation_shards_value_is_refused(self, tmp_path):
        # a non-null value asks for sharding that no longer exists: a 400 at
        # submission, and a failed job when an older journal holds it
        data = tiny_spec_dict("svc-sharded")
        data["execution"] = {"store_dir": "runs", "validation_shards": 2}
        root = tmp_path / "state"
        root.mkdir()
        JobJournalStore(root / "jobs.jsonl").record(
            "c" * 16, "submitted", fingerprint="c" * 64, spec=data
        )
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(BadRequest, match="unknown field.*validation_shards"):
                Router(manager, ServiceMetrics()).dispatch(
                    "POST", "/v1/studies", json.dumps(data).encode()
                )
            assert manager.recover() == 1
            job = manager.get("c" * 16)
            assert job.state == "failed" and "validation_shards" in job.error
            assert "\n" not in job.error
        finally:
            manager.shutdown()

    def test_serve_recovers_past_a_journaled_spec_it_refuses(self, tmp_path, reference):
        # an older server accepted H2 iterations 0 with a 202 and journaled
        # it; serve must still start, show that job failed in one line and
        # recover the journal's other jobs
        root = tmp_path / "state"
        root.mkdir()
        journal = JobJournalStore(root / "jobs.jsonl")
        refused = {**tiny_spec_dict("svc-refused"), "algorithms": [
            {"name": "H2", "params": {"iterations": 0}},
        ]}
        journal.record("b" * 16, "submitted", fingerprint="b" * 64, spec=refused)
        good = StudySpec.from_dict(tiny_spec_dict())
        fingerprint = study_fingerprint(good)
        journal.record(
            fingerprint[:16], "submitted", fingerprint=fingerprint, spec=good.as_dict()
        )

        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store-root", str(root),
             "--port", "0", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"listening on http://[\w.]+:(\d+)", banner)
            assert match, banner + process.stdout.read()
            assert "recovered 2 journaled job(s)" in process.stdout.readline()
            threading.Thread(target=process.stdout.read, daemon=True).start()
            server = SimpleNamespace(port=int(match.group(1)))

            assert request(server, "GET", "/healthz")[0] == 200
            status, payload = request(server, "GET", "/v1/studies/" + "b" * 16)
            assert status == 200 and payload["state"] == "failed"
            assert payload["name"] == "svc-refused"
            assert payload["error"] == (
                "ConfigurationError: solver 'H2': iterations must be positive, got 0"
            )
            deadline = time.monotonic() + 120
            while payload["state"] != "done" and time.monotonic() < deadline:
                time.sleep(0.05)
                _, payload = request(server, "GET", f"/v1/studies/{fingerprint[:16]}")
            assert payload["state"] == "done"
            status, results = request(
                server, "GET", f"/v1/studies/{fingerprint[:16]}/results"
            )
            assert status == 200
            assert canonical_lines(results["campaign"]) == canonical_lines(
                [r.as_dict() for r in reference.campaign.records]
            )
        finally:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=120) == 0

    def test_recovery_refuses_journal_entry_without_spec(self, tmp_path):
        root = tmp_path / "state"
        root.mkdir()
        journal = JobJournalStore(root / "jobs.jsonl")
        journal.record("cafecafecafecafe", "submitted", fingerprint="cafe" * 16)
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(ConfigurationError, match="without its spec"):
                manager.recover()
        finally:
            manager.shutdown()

    @pytest.mark.parametrize(
        "row, detail",
        [
            pytest.param({"state": "submitted"}, "missing field 'id'", id="without-id"),
            pytest.param(
                {"id": "a" * 16, "fingerprint": "a" * 64, "state": "submitted",
                 "spec": ["a", "list"]},
                "spec is not an object",
                id="spec-not-an-object",
            ),
        ],
    )
    def test_malformed_journal_entry_reports_location(self, tmp_path, row, detail):
        root = tmp_path / "state"
        root.mkdir()
        journal = JobJournalStore(root / "jobs.jsonl")
        journal.record("b" * 16, "submitted", fingerprint="b" * 64, spec=tiny_spec_dict())
        append_jsonl(journal.path, {"kind": "job", **row})
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(ConfigurationError) as error:
                manager.recover()
            assert str(error.value) == (
                f"{journal.path} line 3 is not a job row this version can read "
                f"({detail}); refusing to load it"
            )
            assert manager.list_jobs() == []
        finally:
            manager.shutdown()

    def test_foreign_journal_file_refused(self, tmp_path):
        root = tmp_path / "state"
        root.mkdir()
        (root / "jobs.jsonl").write_text('{"kind": "header", "store": "memo"}\n')
        manager = JobManager(root, jobs=1)
        try:
            with pytest.raises(ConfigurationError, match="not a service job journal"):
                manager.recover()
        finally:
            manager.shutdown()

    def test_journal_last_state_wins(self, tmp_path):
        journal = JobJournalStore(tmp_path / "jobs.jsonl")
        journal.record("a" * 16, "submitted", fingerprint="a" * 64, spec={"name": "x"})
        journal.record("a" * 16, "done", fingerprint="a" * 64)
        entries = journal.load()
        assert len(entries) == 1
        assert entries[0]["state"] == "done"
        assert entries[0]["spec"] == {"name": "x"}


class TestManagerConfig:
    def test_invalid_job_count_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="jobs"):
            JobManager(tmp_path / "state", jobs=0)

    @pytest.mark.parametrize("setting", ["workers"])
    def test_invalid_execution_settings_rejected_at_construction(self, tmp_path, setting):
        with pytest.raises(ConfigurationError, match=f"{setting} must be >= 1"):
            JobManager(tmp_path / "state", jobs=1, **{setting: 0})
        assert not (tmp_path / "state").exists()

    def test_dedup_ignores_execution_and_name_details(self, tmp_path):
        manager = JobManager(tmp_path / "state", jobs=1)
        try:
            manager._stopping.set()  # dedup only; nothing needs to run
            first = tiny_spec_dict("one-name")
            second = tiny_spec_dict("another-name")
            second["execution"] = {"workers": 4}
            job_a, created_a = manager.submit(StudySpec.from_dict(first))
            job_b, created_b = manager.submit(StudySpec.from_dict(second))
            assert created_a and not created_b
            assert job_a is job_b
        finally:
            manager.shutdown()
