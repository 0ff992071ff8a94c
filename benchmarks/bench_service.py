"""Benchmark of the study-execution service: HTTP run vs local, resume, memo.

Exercises the full ``repro-cloud serve`` stack as a real subprocess and
records wall-clock into ``BENCH_service.json``:

* **reference** — the study spec run locally and serially: the identity
  baseline;
* **http** — the same spec POSTed to a served instance, with concurrent
  duplicate submissions: asserts exactly one execution, and that the served
  campaign records are **byte-identical** to the local run (sweep records
  compared on identity, the wall-clock-free criterion);
* **resume** — a second server is SIGTERMed mid-campaign (graceful drain:
  in-flight units checkpoint before exit) and restarted over the same store
  root: the journal re-submits the job, the checkpoints resume it, and the
  final result must again be byte-identical;
* **warm** — a third server with a *fresh* store root but the first server's
  memo cache answers the same study without recompute (all cells memo hits)
  and, once more, byte-identically.

Run directly to emit ``BENCH_service.json`` next to this file::

    PYTHONPATH=src python benchmarks/bench_service.py [--smoke] [--workers N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.api import Study, StudyResult
from repro.experiments.config import paper_algorithms
from repro.experiments.spec import StudySpec, ValidationSpec, WorkloadSpec


def build_spec(smoke: bool) -> StudySpec:
    keep = ("ILP", "H1", "H32")
    algorithms = tuple(
        spec
        for spec in paper_algorithms(iterations=120 if smoke else 400)
        if spec.name in keep
    )
    return StudySpec(
        name="bench-service",
        description="tiny end-to-end study for the service identity bench",
        workload=WorkloadSpec(
            setting="small",
            num_configurations=2 if smoke else 4,
            target_throughputs=(40, 80) if smoke else (20, 60, 100, 140),
        ),
        algorithms=algorithms,
        validation=ValidationSpec(
            horizons=(10.0,) if smoke else (25.0, 50.0),
            rate_multipliers=(1.0, 1.05),
        ),
    )


def sweep_identity_lines(record_dicts: list[dict]) -> list[str]:
    """Sweep records minus solve wall-clock — the cross-process identity."""
    return [
        json.dumps(
            {key: value for key, value in data.items() if key != "time"},
            sort_keys=True,
            separators=(",", ":"),
        )
        for data in record_dicts
    ]


def campaign_lines(record_dicts: list[dict]) -> list[str]:
    """Canonical JSONL line per campaign record — the byte-identity criterion."""
    return [
        json.dumps(data, sort_keys=True, separators=(",", ":")) for data in record_dicts
    ]


def reference_lines(result: StudyResult) -> "tuple[list[str], list[str]]":
    sweep = sweep_identity_lines([r.as_dict() for r in result.sweep.records])
    campaign = campaign_lines([r.as_dict() for r in result.campaign.records])
    return sweep, campaign


# --------------------------------------------------------------------------- #
# HTTP + server-process plumbing
# --------------------------------------------------------------------------- #


def http(method: str, url: str, body: "bytes | None" = None, timeout: float = 60.0):
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class ServerProcess:
    """One `repro-cloud serve` subprocess bound to an ephemeral port."""

    def __init__(
        self,
        store_root: Path,
        *,
        jobs: int = 2,
        workers: "int | None" = None,
        memo_path: "Path | None" = None,
    ) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--store-root", str(store_root), "--port", "0", "--jobs", str(jobs),
        ]
        if workers:
            command += ["--workers", str(workers)]
        if memo_path is not None:
            command += ["--memo-path", str(memo_path)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self.base = self._parse_base_url()

    def _parse_base_url(self) -> str:
        deadline = time.monotonic() + 60.0
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("serve exited before announcing its port")
            match = re.search(r"listening on (http://[\w.]+:\d+)", line)
            if match:
                # drain any further output so the server never blocks on a
                # full pipe; we only needed the bound port
                threading.Thread(
                    target=self.process.stdout.read, daemon=True
                ).start()
                return match.group(1)
        raise RuntimeError("timed out waiting for the serve banner")

    def url(self, path: str) -> str:
        return f"{self.base}{path}"

    def terminate(self, timeout: float = 120.0) -> int:
        """SIGTERM (the graceful drain) and wait; -> exit code."""
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=timeout)


def wait_for_state(server: ServerProcess, job_id: str, states, timeout: float = 600.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = http("GET", server.url(f"/v1/studies/{job_id}"))
        if status == 200 and payload["state"] in states:
            return payload
        time.sleep(0.05)
    raise RuntimeError(f"job {job_id} never reached {states}")


# --------------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------------- #


def phase_http(spec, root: Path, workers: int, reference) -> dict:
    """Cold HTTP run with concurrent duplicate submissions."""
    body = json.dumps(spec.as_dict()).encode("utf-8")
    ref_sweep, ref_campaign = reference
    t0 = time.perf_counter()
    server = ServerProcess(root / "state-http", workers=workers)
    try:
        responses: list = []

        def post() -> None:
            responses.append(http("POST", server.url("/v1/studies"), body))

        threads = [threading.Thread(target=post) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        job_id = responses[0][1]["id"]
        created = sum(payload["created"] for _, payload in responses)
        final = wait_for_state(server, job_id, ("done", "failed"))
        seconds = time.perf_counter() - t0
        _, results = http("GET", server.url(f"/v1/studies/{job_id}/results"))
        _, metrics = http("GET", server.url("/metrics"))
        identical = (
            final["state"] == "done"
            and campaign_lines(results["campaign"]) == ref_campaign
            and sweep_identity_lines(results["sweep"]) == ref_sweep
        )
        return {
            "job_id": job_id,
            "seconds": seconds,
            "identical": identical,
            "duplicates_created": created,
            "jobs_submitted": metrics["counters"].get("jobs_submitted", 0),
            "jobs_attached": metrics["counters"].get("jobs_attached", 0),
            "units_completed": final["units_completed"],
        }
    finally:
        server.terminate()


def phase_resume(spec, root: Path, workers: int, reference) -> dict:
    """SIGTERM mid-campaign, restart over the same store root, same bytes."""
    body = json.dumps(spec.as_dict()).encode("utf-8")
    ref_sweep, ref_campaign = reference
    store_root = root / "state-resume"
    t0 = time.perf_counter()
    first = ServerProcess(store_root, workers=workers)
    _, submitted = http("POST", first.url("/v1/studies"), body)
    job_id = submitted["id"]
    # pull the trigger as soon as durable progress exists, so the drain
    # interrupts a half-done campaign rather than an idle server
    units_before = 0
    deadline = time.monotonic() + 600.0
    while time.monotonic() < deadline:
        status, payload = http("GET", first.url(f"/v1/studies/{job_id}"))
        if status == 200:
            units_before = payload["units_completed"]
            if units_before >= 1 or payload["state"] in ("done", "failed"):
                break
        time.sleep(0.02)
    interrupted_midway = payload["state"] in ("queued", "running")
    exit_code = first.terminate()

    second = ServerProcess(store_root, workers=workers)
    try:
        final = wait_for_state(second, job_id, ("done", "failed"))
        seconds = time.perf_counter() - t0
        _, results = http("GET", second.url(f"/v1/studies/{job_id}/results"))
        identical = (
            final["state"] == "done"
            and campaign_lines(results["campaign"]) == ref_campaign
            and sweep_identity_lines(results["sweep"]) == ref_sweep
        )
        return {
            "seconds": seconds,
            "identical": identical,
            "graceful_exit_code": exit_code,
            "interrupted_midway": interrupted_midway,
            "units_before_restart": units_before,
            "units_after_restart": final["units_completed"],
        }
    finally:
        second.terminate()


def phase_warm(spec, root: Path, workers: int, reference) -> dict:
    """Fresh store root + the cold run's memo: served without recompute."""
    body = json.dumps(spec.as_dict()).encode("utf-8")
    ref_sweep, ref_campaign = reference
    memo_path = root / "state-http" / "result-memo.jsonl"
    t0 = time.perf_counter()
    server = ServerProcess(root / "state-warm", workers=workers, memo_path=memo_path)
    try:
        _, submitted = http("POST", server.url("/v1/studies"), body)
        final = wait_for_state(server, submitted["id"], ("done", "failed"))
        seconds = time.perf_counter() - t0
        _, results = http(
            "GET", server.url(f"/v1/studies/{submitted['id']}/results")
        )
        identical = (
            final["state"] == "done"
            and campaign_lines(results["campaign"]) == ref_campaign
            and sweep_identity_lines(results["sweep"]) == ref_sweep
        )
        stats = results.get("memo_stats", {})
        return {
            "seconds": seconds,
            "identical": identical,
            "memo_hits": stats.get("hits", 0),
            "memo_misses": stats.get("misses", 0),
            "memo_served": stats.get("hits", 0) > 0 and stats.get("misses", 1) == 0,
        }
    finally:
        server.terminate()


def run(smoke: bool, workers: int) -> dict:
    spec = build_spec(smoke)

    t0 = time.perf_counter()
    local = Study.from_spec(spec).run()
    local_seconds = time.perf_counter() - t0
    reference = reference_lines(local)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        http_report = phase_http(spec, root, workers, reference)
        resume_report = phase_resume(spec, root, workers, reference)
        warm_report = phase_warm(spec, root, workers, reference)

    import os

    return {
        "benchmark": "service",
        "smoke": smoke,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "study": {
            "name": spec.name,
            "fingerprint": spec.fingerprint(),
            "algorithms": [a.name for a in spec.algorithms],
            "sweep_records": len(local.sweep.records),
            "simulations": len(local.campaign.records),
        },
        "local_seconds": local_seconds,
        "http": http_report,
        "resume": resume_report,
        "warm": warm_report,
        "speedup_warm": (
            http_report["seconds"] / warm_report["seconds"]
            if warm_report["seconds"] > 0
            else float("inf")
        ),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for CI")
    parser.add_argument("--workers", type=int, default=2, help="per-job process-pool width")
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "BENCH_service.json"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke, workers=args.workers)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"service ({report['study']['sweep_records']} sweep records, "
          f"{report['study']['simulations']} simulations)  "
          f"local={report['local_seconds']:.2f}s  "
          f"http={report['http']['seconds']:.2f}s  "
          f"resume={report['resume']['seconds']:.2f}s  "
          f"warm={report['warm']['seconds']:.2f}s "
          f"(x{report['speedup_warm']:.1f} vs cold)")
    print(f"http identical to local:   {report['http']['identical']}  "
          f"(dedup: {report['http']['jobs_submitted']} executed, "
          f"{report['http']['jobs_attached']} attached)")
    print(f"resume identical to local: {report['resume']['identical']}  "
          f"(graceful exit {report['resume']['graceful_exit_code']}, "
          f"{report['resume']['units_before_restart']} units checkpointed before TERM)")
    print(f"warm identical to local:   {report['warm']['identical']}  "
          f"[memo: {report['warm']['memo_hits']} hit / "
          f"{report['warm']['memo_misses']} miss]")
    print(f"report written to {args.out}")

    failures = []
    if not report["http"]["identical"]:
        failures.append("HTTP-served study diverges from the local run")
    if report["http"]["duplicates_created"] != 1 or report["http"]["jobs_submitted"] != 1:
        failures.append("duplicate submissions did not deduplicate to one execution")
    if not report["resume"]["identical"]:
        failures.append("SIGTERM+restart resume diverges from the local run")
    if report["resume"]["graceful_exit_code"] != 0:
        failures.append("graceful shutdown did not exit 0")
    if not report["warm"]["identical"] or not report["warm"]["memo_served"]:
        failures.append("warm repeat was not memo-served byte-identically")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
