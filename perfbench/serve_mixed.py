"""serve-mixed: a closed loop of two clients against one ``repro-cloud serve``.

Each client waits for the reply to its previous request before sending the
next.  Both take their next job from one seeded stream
(:func:`~workloads.serve_stream`) until it is used up: either the next
*fresh* study of the seeded chain (whose cells half overlap the previous
study's, so the server's memo both writes and reads) or a resubmit of a
study that has already finished (dedup attaches it to the existing job).
While a job runs the client polls its status about every
:data:`~workloads.POLL_INTERVAL` seconds, and it fetches the results once
the job is done.  Each pause is drawn from the seed between half and one and
a half intervals: with a fixed pause the time a client sees a job finish
comes in whole intervals, and the median latency jumps by one when the
server is a little slower.

The HTTP and server-process plumbing is ``benchmarks/bench_service.py``'s.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from bench_service import http
from workloads import POLL_INTERVAL, derive, serve_stream, serve_study

CLIENTS = 2


@dataclass
class ServeRun:
    """What the clients observed during one timed window."""

    elapsed: float = 0.0
    fresh_s: list = field(default_factory=list)
    repeat_s: list = field(default_factory=list)
    poll_ms: list = field(default_factory=list)
    submit_ms: list = field(default_factory=list)
    results_ms: list = field(default_factory=list)
    queue_wait_s: list = field(default_factory=list)
    exec_s: list = field(default_factory=list)
    requests: int = 0
    errors: int = 0
    jobs: int = 0
    failed_jobs: int = 0
    #: fresh study index -> (sweep record dicts, campaign record dicts)
    results: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def drive(base: str, seed: int, fresh: int) -> ServeRun:
    """Run both clients against ``base`` until ``fresh`` fresh jobs (and the
    resubmits between them) are done."""
    run = ServeRun()
    lock = threading.Lock()
    stream = iter(serve_stream(seed, fresh))
    next_fresh = [0]
    sent: list[int] = []
    finished: list[int] = []

    def request(method: str, path: str, body=None, sink=None):
        started = perf_counter()
        status, payload = http(method, base + path, body)
        took = perf_counter() - started
        with lock:
            run.requests += 1
            if not 200 <= status < 300:
                run.errors += 1
            if sink is not None:
                sink.append(took * 1e3)
        return status, payload

    def one_job(index: int, fresh: bool) -> None:
        body = json.dumps(serve_study(seed, index).as_dict()).encode("utf-8")
        submitted = perf_counter()
        status, payload = request("POST", "/v1/studies", body, run.submit_ms)
        if status not in (200, 202):
            with lock:
                run.failed_jobs += 1
            return
        job = payload["id"]
        state = payload["state"]
        running = submitted if state != "queued" else None
        pauses = np.random.default_rng(derive(seed, "serve-poll", index, fresh))
        while state not in ("done", "failed"):
            time.sleep(POLL_INTERVAL * (0.5 + pauses.random()))
            status, payload = request("GET", f"/v1/studies/{job}", sink=run.poll_ms)
            if status != 200:
                break
            state = payload["state"]
            if running is None and state != "queued":
                running = perf_counter()
        done = perf_counter()
        if state != "done":
            with lock:
                run.failed_jobs += 1
            return
        status, results = request("GET", f"/v1/studies/{job}/results", sink=run.results_ms)
        with lock:
            run.jobs += 1
            if status != 200:
                run.failed_jobs += 1
                return
            if fresh:
                run.fresh_s.append(done - submitted)
                run.queue_wait_s.append(running - submitted)
                run.exec_s.append(done - running)
                run.results[index] = (results["sweep"], results["campaign"])
                finished.append(index)
            else:
                run.repeat_s.append(done - submitted)

    def client() -> None:
        while True:
            with lock:
                repeat, pick = next(stream, (None, None))
                if repeat is None:
                    return
                if repeat:  # a finished study, or one still running if none is
                    targets = finished or sent
                    index = targets[int(pick * len(targets))]
                else:
                    index = next_fresh[0]
                    next_fresh[0] += 1
                    sent.append(index)
            one_job(index, fresh=not repeat)

    started = perf_counter()
    threads = [
        threading.Thread(target=client, name=f"client-{number}")
        for number in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.elapsed = perf_counter() - started
    status, metrics = http("GET", base + "/metrics")
    if status == 200:
        run.counters = dict(metrics.get("counters", {}))
    return run


def wait_healthy(base: str, timeout: float = 60.0) -> None:
    """Block until ``/healthz`` answers 200."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        try:
            status, _ = http("GET", base + "/healthz", timeout=5.0)
        except OSError:
            status = 0
        if status == 200:
            return
        time.sleep(0.005)
    raise RuntimeError(f"{base}/healthz never answered 200")
