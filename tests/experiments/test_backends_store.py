"""Tests for the sweep orchestration layers: backends, checkpoint store, resume."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core import ConfigurationError
from repro.experiments.backends import (
    ProcessPoolBackend,
    SerialBackend,
    WorkUnit,
    plan_work_units,
    shutdown_pools,
)
from repro.experiments.config import AlgorithmSpec, default_plan, plan_from_dict, plan_to_dict
from repro.experiments.runner import RunRecord, SweepResult, run_plan
from repro.experiments.store import SweepStore, load_sweep_result, plan_fingerprint


def small_plan(num_configurations=2, throughputs=(50, 100), algorithms=("ILP", "H1", "H2")):
    plan = default_plan(
        "small",
        num_configurations=num_configurations,
        target_throughputs=throughputs,
        iterations=100,
    )
    return replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in algorithms))


def worker_pids() -> set[int]:
    """Pids of this process's live pool workers (its multiprocessing children)."""
    return {child.pid for child in multiprocessing.active_children()}


def _proc_stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state, ppid, ...)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text.rsplit(")", 1)[1].split()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def record_key(record: RunRecord) -> tuple:
    """Everything except wall-clock time, which differs between any two runs."""
    return record.identity()


def _insert_row(line: str):
    """A checkpoint mutation: ``line`` becomes the file's second row."""
    return lambda lines: lines.insert(1, line)


def _edit_header(edit):
    """A checkpoint mutation: ``edit`` applied to the parsed header row."""

    def mutate(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header)

    return mutate


@pytest.fixture(scope="module")
def serial_result() -> SweepResult:
    return run_plan(small_plan(), backend=SerialBackend())


class TestWorkUnits:
    def test_default_chunking_is_one_unit_per_configuration(self):
        units = plan_work_units(small_plan(num_configurations=3))
        assert len(units) == 3
        assert [u.configuration for u in units] == [0, 1, 2]
        assert all(u.throughputs == (50.0, 100.0) for u in units)
        assert [u.index for u in units] == [0, 1, 2]

    def test_chunked_units_cover_the_sweep(self):
        plan = small_plan(num_configurations=2, throughputs=(30, 60, 90))
        units = plan_work_units(plan, chunk_size=2)
        assert len(units) == 4
        covered = {(u.configuration, rho) for u in units for rho in u.throughputs}
        assert covered == {(c, float(r)) for c in (0, 1) for r in (30, 60, 90)}

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_work_units(small_plan(), chunk_size=0)

    def test_unit_round_trips_through_dict(self):
        unit = WorkUnit(index=3, configuration=1, throughputs=(40.0, 80.0))
        assert WorkUnit.from_dict(unit.as_dict()) == unit

    def test_execute_work_unit_matches_run_plan_slice(self, serial_result):
        plan = small_plan()
        unit = plan_work_units(plan)[1]
        records = unit.execute(plan)
        expected = [r for r in serial_result.records if r.configuration == 1]
        assert [record_key(r) for r in records] == [record_key(r) for r in expected]


class TestProcessPoolBackend:
    def test_parallel_identical_to_serial(self, serial_result):
        parallel = run_plan(small_plan(), backend=ProcessPoolBackend(2))
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in serial_result.records
        ]

    def test_parallel_identical_with_small_chunks(self, serial_result):
        parallel = run_plan(small_plan(), backend=ProcessPoolBackend(2), chunk_size=1)
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in serial_result.records
        ]

    def test_backend_dropping_units_is_reported(self):
        class LossyBackend:
            def run(self, plan, units, **options):
                for unit in units[:-1]:  # silently loses the last unit
                    yield unit, unit.execute(plan, **options)

        with pytest.raises(ConfigurationError, match="no result for 1 work unit"):
            run_plan(small_plan(num_configurations=2), backend=LossyBackend())

    def test_time_limited_plan_warns_when_parallelised(self):
        plan = small_plan(num_configurations=1, throughputs=(50,))
        limited = replace(
            plan,
            algorithms=(AlgorithmSpec("ILP", {"time_limit": 100.0}),) + plan.algorithms[1:],
        )
        with pytest.warns(RuntimeWarning, match="time-limited"):
            run_plan(limited, backend=ProcessPoolBackend(2))
        # no warning for the serial backend or deterministic plans
        run_plan(limited)
        run_plan(plan, backend=ProcessPoolBackend(2))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_abandoning_the_result_stream_does_not_block(self):
        # an interrupted driver closes the generator; that must return
        # promptly (cancelling the run's queued units) instead of draining it
        plan = small_plan(num_configurations=3)
        units = plan_work_units(plan)
        stream = ProcessPoolBackend(1).run(plan, units)
        unit, records = next(stream)
        assert records
        stream.close()  # must not hang waiting for the remaining units


class TestSharedPool:
    """One warm executor per (process, width), shared by every run."""

    def test_abandoned_run_leaves_the_pool_warm(self, serial_result):
        shutdown_pools()  # start from no pool, so every child is this pool's
        plan = small_plan()
        stream = ProcessPoolBackend(2).run(plan, plan_work_units(plan, chunk_size=1))
        assert next(stream)[1]
        pids = worker_pids()
        assert len(pids) == 2
        stream.close()
        parallel = run_plan(plan, backend=ProcessPoolBackend(2))
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in serial_result.records
        ]
        assert worker_pids() == pids  # the same workers: no new pool

    def test_killed_worker_fails_its_run_and_the_next_run_gets_a_new_pool(self, serial_result):
        shutdown_pools()
        plan = small_plan()
        stream = ProcessPoolBackend(2).run(plan, plan_work_units(plan, chunk_size=1))
        next(stream)
        pids = worker_pids()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            for _ in stream:
                pass
        parallel = run_plan(plan, backend=ProcessPoolBackend(2))
        assert [record_key(r) for r in parallel.records] == [
            record_key(r) for r in serial_result.records
        ]
        assert worker_pids().isdisjoint(pids)

    def test_each_run_removes_its_spill_file_and_closing_removes_the_directory(
        self, tmp_path, monkeypatch
    ):
        plan = small_plan(num_configurations=1)
        # start the forkserver first: its socket must not land in tmp_path,
        # whose path may be too long for a socket address
        run_plan(plan, backend=ProcessPoolBackend(2))
        shutdown_pools()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # what TMPDIR sets
        stream = ProcessPoolBackend(2).run(plan, plan_work_units(plan, chunk_size=1))
        next(stream)
        pids = worker_pids()
        (spill_dir,) = tmp_path.glob("repro-pool-*")
        assert len(list(spill_dir.iterdir())) == 1  # this run's plan, spilled once
        stream.close()
        run_plan(plan, backend=ProcessPoolBackend(2))
        assert list(spill_dir.iterdir()) == []
        shutdown_pools()
        assert not spill_dir.exists()
        assert worker_pids().isdisjoint(pids)  # closing waited for the workers

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads process states from /proc"
    )
    def test_a_killed_driver_takes_its_warm_pool_with_it(self, tmp_path):
        # SIGKILL gives the driver no atexit: its workers and their forkserver
        # must notice the driver's death by themselves and exit
        src = Path(repro.__file__).resolve().parents[1]
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(
            """
            import multiprocessing
            import time
            from dataclasses import replace

            from repro.experiments.backends import ProcessPoolBackend, plan_work_units
            from repro.experiments.config import default_plan

            if __name__ == "__main__":
                plan = default_plan("small", num_configurations=2, target_throughputs=(50,))
                plan = replace(
                    plan, algorithms=tuple(a for a in plan.algorithms if a.name == "H1")
                )
                for _ in ProcessPoolBackend(2).run(plan, plan_work_units(plan, chunk_size=1)):
                    pass
                print(*(child.pid for child in multiprocessing.active_children()), flush=True)
                time.sleep(300)
            """
        ))
        stderr = tmp_path / "driver.err"
        with stderr.open("w") as err:
            process = subprocess.Popen(
                [sys.executable, str(driver)], cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(src)},
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        survivors: set[int] = set()
        try:
            workers = {int(pid) for pid in process.stdout.readline().split()}
            assert workers, stderr.read_text()
            # the forkserver, or the driver itself under the fork start method
            servers = {int(_proc_stat(pid)[1]) for pid in workers} - {process.pid}
            process.kill()
            process.wait(timeout=10)
            survivors = workers | servers
            deadline = time.monotonic() + 10
            while survivors and time.monotonic() < deadline:
                time.sleep(0.1)
                survivors = {pid for pid in survivors if _running(pid)}
            assert not survivors, f"still running 10 s after the driver was killed: {survivors}"
        finally:
            process.kill()
            process.wait(timeout=10)
            process.stdout.close()
            for pid in survivors:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="the preload check concerns the forkserver start method",
    )
    def test_a_preload_that_did_not_take_warns_once(self, tmp_path):
        # a driver that reaches repro only through a runtime sys.path edit: the
        # forkserver's preload fails silently and each worker imports repro
        src = Path(repro.__file__).resolve().parents[1]
        driver = tmp_path / "driver.py"
        driver.write_text(textwrap.dedent(
            f"""
            import json
            import sys

            sys.path.insert(0, {str(src)!r})
            from dataclasses import replace

            from repro.experiments.backends import ProcessPoolBackend
            from repro.experiments.config import default_plan
            from repro.experiments.runner import run_plan

            def lines(result):
                return [json.dumps(r.identity()) for r in result.records]

            if __name__ == "__main__":
                plan = default_plan(
                    "small", num_configurations=2, target_throughputs=(50, 100),
                    iterations=30,
                )
                plan = replace(
                    plan, algorithms=tuple(a for a in plan.algorithms if a.name in ("ILP", "H1"))
                )
                serial = lines(run_plan(plan))
                for _ in range(2):
                    assert lines(run_plan(plan, backend=ProcessPoolBackend(2))) == serial
            """
        ))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        warning = "forkserver could not preload"

        def run(extra_env):
            result = subprocess.run(
                [sys.executable, "-W", "always::RuntimeWarning", str(driver)],
                cwd=tmp_path, env={**env, **extra_env},
                capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            return result.stderr.count(warning)

        count = run({})
        assert count <= 1
        if sys.version_info < (3, 12):  # whose forkserver ignores the driver's sys.path
            assert count == 1
        assert run({"PYTHONPATH": str(src)}) == 0


class TestStore:
    def test_checkpoint_load_matches_run(self, tmp_path, serial_result):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        loaded = load_sweep_result(path)
        assert [record_key(r) for r in loaded.records] == [
            record_key(r) for r in serial_result.records
        ]
        assert plan_fingerprint(loaded.plan) == plan_fingerprint(serial_result.plan)

    def test_resume_with_mismatched_plan_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        other = small_plan(num_configurations=3)
        with pytest.raises(ConfigurationError, match="different plan"):
            run_plan(other, store=SweepStore(path), resume=True)

    def test_plan_round_trips_through_dict(self):
        plan = small_plan()
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_fingerprint(plan_from_dict(plan_to_dict(plan))) == plan_fingerprint(plan)

    def test_fingerprint_agnostic_to_int_vs_float_throughputs(self):
        ints = small_plan(throughputs=(50, 100))
        floats = small_plan(throughputs=(50.0, 100.0))
        assert plan_fingerprint(ints) == plan_fingerprint(floats)

    def test_truncated_final_line_is_ignored_on_resume(self, tmp_path, serial_result):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        with path.open("a") as handle:
            handle.write('{"kind": "unit", "unit": {"index"')  # killed mid-append
        resumed = run_plan(small_plan(), store=SweepStore(path), resume=True)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in serial_result.records
        ]
        # the resume repaired the tail: the file is clean JSONL again
        assert path.read_bytes().endswith(b"\n")
        load_sweep_result(path)

    def test_resume_appends_cleanly_after_mid_append_kill(self, tmp_path):
        # a partial trailing line must not swallow the first resumed append
        plan = small_plan(num_configurations=3)
        uninterrupted = run_plan(plan)
        path = tmp_path / "sweep.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 1:
                raise RuntimeError("interrupt")

        with pytest.raises(RuntimeError):
            run_plan(plan, store=SweepStore(path), progress=tripwire)
        with path.open("a") as handle:
            handle.write('{"kind": "unit", "unit": {"index"')  # killed mid-append
        resumed = run_plan(plan, store=SweepStore(path), resume=True)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in uninterrupted.records
        ]
        # the completed file has no malformed interior line
        completed = load_sweep_result(path)
        assert [record_key(r) for r in completed.records] == [
            record_key(r) for r in uninterrupted.records
        ]

    def test_corrupt_terminated_final_line_pruned_on_resume(self, tmp_path):
        # a malformed but newline-terminated final line must not survive the
        # resume, or it would become an unreadable interior line
        plan = small_plan(num_configurations=3)
        uninterrupted = run_plan(plan)
        path = tmp_path / "sweep.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 1:
                raise RuntimeError("interrupt")

        with pytest.raises(RuntimeError):
            run_plan(plan, store=SweepStore(path), progress=tripwire)
        with path.open("a") as handle:
            handle.write('{"kind": "unit", "corrupt\n')  # terminated garbage
        resumed = run_plan(plan, store=SweepStore(path), resume=True)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in uninterrupted.records
        ]
        completed = load_sweep_result(path)  # must not raise on interior lines
        assert [record_key(r) for r in completed.records] == [
            record_key(r) for r in uninterrupted.records
        ]

    def test_overwriting_a_populated_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        with pytest.raises(ConfigurationError, match="resume=True"):
            run_plan(small_plan(), store=SweepStore(path))

    def test_overwriting_an_unreadable_checkpoint_is_refused(self, tmp_path):
        # a corrupt interior line makes the file unreadable, but it may still
        # hold recoverable units — refuse to wipe it
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="refusing to overwrite"):
            run_plan(small_plan(), store=SweepStore(path))

    def test_resume_of_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="nothing to resume"):
            run_plan(small_plan(), store=SweepStore(tmp_path / "typo.jsonl"), resume=True)

    def test_resume_without_store_is_an_error(self):
        with pytest.raises(ConfigurationError, match="requires a store"):
            run_plan(small_plan(), resume=True)

    def test_directory_checkpoint_refused(self, tmp_path):
        # a checkpoint is one file: a directory is refused in one line naming
        # it, even one holding a complete checkpoint
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        directory = tmp_path / "sharded"
        directory.mkdir()
        (directory / "shard-0000.jsonl").write_text(path.read_text())
        for load in (
            lambda: SweepResult.load(directory),
            lambda: run_plan(small_plan(), store=directory),
            lambda: run_plan(small_plan(), store=str(directory), resume=True),
            lambda: SweepStore(directory),
        ):
            with pytest.raises(ConfigurationError) as error:
                load()
            assert str(error.value) == (
                f"{directory} is a directory; a sweep checkpoint is one JSONL file"
            )

    @pytest.mark.parametrize(
        "mutate, number",
        [
            pytest.param(_insert_row("123"), 2, id="non-object"),  # valid JSON, not an object
            # a unit row of the retired span-of-cells shape
            pytest.param(
                _insert_row(
                    '{"kind": "unit", "unit": {"index": 0, "cells": [0, 4]}, "records": []}'
                ),
                2,
                id="chunk-shaped",
            ),
            pytest.param(
                _insert_row(
                    '{"kind": "unit", "unit": {"index": 0, "configuration": 0, '
                    '"throughputs": [50.0]}}'
                ),
                2,
                id="missing-key",
            ),
            pytest.param(
                _edit_header(lambda header: header["plan"]["algorithms"][0].pop("name")),
                1,
                id="header-algorithm-without-name",
            ),
            pytest.param(
                _edit_header(lambda header: header.pop("plan")), 1, id="header-without-plan"
            ),
            pytest.param(
                _edit_header(lambda header: header.pop("fingerprint")),
                1,
                id="header-without-fingerprint",
            ),
        ],
    )
    def test_malformed_line_reports_location(self, tmp_path, mutate, number):
        path = tmp_path / "sweep.jsonl"
        run_plan(small_plan(), store=SweepStore(path))
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        for load in (
            lambda: load_sweep_result(path),
            lambda: run_plan(small_plan(), store=SweepStore(path), resume=True),
        ):
            with pytest.raises(ConfigurationError, match=f"line {number} ") as error:
                load()
            assert "\n" not in str(error.value)

    def test_overwriting_an_unrelated_file_is_refused(self, tmp_path):
        # a mistyped --out pointing at unrelated data must never be wiped
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "deploy", "ok": true}\n')
        with pytest.raises(ConfigurationError, match="not a sweep checkpoint"):
            run_plan(small_plan(), store=SweepStore(path))
        assert path.read_text() == '{"event": "deploy", "ok": true}\n'

    def test_overwriting_a_plain_text_file_is_refused(self, tmp_path):
        # a single non-JSON line is forgiven by the JSONL reader (it looks
        # like a torn final line) but must still not be wiped
        path = tmp_path / "notes.txt"
        path.write_text("do not lose me")
        with pytest.raises(ConfigurationError, match="not a sweep checkpoint"):
            run_plan(small_plan(), store=SweepStore(path))
        assert path.read_text() == "do not lose me"

    def test_header_only_checkpoint_may_be_recreated(self, tmp_path):
        # an aborted run that never completed a unit is safe to start over
        path = tmp_path / "sweep.jsonl"
        store = SweepStore(path)
        store.initialize(small_plan())
        result = run_plan(small_plan(), store=SweepStore(path))
        assert len(result.records) > 0

    def test_record_row_file_is_refused(self, tmp_path, serial_result):
        # the retired saved-result format (a header, then one "record" row per
        # record) is neither loaded, resumed nor overwritten
        path = tmp_path / "result.jsonl"
        rows = [SweepStore(path)._header(serial_result.plan)] + [
            {"kind": "record", **record.as_dict()} for record in serial_result.records
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        content = path.read_text()
        for load in (
            lambda: SweepResult.load(path),
            lambda: run_plan(small_plan(), store=SweepStore(path), resume=True),
        ):
            with pytest.raises(ConfigurationError, match="line 2 is not a unit row") as error:
                load()
            assert "\n" not in str(error.value)
        with pytest.raises(ConfigurationError, match="already holds sweep data"):
            run_plan(small_plan(), store=SweepStore(path))
        assert path.read_text() == content

    def test_resume_with_different_chunking_refused(self, tmp_path):
        plan = small_plan(num_configurations=3)
        path = tmp_path / "sweep.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 1:
                raise RuntimeError("interrupt")

        with pytest.raises(RuntimeError):
            run_plan(plan, store=SweepStore(path), chunk_size=1, progress=tripwire)
        with pytest.raises(ConfigurationError, match="sharding"):
            run_plan(plan, store=SweepStore(path), resume=True)  # default chunking


class TestResumeAfterInterrupt:
    class _Interrupt(Exception):
        pass

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        plan = small_plan(num_configurations=3)
        uninterrupted = run_plan(plan)

        path = tmp_path / "sweep.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 2:
                raise self._Interrupt

        with pytest.raises(self._Interrupt):
            run_plan(plan, store=SweepStore(path), progress=tripwire)

        # the killed run checkpointed exactly the completed units; a partial
        # checkpoint only loads when asked for explicitly
        with pytest.raises(ConfigurationError, match="incomplete sweep"):
            load_sweep_result(path)
        partial = load_sweep_result(path, allow_partial=True)
        assert 0 < len(partial.records) < len(uninterrupted.records)

        messages = []
        resumed = run_plan(plan, store=SweepStore(path), resume=True, progress=messages.append)
        assert any("resumed" in m for m in messages)
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in uninterrupted.records
        ]
        # and the completed checkpoint now loads identically too
        completed = load_sweep_result(path)
        assert [record_key(r) for r in completed.records] == [
            record_key(r) for r in uninterrupted.records
        ]

    def test_resume_on_parallel_backend(self, tmp_path):
        plan = small_plan(num_configurations=3)
        uninterrupted = run_plan(plan)
        path = tmp_path / "sweep.jsonl"
        done = 0

        def tripwire(_msg):
            nonlocal done
            done += 1
            if done >= 1:
                raise self._Interrupt

        with pytest.raises(self._Interrupt):
            run_plan(plan, store=SweepStore(path), progress=tripwire)
        resumed = run_plan(
            plan, store=SweepStore(path), resume=True, backend=ProcessPoolBackend(2)
        )
        assert [record_key(r) for r in resumed.records] == [
            record_key(r) for r in uninterrupted.records
        ]


class TestFloatThroughputKeys:
    def test_costs_by_tolerates_float_drift(self, serial_result):
        exact = serial_result.costs_by("ILP", 50.0)
        drifted = serial_result.costs_by("ILP", 50.0 + 4e-7)
        assert exact.shape == drifted.shape == (2,)
        assert (exact == drifted).all()

    def test_filter_tolerates_float_drift(self, serial_result):
        assert serial_result.filter(rho=100.0 - 2e-7) == serial_result.filter(rho=100.0)

    def test_distant_rho_finds_nothing(self, serial_result):
        assert serial_result.filter(algorithm="ILP", rho=51.0) == []
        assert serial_result.costs_by("ILP", 51.0).size == 0

    def test_throughputs_do_not_duplicate_close_keys(self, serial_result):
        assert serial_result.throughputs() == [50.0, 100.0]

    def test_index_rebuilt_after_records_replaced_in_place(self):
        plan = small_plan()
        sweep = run_plan(plan)
        assert sweep.costs_by("ILP", 50.0).size == 2  # index built
        kept = [r for r in sweep.records if r.configuration == 0]
        sweep.records[:] = kept  # same list object, new contents
        assert sweep.costs_by("ILP", 50.0).size == 1
        assert all(r.configuration == 0 for r in sweep.filter(algorithm="H1"))
