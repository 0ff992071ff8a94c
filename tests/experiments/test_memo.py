"""Tests for the result memo cache (experiments.memo).

The cache may only ever serve records that a recomputation would reproduce
byte-for-byte: hits must be byte-identical to the run that populated the
cache, and any spec change that changes what a cell computes — a different
scenario, screen threshold, warm-up fraction, algorithm line-up — must miss.
"""

import concurrent.futures
import json
from dataclasses import replace

import pytest

from repro.core import ConfigurationError
from repro.experiments.config import default_plan, plan_to_dict
from repro.experiments.memo import (
    MemoStats,
    ResultMemoStore,
    default_memo_path,
    memo_key,
)
from repro.experiments.runner import _sweep_memo_study_key, run_plan
from repro.experiments.validation import (
    _memo_study_key,
    plan_from_sweep,
    run_validation,
)
from repro.io import append_jsonl
from repro.simulation import BurstyArrivals, PoissonArrivals, ScenarioSpec


def small_plan(num_configurations=1, throughputs=(50,), algorithms=("ILP", "H1")):
    plan = default_plan(
        "small",
        num_configurations=num_configurations,
        target_throughputs=throughputs,
        iterations=100,
    )
    return replace(plan, algorithms=tuple(a for a in plan.algorithms if a.name in algorithms))


def record_lines(result) -> list[str]:
    return [
        json.dumps(record.as_dict(), sort_keys=True, separators=(",", ":"))
        for record in result.records
    ]


@pytest.fixture(scope="module")
def captured_sweep():
    return run_plan(small_plan(), capture_allocations=True)


@pytest.fixture(scope="module")
def campaign_plan(captured_sweep):
    return plan_from_sweep(
        captured_sweep,
        horizons=(6.0,),
        rate_multipliers=(1.0,),
        scenarios=(ScenarioSpec(), ScenarioSpec(name="poisson", arrival=PoissonArrivals())),
    )


class TestMemoKey:
    def test_key_is_stable_and_order_insensitive(self):
        a = memo_key({"x": 1, "y": [1.5, 2.0]})
        b = memo_key({"y": [1.5, 2.0], "x": 1})
        assert a == b
        assert len(a) == 32
        int(a, 16)  # 128-bit hex

    def test_key_separates_different_payloads(self):
        assert memo_key({"x": 1}) != memo_key({"x": 2})

    def test_default_path_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MEMO_PATH", str(tmp_path / "m.jsonl"))
        assert default_memo_path() == tmp_path / "m.jsonl"
        monkeypatch.delenv("REPRO_MEMO_PATH")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert default_memo_path() == tmp_path / "cache" / "repro-cloud" / "result-memo.jsonl"


class TestResultMemoStore:
    def test_put_lookup_round_trip(self, tmp_path):
        store = ResultMemoStore(tmp_path / "memo.jsonl")
        store.put("study", "cell", [{"a": 1.5}])
        assert store.lookup("study", "cell") == [{"a": 1.5}]
        assert store.lookup("study", "other") is None
        assert len(store) == 1

    def test_entries_survive_reload(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        ResultMemoStore(path).put("s", "c", [{"a": 1}])
        assert ResultMemoStore(path).lookup("s", "c") == [{"a": 1}]

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        store = ResultMemoStore(path)
        store.put("s", "c", [{"a": 1}])
        size = path.stat().st_size
        store.put("s", "c", [{"a": 2}])  # first write wins, file untouched
        assert path.stat().st_size == size
        assert store.lookup("s", "c") == [{"a": 1}]

    def test_foreign_file_refused(self, tmp_path):
        path = tmp_path / "notmemo.jsonl"
        append_jsonl(path, {"kind": "header", "store": "validation", "version": 1})
        with pytest.raises(ConfigurationError, match="not a result-memo cache"):
            ResultMemoStore(path).lookup("s", "c")

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        store = ResultMemoStore(path)
        store.put("s", "c1", [{"a": 1}])
        store.put("s", "c2", [{"a": 2}])
        path.write_bytes(path.read_bytes()[:-10])
        reloaded = ResultMemoStore(path)
        assert reloaded.lookup("s", "c1") == [{"a": 1}]
        assert reloaded.lookup("s", "c2") is None

    @pytest.mark.parametrize(
        "row, detail",
        [
            pytest.param({"study": "s"}, "missing field 'cell'", id="missing-cell"),
            pytest.param({"study": "s", "cell": "c", "records": 5},
                         "records is not a list of objects", id="records-not-a-list"),
        ],
    )
    def test_malformed_entry_reports_location(self, tmp_path, row, detail):
        path = tmp_path / "memo.jsonl"
        ResultMemoStore(path).put("s", "c0", [{"a": 1}])
        append_jsonl(path, {"kind": "memo", **row})
        with pytest.raises(ConfigurationError) as error:
            ResultMemoStore(path).lookup("s", "c")
        assert str(error.value) == (
            f"{path} line 3 is not a memo row this version can read ({detail}); "
            f"refusing to load it"
        )


def _memo_writer(path, worker, cells):
    """One concurrent writer: caches every cell (overlapping with its peers)."""
    store = ResultMemoStore(path)
    for cell in cells:
        # the payload depends only on the key, so whichever racing writer
        # lands first caches exactly what the others would have
        store.put("study", cell, [{"cell": cell, "value": float(len(cell))}])
    return worker


class TestConcurrentWriters:
    def test_racing_processes_produce_a_clean_cache(self, tmp_path):
        # several processes append overlapping keys under the advisory lock:
        # every line must stay whole, the header must stay unique, and every
        # key must resolve to the canonical payload
        path = tmp_path / "memo.jsonl"
        cells = [f"cell-{number:03d}" for number in range(40)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                # staggered, overlapping slices so writers collide on keys
                pool.submit(_memo_writer, path, worker, cells[worker * 5 :])
                for worker in range(4)
            ]
            assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
        lines = path.read_text().splitlines()
        rows = [json.loads(line) for line in lines]  # no torn interior lines
        assert rows[0] == {"kind": "header", "store": "memo", "version": 1}
        assert all(row["kind"] == "memo" for row in rows[1:])
        reloaded = ResultMemoStore(path)
        for cell in cells:
            assert reloaded.lookup("study", cell) == [
                {"cell": cell, "value": float(len(cell))}
            ]


class TestValidationMemo:
    def test_second_run_all_hits_and_byte_identical(self, tmp_path, campaign_plan):
        path = tmp_path / "memo.jsonl"
        baseline = run_validation(campaign_plan)
        first = run_validation(campaign_plan, memo=ResultMemoStore(path))
        cells = campaign_plan.num_simulations
        assert first.memo_stats.as_dict() == {"hits": 0, "misses": cells}
        second = run_validation(campaign_plan, memo=ResultMemoStore(path))
        assert second.memo_stats.as_dict() == {"hits": cells, "misses": 0}
        # validation records carry no wall-clock, so a memo hit is
        # byte-identical to any recompute, not just the populating run
        assert record_lines(second) == record_lines(first) == record_lines(baseline)

    def test_memo_serves_across_store_dirs_and_chunking(self, tmp_path, campaign_plan):
        memo_path = tmp_path / "memo.jsonl"
        first = run_validation(
            campaign_plan, memo=ResultMemoStore(memo_path), store=tmp_path / "a.jsonl"
        )
        # different checkpoint store, different sharding: still 100% hits
        second = run_validation(
            campaign_plan,
            memo=ResultMemoStore(memo_path),
            store=tmp_path / "b.jsonl",
            chunk_size=3,
        )
        assert second.memo_stats.misses == 0
        assert record_lines(second) == record_lines(first)

    def test_changed_scenario_misses(self, tmp_path, captured_sweep, campaign_plan):
        path = tmp_path / "memo.jsonl"
        run_validation(campaign_plan, memo=ResultMemoStore(path))
        changed = plan_from_sweep(
            captured_sweep,
            horizons=(6.0,),
            rate_multipliers=(1.0,),
            scenarios=(ScenarioSpec(name="bursty", arrival=BurstyArrivals(on=1.0, off=2.0)),),
        )
        result = run_validation(changed, memo=ResultMemoStore(path))
        assert result.memo_stats.hits == 0
        assert result.memo_stats.misses == changed.num_simulations

    def test_changed_screen_threshold_misses(self, tmp_path, captured_sweep):
        path = tmp_path / "memo.jsonl"
        screened = plan_from_sweep(
            captured_sweep,
            horizons=(6.0,),
            rate_multipliers=(1.0,),
            screen="fluid",
            screen_threshold=0.85,
        )
        run_validation(screened, memo=ResultMemoStore(path))
        tightened = replace(screened, screen_threshold=0.5)
        result = run_validation(tightened, memo=ResultMemoStore(path))
        assert result.memo_stats.hits == 0

    def test_changed_warmup_misses(self, tmp_path, captured_sweep, campaign_plan):
        path = tmp_path / "memo.jsonl"
        run_validation(campaign_plan, memo=ResultMemoStore(path))
        shifted = replace(campaign_plan, warmup_fraction=0.25)
        result = run_validation(shifted, memo=ResultMemoStore(path))
        assert result.memo_stats.hits == 0

    def test_wider_grid_reuses_cached_cells(self, tmp_path, captured_sweep, campaign_plan):
        path = tmp_path / "memo.jsonl"
        run_validation(campaign_plan, memo=ResultMemoStore(path))
        wider = replace(campaign_plan, rate_multipliers=(1.0, 1.05))
        result = run_validation(wider, memo=ResultMemoStore(path))
        cells = campaign_plan.num_simulations
        # the x1.0 half of the wider grid is exactly the cached campaign
        assert result.memo_stats.hits == cells
        assert result.memo_stats.misses == cells

    def test_cells_cached_under_format_1_study_key_miss(self, tmp_path, campaign_plan):
        # a memo file written before campaign format 2 keyed validation cells
        # without the format: it still loads and serves sweep cells, but its
        # validation cells (old seeds) never hit
        path = tmp_path / "memo.jsonl"
        sweep_plan = small_plan()
        run_plan(sweep_plan, capture_allocations=True, memo=ResultMemoStore(path))
        run_validation(campaign_plan, memo=ResultMemoStore(path))
        sweep = plan_to_dict(campaign_plan.sweep_plan)
        for label in ("name", "num_configurations", "target_throughputs"):
            sweep.pop(label)
        format_1_key = memo_key(
            {
                "kind": "validation",
                "sweep_plan": sweep,
                "warmup_fraction": campaign_plan.warmup_fraction,
                "max_datasets": campaign_plan.max_datasets,
                "screen": campaign_plan.screen,
                "screen_threshold": campaign_plan.screen_threshold,
            }
        )
        current_key = _memo_study_key(campaign_plan)
        assert format_1_key != current_key
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            if row.get("study") == current_key:
                row["study"] = format_1_key
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        sweep_again = run_plan(sweep_plan, capture_allocations=True, memo=ResultMemoStore(path))
        assert sweep_again.memo_stats.misses == 0
        result = run_validation(campaign_plan, memo=ResultMemoStore(path))
        assert result.memo_stats.as_dict() == {
            "hits": 0, "misses": campaign_plan.num_simulations
        }

    def test_memo_accepts_path_argument(self, tmp_path, campaign_plan):
        path = tmp_path / "memo.jsonl"
        run_validation(campaign_plan, memo=path)
        result = run_validation(campaign_plan, memo=path)
        assert result.memo_stats.misses == 0


class TestSweepMemo:
    def test_second_sweep_all_hits_and_byte_identical(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        plan = small_plan()
        first = run_plan(plan, capture_allocations=True, memo=ResultMemoStore(path))
        cells = plan.num_configurations * len(plan.target_throughputs)
        assert first.memo_stats.as_dict() == {"hits": 0, "misses": cells}
        second = run_plan(plan, capture_allocations=True, memo=ResultMemoStore(path))
        assert second.memo_stats.as_dict() == {"hits": cells, "misses": 0}
        # a hit serves the cached records verbatim, wall-clock included
        assert record_lines(second) == record_lines(first)

    def test_capture_flag_changes_study_key(self, tmp_path):
        path = tmp_path / "memo.jsonl"
        plan = small_plan()
        run_plan(plan, capture_allocations=True, memo=ResultMemoStore(path))
        plain = run_plan(plan, memo=ResultMemoStore(path))
        # records without payloads are different content: must not hit
        assert plain.memo_stats.hits == 0

    def test_study_keys_of_earlier_memos_still_hit(self, tmp_path, campaign_plan):
        # the keys memo files written before the sweep lost its "check"
        # switch carry; a changed key would turn every cached cell into a miss
        plan = small_plan()
        assert _sweep_memo_study_key(plan, capture_allocations=True) == (
            "6eb70e282aff6db6018f01899b5c50c4"
        )
        assert _sweep_memo_study_key(plan, capture_allocations=False) == (
            "40b13bc7a64c569fb89b54dc56f6f34f"
        )
        assert _memo_study_key(campaign_plan) == "59d8e9d81737330e85047536fec6b428"
        path = tmp_path / "memo.jsonl"
        run_plan(plan, capture_allocations=True, memo=path)
        rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
        assert {row["study"] for row in rows} == {"6eb70e282aff6db6018f01899b5c50c4"}

    def test_memo_stats_arithmetic(self):
        stats = MemoStats(hits=3, misses=2)
        assert stats.total == 5
        assert stats.as_dict() == {"hits": 3, "misses": 2}
