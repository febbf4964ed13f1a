"""Tests for the parallel orchestration layer and its result cache."""

from __future__ import annotations

import json

import pytest

from repro.bench import read_results, result_to_dict, write_results
from repro.orchestrate import (
    GridCell,
    ResultCache,
    cell_cache_key,
    derive_cell_seed,
    load_cached,
    outcome_from_cache,
    result_from_payload,
    result_to_payload,
    run_grid,
    stable_hash,
)
from repro.platforms import platform_by_name, run_platform
from repro.ssd import ull_ssd
from repro.workloads import workload_by_name

TINY = dict(batch_size=8, num_batches=1, scaled_nodes=256)


def tiny_cells(platforms=("bg2", "cc"), workloads=("ogbn",), **overrides):
    params = dict(TINY)
    params.update(overrides)
    return [
        GridCell(platform=p, workload=w, **params)
        for w in workloads
        for p in platforms
    ]


@pytest.fixture(scope="module")
def tiny_result():
    spec = workload_by_name("ogbn").scaled(256)
    return run_platform("bg2", spec, batch_size=8, num_batches=1)


class TestStableHash:
    def test_dict_key_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_dataclasses_hash_by_value(self):
        assert stable_hash(ull_ssd()) == stable_hash(ull_ssd())
        assert stable_hash(ull_ssd()) != stable_hash(
            ull_ssd().with_flash(num_channels=8)
        )

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())


class TestCacheKeys:
    def test_name_and_object_forms_agree(self):
        by_name = GridCell(platform="bg2", workload="ogbn", **TINY)
        by_object = GridCell(
            platform=platform_by_name("bg2"),
            workload=workload_by_name("ogbn"),
            **TINY,
        )
        assert cell_cache_key(by_name, 0) == cell_cache_key(by_object, 0)

    def test_seed_and_config_distinguish(self):
        cell = GridCell(platform="bg2", workload="ogbn", **TINY)
        assert cell_cache_key(cell, 0) != cell_cache_key(cell, 1)
        other = GridCell(
            platform="bg2",
            workload="ogbn",
            ssd_config=ull_ssd().with_firmware(num_cores=2),
            **TINY,
        )
        assert cell_cache_key(cell, 0) != cell_cache_key(other, 0)

    def test_derived_seeds_stable_and_distinct(self):
        a, b = tiny_cells(platforms=("bg2", "cc"))
        assert derive_cell_seed(0, a) == derive_cell_seed(0, a)
        assert derive_cell_seed(0, a) != derive_cell_seed(0, b)
        assert derive_cell_seed(0, a) != derive_cell_seed(1, a)


class TestResultSerialization:
    def test_payload_roundtrip_is_lossless(self, tiny_result):
        payload = result_to_payload(tiny_result)
        restored = result_from_payload(payload)
        assert result_to_payload(restored) == payload
        # restored results answer every derived query identically
        assert restored.summary() == tiny_result.summary()
        assert result_to_dict(restored) == result_to_dict(tiny_result)
        assert restored.latency_breakdown() == tiny_result.latency_breakdown()
        assert restored.command_breakdown() == tiny_result.command_breakdown()

    def test_payload_is_plain_json(self, tiny_result):
        payload = result_to_payload(tiny_result)
        assert json.loads(json.dumps(payload)) == payload

    def test_schema_mismatch_rejected(self, tiny_result):
        payload = result_to_payload(tiny_result)
        payload["schema"] = 999
        with pytest.raises(ValueError):
            result_from_payload(payload)

    def test_write_read_results_roundtrip(self, tiny_result, tmp_path):
        path = write_results([tiny_result], tmp_path / "results.json")
        (restored,) = read_results(path)
        assert restored.to_dict() == tiny_result.to_dict()


class TestResultCache:
    def test_put_get_contains_stats_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("abc") is None
        cache.put("abc", {"payload": {"x": 1}})
        assert "abc" in cache
        assert cache.get("abc") == {"payload": {"x": 1}}
        stats = cache.stats()
        assert stats.entries == 1 and stats.total_bytes > 0
        assert cache.clear() == 1
        assert cache.get("abc") is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"payload": {}})
        cache.path_for("abc").write_text("{truncated")
        assert cache.get("abc") is None

    def test_prune_by_age(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put("old", {"payload": {}})
        cache.put("new", {"payload": {}})
        now = 1_000_000.0
        os.utime(cache.path_for("old"), times=(now - 10 * 86400, now - 10 * 86400))
        os.utime(cache.path_for("new"), times=(now - 86400, now - 86400))
        assert cache.prune(keep_days=7, _now=now) == 1
        assert "old" not in cache and "new" in cache

    def test_prune_by_size_evicts_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        blob = {"payload": {"pad": "x" * 4000}}  # ~4 KB per entry
        for i in range(5):
            cache.put(f"k{i}", blob)
            path = cache.path_for(f"k{i}")
            os.utime(path, times=(1000.0 + i, 1000.0 + i))
        removed = cache.prune(max_mb=0.01, _now=2000.0)  # 10 KB budget
        assert removed == 3
        assert "k0" not in cache and "k1" not in cache and "k2" not in cache
        assert "k3" in cache and "k4" in cache

    def test_prune_size_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"payload": {}})
        cache.put("b", {"payload": {}})
        assert cache.prune(max_mb=0) == 2
        assert cache.stats().entries == 0

    def test_prune_requires_a_policy(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(keep_days=-1)
        with pytest.raises(ValueError):
            cache.prune(max_mb=-1)

    def test_prune_noop_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"payload": {}})
        assert cache.prune(keep_days=365, max_mb=100) == 0
        assert "a" in cache


class TestRunGrid:
    def test_serial_and_parallel_bit_identical(self):
        """The determinism contract: --jobs N never changes any result."""
        cells = tiny_cells(platforms=("bg2", "cc"), workloads=("ogbn", "ppi"))
        serial = run_grid(cells, jobs=1)
        parallel = run_grid(cells, jobs=4)
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in parallel.results
        ]

    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells()
        cold = run_grid(cells, jobs=2, cache=cache)
        assert cold.executed == len(cells) and cold.cache_hits == 0
        warm = run_grid(cells, jobs=2, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == len(cells)
        assert [r.to_dict() for r in warm.results] == [
            r.to_dict() for r in cold.results
        ]

    def test_derived_seeds_independent_of_grid_order(self):
        cells = tiny_cells(platforms=("bg2", "cc"))
        forward = run_grid(cells, jobs=1)
        backward = run_grid(list(reversed(cells)), jobs=1)
        by_key_fwd = dict(zip(forward.keys, (r.to_dict() for r in forward.results)))
        by_key_bwd = dict(zip(backward.keys, (r.to_dict() for r in backward.results)))
        assert by_key_fwd == by_key_bwd

    def test_explicit_seed_changes_the_result(self):
        (with_a,) = run_grid(tiny_cells(platforms=("bg2",), seed=1), jobs=1).results
        (with_b,) = run_grid(tiny_cells(platforms=("bg2",), seed=2), jobs=1).results
        assert with_a.to_dict() != with_b.to_dict()

    def test_load_cached_returns_none_for_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, miss = tiny_cells(platforms=("bg2", "cc"))
        run_grid([hit], jobs=1, cache=cache)
        loaded = load_cached([hit, miss], cache)
        assert loaded[0] is not None and loaded[1] is None
        assert loaded[0].platform == "bg2"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_grid([], jobs=-1)
        with pytest.raises(ValueError):
            run_grid([], chunk=0)

    def test_jobs_auto_detect(self):
        # 0 and None both mean "detect from CPU affinity"
        assert run_grid([], jobs=0).results == []
        assert run_grid([], jobs=None).results == []


class TestImageSharing:
    def test_repeated_grids_build_zero_images(self, tmp_path):
        """Across grid runs, each distinct workload image is built once."""
        from repro.directgraph import BUILD_COUNTER
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        _PREPARED_MEMO.clear()
        cold = run_grid(tiny_cells(platforms=("bg2", "cc")), jobs=1, cache=cache)
        # 2 cells, 1 distinct (workload, page_size) -> exactly one build
        assert cold.images_built == 1
        # evict the in-memory memo so only the disk image cache can serve
        _PREPARED_MEMO.clear()
        BUILD_COUNTER.reset()
        resimulated = run_grid(
            tiny_cells(platforms=("bg2", "cc"), seed=123), jobs=1, cache=cache
        )
        assert resimulated.executed == 2  # new seed -> result-cache misses
        assert BUILD_COUNTER.count == 0  # ...but zero DirectGraph builds
        assert resimulated.images_built == 0
        assert resimulated.image_hits >= 1

    def test_warm_result_cache_touches_no_images(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells()
        run_grid(cells, jobs=1, cache=cache)
        warm = run_grid(cells, jobs=1, cache=cache)
        assert warm.executed == 0
        assert warm.images_built == 0 and warm.image_hits == 0

    def test_image_cache_derives_from_result_cache(self, tmp_path):
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        _PREPARED_MEMO.clear()  # a memo hit would skip the disk store
        run_grid(tiny_cells(platforms=("bg2",)), jobs=1, cache=cache)
        assert list((tmp_path / "images").glob("*.npz"))

    def test_image_cache_opt_out(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_grid(
            tiny_cells(platforms=("bg2",)), jobs=1, cache=cache, image_cache=False
        )
        assert not (tmp_path / "images").exists()

    def test_prepared_memo_is_bounded(self):
        from repro.orchestrate.grid import (
            _PREPARED_MEMO,
            _PREPARED_MEMO_MAX,
            _prepared_for,
        )

        _PREPARED_MEMO.clear()
        base = workload_by_name("ogbn")
        for nodes in range(64, 64 + _PREPARED_MEMO_MAX + 4):
            _prepared_for(base.scaled(nodes), 4096)
        assert len(_PREPARED_MEMO) == _PREPARED_MEMO_MAX


class TestOutcomeFromCache:
    def test_renders_a_finished_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = tiny_cells(platforms=("bg2", "cc"))
        cold = run_grid(cells, jobs=1, cache=cache)
        rendered = outcome_from_cache(cells, cache)
        assert rendered.executed == 0
        assert rendered.cache_hits == len(cells)
        assert rendered.images_built == 0 and rendered.image_hits == 0
        assert all(rendered.from_cache)
        assert [r.to_dict() for r in rendered.results] == [
            r.to_dict() for r in cold.results
        ]

    def test_miss_raises_naming_the_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyError, match=r"bg2/ogbn"):
            outcome_from_cache(tiny_cells(platforms=("bg2",)), cache)

    def test_partial_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, miss = tiny_cells(platforms=("bg2", "cc"))
        run_grid([hit], jobs=1, cache=cache)
        with pytest.raises(KeyError, match=r"1 of 2 cells"):
            outcome_from_cache([hit, miss], cache)


class TestScaleOutCache:
    """ScaleOutResult documents in the content-addressed result cache."""

    PARAMS = dict(batch_size=8, num_batches=1)

    def outcome(self, cache, **overrides):
        from repro.platforms import scaleout_outcome

        spec = workload_by_name("ogbn").scaled(256)
        params = {**self.PARAMS, **overrides}
        return scaleout_outcome(2, "bg2", spec, cache=cache, **params)

    def test_store_load_lossless_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        warm = self.outcome(cache)
        assert not cold.from_cache and warm.from_cache
        assert warm.result.to_dict() == cold.result.to_dict()
        # per-shard instruments survive, traces included
        assert all(
            w.to_dict() == c.to_dict()
            for w, c in zip(warm.result.per_device, cold.result.per_device)
        )

    def test_cache_hit_skips_simulation_and_builds(self, tmp_path):
        from repro.directgraph import BUILD_COUNTER
        from repro.orchestrate.grid import _PREPARED_MEMO

        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        assert cold.shards_executed == 2
        _PREPARED_MEMO.clear()
        BUILD_COUNTER.reset()
        warm = self.outcome(cache)
        assert warm.shards_executed == 0 and warm.shard_cache_hits == 0
        assert BUILD_COUNTER.count == 0  # hit loads the document, not images

    def test_stats_count_array_and_shard_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats().entries == 0
        self.outcome(cache)
        # one document per shard cell plus the array document itself
        assert cache.stats().entries == 3

    def test_shard_cache_serves_when_array_document_lost(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = self.outcome(cache)
        # evict only the array-level document; the per-shard cells remain
        cache.path_for(cold.key).unlink()
        rebuilt = self.outcome(cache)
        assert not rebuilt.from_cache
        assert rebuilt.shards_executed == 0
        assert rebuilt.shard_cache_hits == 2
        assert rebuilt.result.to_dict() == cold.result.to_dict()

    def test_require_cached_raises_on_miss(self, tmp_path):
        from repro.platforms import scaleout_outcome

        cache = ResultCache(tmp_path)
        spec = workload_by_name("ogbn").scaled(256)
        with pytest.raises(KeyError, match="not in result cache"):
            scaleout_outcome(
                2, "bg2", spec, cache=cache, require_cached=True, **self.PARAMS
            )

    def test_scaleout_schema_mismatch_rejected(self, tmp_path):
        from repro.orchestrate import scaleout_from_payload, scaleout_to_payload

        cache = ResultCache(tmp_path)
        payload = scaleout_to_payload(self.outcome(cache).result)
        assert json.loads(json.dumps(payload)) == payload  # plain JSON
        payload["schema"] = 999
        with pytest.raises(ValueError):
            scaleout_from_payload(payload)
