"""Differential suite: batched/chunked dispatch is bit-identical.

The chunked grid path ships whole batches of cells to workers and runs
them through the cooperative in-process executor
(:func:`repro.orchestrate.execute_batch`). These tests pin the contract
the perf win rests on: every (jobs, chunk) combination produces sha256
payload digests equal to classic per-cell serial dispatch, and
``execute_batch`` itself reproduces the golden fixtures in
``tests/data/``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache.page import CacheConfig
from repro.orchestrate import (
    GridCell,
    ResultCache,
    auto_chunk_size,
    available_cpus,
    execute_batch,
    run_grid,
)
from repro.orchestrate.cache import json_default, lookup
from repro.orchestrate.grid import _execute_cell
from repro.orchestrate.serialize import result_to_payload
from repro.platforms import run_platform
from repro.platforms.background import BackgroundIoConfig
from repro.workloads import workload_by_name

GOLDEN = Path(__file__).parent / "data" / "golden_runresult_sha256.json"

TINY = dict(
    batch_size=8,
    num_batches=1,
    num_hops=2,
    fanout=2,
    hidden_dim=32,
    scaled_nodes=256,
)

# Fields that join a cell's key only when set, each at a non-default value.
VARIANTS = {
    "plain": {},
    "sample_trace": {"sample_trace": True},
    "background_io": {"background_io": BackgroundIoConfig(rate_per_s=2e4, seed=1)},
    "page_cache": {"page_cache": CacheConfig(capacity_mb=0.5, policy="lfu")},
    "layout_locality": {"layout": "locality"},
    "targets": {"targets": ((1, 2, 3),)},
    "no_overlap": {"pipeline_overlap": False},
}


def _digest(payload) -> str:
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=json_default
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def tiny_cells(n=6, seed0=0):
    platforms = ["bg1", "bg2", "cc", "glist", "smartsage", "bg_dg"]
    return [
        GridCell(
            platform=platforms[i % len(platforms)],
            workload="ogbn",
            seed=seed0 + i,
            **TINY,
        )
        for i in range(n)
    ]


class TestExecuteBatch:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_payloads_match_per_cell_execution(self, variant):
        cells = [replace(cell, **VARIANTS[variant]) for cell in tiny_cells(4)]
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        per_cell = [_execute_cell(job) for job in jobs_args]
        batched = execute_batch(jobs_args)
        # both return the one sorted payload text: equal byte for byte
        assert batched == per_cell

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_run_platform_matches_run_grid(self, variant, tmp_path):
        """The keyword API and a one-cell grid give the same payload bytes."""
        fields = dict(TINY, seed=3, **VARIANTS[variant])
        direct = run_platform("bg2", workload_by_name("ogbn"), **fields)
        cache = ResultCache(tmp_path)
        grid = run_grid([GridCell("bg2", "ogbn", **fields)], jobs=1, cache=cache)
        stored = lookup(cache, "result", grid.keys[0])
        assert _digest(result_to_payload(direct)) == _digest(stored)

    @pytest.mark.parametrize("max_live", [1, 2, 8])
    def test_max_live_does_not_change_results(self, max_live):
        cells = tiny_cells(4)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        expected = [_execute_cell(job) for job in jobs_args]
        assert execute_batch(jobs_args, max_live=max_live) == expected

    def test_small_slices_do_not_change_results(self):
        cells = tiny_cells(3)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        expected = [_execute_cell(job) for job in jobs_args]
        got = execute_batch(jobs_args, max_live=2, slice_events=97)
        assert got == expected

    def test_reproduces_golden_fixture(self):
        """The cooperative executor hits the repo-wide golden digests."""
        golden = json.loads(GOLDEN.read_text())
        cells = [
            GridCell(
                platform=name,
                workload="ogbn",
                batch_size=8,
                num_batches=2,
                num_hops=2,
                fanout=2,
                seed=0,
                scaled_nodes=256,
            )
            for name in sorted(golden)
        ]
        jobs_args = [(cell, 0, None) for cell in cells]
        digests = [
            _digest(json.loads(text))
            for text in execute_batch(jobs_args, max_live=3)
        ]
        assert digests == [golden[name] for name in sorted(golden)]

    def test_heartbeat_reports_progress(self):
        cells = tiny_cells(3)
        jobs_args = [(cell, cell.seed, None) for cell in cells]
        beats = []
        execute_batch(jobs_args, max_live=2, heartbeat=beats.append)
        assert beats, "heartbeat never fired"
        assert beats[-1]["completed"] == 3
        assert beats[-1]["live"] == 0
        assert beats[-1]["total"] == 3
        assert beats[-1]["events"] > 0
        assert all(
            b["completed"] <= a["completed"]
            for b, a in zip(beats, beats[1:])
        )

    def test_rejects_bad_max_live(self):
        with pytest.raises(ValueError):
            execute_batch([], max_live=0)

    def test_empty_batch(self):
        assert execute_batch([]) == []


class TestChunkedRunGrid:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [1, 4, None])
    def test_differential_vs_serial(self, jobs, chunk):
        cells = tiny_cells(6)
        baseline = run_grid(cells, jobs=1, chunk=1)
        expected = [_digest(result_to_payload(r)) for r in baseline.results]
        outcome = run_grid(cells, jobs=jobs, chunk=chunk)
        got = [_digest(result_to_payload(r)) for r in outcome.results]
        assert got == expected
        assert outcome.executed == len(cells)

    def test_chunk_all_single_task(self):
        cells = tiny_cells(5)
        baseline = run_grid(cells, jobs=1, chunk=1)
        outcome = run_grid(cells, jobs=2, chunk=len(cells))
        assert [
            _digest(result_to_payload(r)) for r in outcome.results
        ] == [_digest(result_to_payload(r)) for r in baseline.results]

    def test_chunked_results_flow_through_cache(self, tmp_path):
        from repro.orchestrate import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cells = tiny_cells(4)
        cold = run_grid(cells, jobs=2, chunk=2, cache=cache)
        assert cold.executed == 4
        warm = run_grid(cells, jobs=2, chunk=2, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 4
        assert [
            _digest(result_to_payload(r)) for r in warm.results
        ] == [_digest(result_to_payload(r)) for r in cold.results]


class TestSizingHelpers:
    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_available_cpus_respects_affinity(self):
        import os

        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))

    def test_auto_chunk_single_job_is_one_chunk(self):
        assert auto_chunk_size(32, 1) == 32
        assert auto_chunk_size(1, 1) == 1

    def test_auto_chunk_targets_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 4) == 2  # 16 chunks for 4 workers
        assert auto_chunk_size(100, 4) == 7
        assert auto_chunk_size(3, 8) == 1

    def test_auto_chunk_degenerate(self):
        assert auto_chunk_size(0, 4) == 1
