"""Grid-dispatch microbenchmarks behind ``repro perf --suite grid``.

The Fig 14 sweeps are many *small* cells, so per-cell process dispatch
(task pickling, pool scheduling, cold worker memo) can dwarf the
simulations themselves. This suite times one many-small-cell sweep under
the two dispatch strategies ``run_grid`` offers — classic per-cell
tasks (``chunk=1``) and batched chunks through the in-process
cooperative executor (:func:`repro.orchestrate.execute_batch`) — at the
*same* ``jobs`` setting, and reports:

* ``grid_percell`` — end-to-end sweep seconds, one pool task per cell;
* ``grid_chunked`` — end-to-end sweep seconds, auto-sized chunks;
* ``grid_speedup`` — percell/chunked (``ratio`` metric: higher is
  better, gated like ops/sec by ``check_against_baseline``);
* ``grid_inprocess`` — the same sweep run entirely inside this process
  by ``execute_batch`` (the zero-dispatch floor);
* ``grid_dispatch_overhead`` — per-cell dispatch cost, derived as
  ``(percell - inprocess) / cells``.

``jobs`` defaults to ``max(4, 2 * available_cpus())`` — deliberately
larger than the machine — because the interesting regime is the one the
affinity fix targets: a CPU-limited container asked for more workers
than it can run. Per-cell dispatch forks the pool it was asked for;
chunked dispatch caps effective workers at the affinity count and falls
back to in-process batching when the pool cannot help. Both paths
produce bit-identical payloads (pinned by ``tests/test_batched_dispatch``).

All cells share one prepared workload image, pre-warmed untimed, so the
suite measures dispatch — not DirectGraph builds.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .microbench import BENCH_SCHEMA_VERSION

__all__ = ["run_grid_suite", "grid_suite_cells"]

# Tiny-cell geometry: a few milliseconds of simulation per cell, the
# regime where dispatch overhead dominates a sweep.
_CELL_NODES = 256
_CELL_BATCH = 2
_CELL_HOPS = 2
_CELL_FANOUT = 2
_CELL_HIDDEN = 16
_CELL_WORKLOAD = "ogbn"


def grid_suite_cells(n_cells: int) -> List:
    """The suite's sweep: ``n_cells`` tiny cells cycling all platforms."""
    from ..orchestrate import GridCell
    from ..platforms import PLATFORMS

    platforms = sorted(PLATFORMS)
    return [
        GridCell(
            platform=platforms[i % len(platforms)],
            workload=_CELL_WORKLOAD,
            batch_size=_CELL_BATCH,
            num_batches=1,
            num_hops=_CELL_HOPS,
            fanout=_CELL_FANOUT,
            hidden_dim=_CELL_HIDDEN,
            seed=i,
            scaled_nodes=_CELL_NODES,
        )
        for i in range(n_cells)
    ]


def _row(metric: str, value: float, ops: int, seconds: float) -> Dict:
    return {"metric": metric, "value": value, "ops": ops, "seconds": seconds}


def run_grid_suite(
    n_cells: int = 16,
    repeats: int = 3,
    jobs: Optional[int] = None,
) -> Dict:
    """Run the grid-dispatch suite; returns a schema-tagged report."""
    from ..orchestrate import execute_batch, run_grid
    from ..orchestrate.batched import available_cpus
    from ..orchestrate.grid import prepared_for

    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if jobs is None:
        jobs = max(4, 2 * available_cpus())
    cells = grid_suite_cells(n_cells)

    # Pre-warm the shared image (untimed): every timed path starts from
    # the same warm memo, so only dispatch strategy differs.
    prepared_for(cells[0])
    seeds = [cell.seed for cell in cells]
    jobs_args = [(cell, seed, None) for cell, seed in zip(cells, seeds)]

    def best_of(fn) -> float:
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        return best

    percell_s = best_of(lambda: run_grid(cells, jobs=jobs, chunk=1))
    chunked_s = best_of(lambda: run_grid(cells, jobs=jobs))
    inproc_s = best_of(lambda: execute_batch(jobs_args))

    speedup = percell_s / chunked_s if chunked_s > 0 else 0.0
    overhead = max(0.0, (percell_s - inproc_s) / n_cells)
    results = {
        "grid_percell": _row("seconds", percell_s, n_cells, percell_s),
        "grid_chunked": _row("seconds", chunked_s, n_cells, chunked_s),
        "grid_speedup": _row("ratio", speedup, n_cells, chunked_s),
        "grid_inprocess": _row("seconds", inproc_s, n_cells, inproc_s),
        "grid_dispatch_overhead": _row("seconds", overhead, n_cells, percell_s),
    }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "results": results,
        "params": {
            "suite": "grid",
            "cells": n_cells,
            "jobs": jobs,
            "cpus": available_cpus(),
            "workload": _CELL_WORKLOAD,
            "nodes": _CELL_NODES,
            "batch_size": _CELL_BATCH,
        },
    }
