"""Executor-backend microbenchmarks behind ``repro perf --suite dispatch``.

The executor layer promises that backend choice never changes results —
this suite pins down what it costs. It times the same many-small-cell
sweep (the :mod:`~repro.perf.gridbench` geometry) under three backends:

* ``dispatch_serial`` — the ``serial`` backend's in-process batch, the
  zero-dispatch floor;
* ``dispatch_percell`` — the ``process`` backend at ``chunk=1`` with an
  oversubscribed pool: one fork + one payload pickle per cell, the
  per-cell dispatch tax the remote pool is designed to beat;
* ``dispatch_remote`` — a warm loopback ``repro worker`` pool fed over
  the wire protocol (workers spawned and registered untimed, chunked
  dispatch), which amortizes process startup across the whole sweep
  the way a persistent fleet does;
* ``dispatch_remote_speedup`` — percell/remote (``ratio`` metric:
  higher is better, gated like ops/sec by ``check_against_baseline``).

On a single-CPU runner the ratio isolates dispatch overhead — a warm
persistent pool beating fork-per-cell — and on multi-core CI the same
number additionally captures real worker parallelism. Payloads from all
three backends are asserted identical before any timing is reported, so
the benchmark doubles as an end-to-end bit-identity check.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .microbench import BENCH_SCHEMA_VERSION

__all__ = ["run_dispatch_suite"]


def _row(metric: str, value: float, ops: int, seconds: float) -> Dict:
    return {"metric": metric, "value": value, "ops": ops, "seconds": seconds}


def run_dispatch_suite(
    n_cells: int = 16,
    repeats: int = 3,
    jobs: Optional[int] = None,
    workers: int = 2,
) -> Dict:
    """Run the executor-dispatch suite; returns a schema-tagged report."""
    from ..orchestrate.batched import available_cpus
    from ..orchestrate.executors import ProcessExecutor, SerialExecutor
    from ..orchestrate.grid import prepared_for
    from ..orchestrate.remote import RemoteExecutor
    from .gridbench import grid_suite_cells

    if n_cells < 2:
        raise ValueError("n_cells must be at least 2")
    if jobs is None:
        jobs = max(4, 2 * available_cpus())
    cells = grid_suite_cells(n_cells)

    # Pre-warm the shared image (untimed) so every backend starts from
    # the same warm memo and only dispatch strategy differs.
    prepared_for(cells[0])
    jobs_args = [(cell, cell.seed, None) for cell in cells]

    def best_of(fn) -> float:
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        return best

    serial = SerialExecutor()
    percell = ProcessExecutor()
    reference = serial.run(jobs_args, jobs=1)

    serial_s = best_of(lambda: serial.run(jobs_args, jobs=1))
    assert serial.run(jobs_args, jobs=1) == reference

    percell_s = best_of(
        lambda: percell.run(jobs_args, jobs=jobs, chunk=1)
    )
    assert percell.run(jobs_args, jobs=jobs, chunk=1) == reference

    remote = RemoteExecutor(
        port=0, min_workers=workers, spawn_workers=workers
    )
    try:
        # Untimed warm-up: spawns the workers, registers the pool, and
        # pushes one full sweep through the wire path.
        remote.run(jobs_args, jobs=workers)
        assert remote.run(jobs_args, jobs=workers) == reference
        remote_s = best_of(lambda: remote.run(jobs_args, jobs=workers))
    finally:
        remote.close()

    speedup = percell_s / remote_s if remote_s > 0 else 0.0
    results = {
        "dispatch_serial": _row("seconds", serial_s, n_cells, serial_s),
        "dispatch_percell": _row("seconds", percell_s, n_cells, percell_s),
        "dispatch_remote": _row("seconds", remote_s, n_cells, remote_s),
        "dispatch_remote_speedup": _row("ratio", speedup, n_cells, remote_s),
    }
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "results": results,
        "params": {
            "suite": "dispatch",
            "cells": n_cells,
            "jobs": jobs,
            "workers": workers,
            "cpus": available_cpus(),
        },
    }
