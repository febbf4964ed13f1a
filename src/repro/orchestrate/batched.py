"""Cooperative multi-simulation executor: many live kernels, one process.

Per-cell process dispatch pays payload pickling, interpreter spin-up,
and a cold prepared-image memo for every task — overhead that dwarfs the
simulation itself when a sweep is made of many small cells. This module
amortizes it MQSim-style: :func:`execute_batch` hosts up to ``max_live``
:class:`~repro.platforms.runner.PlatformRun` instances inside one
process, round-robining bounded :meth:`~repro.sim.kernel.Simulator.step`
slices across them so all of them share one warm
``_PREPARED_MEMO`` and one interpreter, and emitting incremental
progress heartbeats between slices.

Delivery-order guarantee: each kernel is driven only through ``step``,
which delivers in exactly the order one ``run()`` call would (see
:mod:`repro.sim.kernel`), and the simulations share no state, so the
payloads produced here are bit-identical to per-cell dispatch.

:func:`run_grid` ships batches of cells to workers through
:func:`_execute_chunk`; :func:`auto_chunk_size` and
:func:`available_cpus` size those batches from the cell count and the
CPUs this process may actually use (``sched_getaffinity`` intersected
with the cgroup v2 CPU quota, not ``cpu_count``, so CPU-limited
containers don't oversubscribe).
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..platforms.runner import PlatformRun
from .envcfg import env_float
from .grid import start_cell
from .serialize import result_to_payload

__all__ = [
    "execute_batch",
    "available_cpus",
    "auto_chunk_size",
    "DEFAULT_SLICE_EVENTS",
    "DEFAULT_MAX_LIVE",
    "DEFAULT_MAX_IDLE_SWEEPS",
]

# One slice is the unit of interleaving: large enough that slice
# bookkeeping vanishes against kernel work, small enough that heartbeats
# and refills stay responsive for cells of any size.
DEFAULT_SLICE_EVENTS = 50_000

# Live kernels held concurrently per process. Bounds peak memory (each
# live run owns a full device model) while still overlapping the
# finalize/start bookkeeping of neighbouring cells.
DEFAULT_MAX_LIVE = 4

# Stall guard: a healthy kernel only ever delivers fewer events than the
# slice budget when it has drained (``finished``); a run that repeatedly
# comes up short *without* finishing is wedged, and the sweep loop must
# fail loudly instead of spinning on it forever.
DEFAULT_MAX_IDLE_SWEEPS = 8


_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_cpu_quota(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Effective CPU count from the cgroup v2 quota, or None.

    ``cpu.max`` holds ``"<quota> <period>"`` in microseconds, or
    ``"max"`` for unlimited. A container pinned to e.g. ``200000 100000``
    may be *scheduled* on every host CPU (affinity says 64) yet only ever
    receives 2 CPUs of time — sizing a pool off affinity there
    oversubscribes 32x. Returns ``ceil(quota / period)``; None when
    unlimited, absent (cgroup v1 / non-Linux), or unparseable.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parts = handle.read().split()
        if not parts or parts[0] == "max":
            return None
        quota = int(parts[0])
        period = int(parts[1]) if len(parts) > 1 else 100_000
        if quota <= 0 or period <= 0:
            return None
        return max(1, math.ceil(quota / period))
    except (OSError, ValueError):
        return None


def available_cpus() -> int:
    """CPUs this process may actually use — affinity- and quota-aware.

    ``os.sched_getaffinity`` reflects CPU *placement* limits that
    ``os.cpu_count`` ignores (falling back to the latter where affinity
    is unsupported, e.g. macOS), but a cgroup v2 CPU *bandwidth* quota
    caps throughput without touching affinity, so take the minimum of
    both. Never returns less than 1.
    """
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    quota = _cgroup_cpu_quota()
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, cpus)


def auto_chunk_size(n_cells: int, jobs: int) -> int:
    """Cells per worker task when the caller didn't pin ``--chunk``.

    One process: a single chunk (pure in-process batching, no pool at
    all). Parallel: ~4 chunks per worker, so a straggler chunk idles a
    worker for at most ~1/4 of its share while dispatch overhead is
    still amortized over ``chunk`` cells per task.
    """
    if n_cells <= 0:
        return 1
    if jobs <= 1:
        return n_cells
    return max(1, math.ceil(n_cells / (jobs * 4)))


def execute_batch(
    jobs: Sequence[Tuple],
    *,
    max_live: int = DEFAULT_MAX_LIVE,
    slice_events: int = DEFAULT_SLICE_EVENTS,
    heartbeat: Optional[Callable[[Dict], None]] = None,
    max_idle_sweeps: int = DEFAULT_MAX_IDLE_SWEEPS,
) -> List[Dict]:
    """Simulate a batch of cells cooperatively; payloads in job order.

    ``jobs`` are the same ``(cell, seed, image_cache_root)`` tuples the
    per-cell worker protocol uses. Up to ``max_live`` simulations are
    live at once; each sweep gives every live kernel one
    ``step(slice_events)`` slice, finalizes the ones that drained, and
    refills from the queue. ``heartbeat`` (if set) is called after every
    sweep with ``{"completed", "live", "total", "events"}``.

    A run that delivers fewer than ``slice_events`` events without
    reporting ``finished`` for ``max_idle_sweeps`` consecutive sweeps is
    declared stalled and raises ``RuntimeError`` — the loop never spins
    silently on a wedged kernel.
    """
    if max_live < 1:
        raise ValueError("max_live must be >= 1")
    if max_idle_sweeps < 1:
        raise ValueError("max_idle_sweeps must be >= 1")
    jobs = list(jobs)
    payloads: List[Optional[Dict]] = [None] * len(jobs)
    pending = deque(range(len(jobs)))
    live: List[Tuple[int, PlatformRun]] = []
    idle_sweeps: Dict[int, int] = {}
    completed = 0
    events = 0
    while live or pending:
        while pending and len(live) < max_live:
            i = pending.popleft()
            live.append((i, start_cell(jobs[i])))
        still_live: List[Tuple[int, PlatformRun]] = []
        for i, run in live:
            n = run.step(slice_events)
            events += n
            if n < slice_events and run.finished:
                payloads[i] = result_to_payload(run.finalize())
                completed += 1
                idle_sweeps.pop(i, None)
            elif n < slice_events:
                # Short slice with an unfinished kernel: stall suspect.
                idle = idle_sweeps.get(i, 0) + 1
                if idle >= max_idle_sweeps:
                    raise RuntimeError(
                        f"simulation stalled: job {i} of {len(jobs)} "
                        f"delivered {n} < {slice_events} events in "
                        f"{idle} consecutive sweeps without finishing "
                        f"({completed}/{len(jobs)} cells completed, "
                        f"{events} events total)"
                    )
                idle_sweeps[i] = idle
                still_live.append((i, run))
            else:
                idle_sweeps.pop(i, None)
                still_live.append((i, run))
        live = still_live
        if heartbeat is not None:
            heartbeat(
                {
                    "completed": completed,
                    "live": len(live),
                    "total": len(jobs),
                    "events": events,
                }
            )
    return payloads  # type: ignore[return-value]


def _env_heartbeat(chunk_size: int) -> Optional[Callable[[Dict], None]]:
    """Periodic stderr progress line, gated by ``REPRO_GRID_HEARTBEAT_S``.

    Workers run far from the orchestrating terminal; setting the env var
    to a positive number of seconds makes each one report sweep progress
    at that cadence (``0``/unset: silent, the default). Invalid values
    warn once and fall back to silent rather than crashing the worker.
    """
    interval = env_float("REPRO_GRID_HEARTBEAT_S", 0.0, minimum=0.0)
    if interval <= 0:
        return None
    last = [time.monotonic()]

    def beat(progress: Dict) -> None:
        now = time.monotonic()
        if now - last[0] >= interval:
            last[0] = now
            print(
                f"[repro.grid pid={os.getpid()}] "
                f"{progress['completed']}/{progress['total']} cells done, "
                f"{progress['live']} live, {progress['events']} events",
                file=sys.stderr,
                flush=True,
            )

    return beat


def _execute_chunk(chunk_jobs: Sequence[Tuple]) -> List[Dict]:
    """Worker entry point: one pool task simulates a whole chunk."""
    return execute_batch(chunk_jobs, heartbeat=_env_heartbeat(len(chunk_jobs)))
