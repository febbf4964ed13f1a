"""Parallel experiment orchestration with content-addressed result caching.

The fan-out layer over ``repro.platforms.run_platform``: build a grid of
:class:`GridCell`\\ s, hand it to :func:`run_grid`, and get bit-identical
results whether the grid runs on one process, eight, or a pool of
``repro worker`` daemons across machines (``executor="remote"``), cold
or from the on-disk :class:`ResultCache`.
"""

from .batched import (
    DEFAULT_MAX_IDLE_SWEEPS,
    auto_chunk_size,
    available_cpus,
    execute_batch,
)
from .cache import CacheStats, ResultCache, default_cache_dir, stable_hash
from .executors import (
    DEFAULT_EXECUTOR,
    GridExecutor,
    ProcessExecutor,
    SerialExecutor,
    executor_by_name,
    executor_names,
    register_executor,
    resolve_executor,
)
from .grid import (
    GridCell,
    GridOutcome,
    adopt_prepared,
    cell_cache_key,
    derive_cell_seed,
    load_cached,
    outcome_from_cache,
    run_grid,
)
from .serialize import (
    result_from_payload,
    result_to_payload,
    scaleout_from_payload,
    scaleout_to_payload,
    serving_from_payload,
    serving_to_payload,
)

__all__ = [
    "GridCell",
    "GridOutcome",
    "run_grid",
    "load_cached",
    "outcome_from_cache",
    "adopt_prepared",
    "derive_cell_seed",
    "cell_cache_key",
    "execute_batch",
    "auto_chunk_size",
    "available_cpus",
    "DEFAULT_MAX_IDLE_SWEEPS",
    "GridExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "DEFAULT_EXECUTOR",
    "register_executor",
    "executor_names",
    "executor_by_name",
    "resolve_executor",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "stable_hash",
    "result_to_payload",
    "result_from_payload",
    "scaleout_to_payload",
    "scaleout_from_payload",
    "serving_to_payload",
    "serving_from_payload",
]
