"""Pluggable grid executor backends behind one ``GridExecutor`` protocol.

:func:`~repro.orchestrate.grid.run_grid` decides *what* to simulate
(pending cells, derived seeds, cache keys); an executor decides *where*
the simulations run. Three backends ship:

* ``serial`` — everything in the calling process through the
  cooperative batched executor (the zero-dispatch floor; also the
  bit-identity reference);
* ``process`` — the default: a local ``ProcessPoolExecutor`` fan-out,
  per-cell or chunked exactly as ``run_grid`` always dispatched;
* ``remote`` — a TCP coordinator feeding ``repro worker`` daemons over
  the length-prefixed JSON protocol in :mod:`repro.orchestrate.wire`
  (see :mod:`repro.orchestrate.remote`).

Every backend consumes the same ``(cell, seed, image_cache_root)`` job
tuples and returns payload texts in job order: each the sorted JSON text
:func:`~repro.orchestrate.serialize.encode` made of one cell's
``RunResult``, encoded once where the cell ran. ``serial`` returns them
lazily, so ``run_grid`` stores and drops each text before the next cell
finishes. Determinism is the protocol's core contract: per-cell seeds
are fixed *before* dispatch, a cell's simulation depends only on
(cell, seed), and a text is canonical JSON — so every backend returns,
and caches, byte-identical texts to ``serial``.

The registry is string-keyed so sweeps and the CLI can select a backend
by name (``executor="remote"`` / ``--executor remote`` /
``REPRO_EXECUTOR=remote``); an invalid environment value warns once and
falls back to the default rather than crashing or silently serializing.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .envcfg import env_choice

__all__ = [
    "GridExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "DEFAULT_EXECUTOR",
    "register_executor",
    "executor_names",
    "executor_by_name",
    "resolve_executor",
]

DEFAULT_EXECUTOR = "process"

Job = Tuple  # (cell, seed, image_cache_root)


class GridExecutor:
    """Protocol for grid backends: jobs in, payload texts out, in order.

    ``run`` returns a list, or an iterator that simulates as it is
    consumed.

    ``jobs`` is the caller's requested parallelism and ``chunk`` the
    dispatch granularity (``None`` = auto, ``1`` = per-cell); backends
    are free to interpret both as capacity hints, never as anything that
    may change results. ``cache`` (a
    :class:`~repro.orchestrate.cache.ResultCache` or None) is the shared
    content-addressed store — distributed backends forward its location
    so warm workers can skip already-simulated cells.
    """

    name = "abstract"

    def run(
        self,
        jobs_args: Sequence[Job],
        *,
        jobs: int = 1,
        chunk: Optional[int] = None,
        cache=None,
    ) -> Iterable[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (no-op for local backends)."""

    def __enter__(self) -> "GridExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(GridExecutor):
    """Everything in the calling process; the bit-identity reference.

    ``chunk=1`` keeps classic one-simulation-at-a-time execution; any
    other setting batches through
    :func:`~repro.orchestrate.batched.iter_batch` (same texts, shared
    warm image memo). Both are lazy: a cell runs when its text is asked
    for.
    """

    name = "serial"

    def run(
        self,
        jobs_args: Sequence[Job],
        *,
        jobs: int = 1,
        chunk: Optional[int] = None,
        cache=None,
    ) -> Iterable[str]:
        from .batched import iter_batch
        from .grid import _execute_cell

        if chunk == 1:
            return map(_execute_cell, jobs_args)
        return iter_batch(jobs_args)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ProcessExecutor(GridExecutor):
    """Local ``ProcessPoolExecutor`` fan-out (the historical default).

    ``chunk=1`` is classic per-cell dispatch — one pool task (and one
    payload text pickled back) per cell, kept exact for differential
    testing and as the perf-suite baseline. Chunked dispatch caps
    effective workers at the CPUs this process may use (a worker beyond
    that only adds fork + pickling overhead) and degrades to pure
    in-process batching, lazy as in ``serial``, when a pool cannot help.
    """

    name = "process"

    def run(
        self,
        jobs_args: Sequence[Job],
        *,
        jobs: int = 1,
        chunk: Optional[int] = None,
        cache=None,
    ) -> Iterable[str]:
        from .batched import (
            _execute_chunk,
            auto_chunk_size,
            available_cpus,
            iter_batch,
        )
        from .grid import _execute_cell

        jobs_args = list(jobs_args)
        if chunk == 1:
            if len(jobs_args) > 1 and jobs > 1:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(jobs_args)),
                    mp_context=_pool_context(),
                ) as pool:
                    return list(pool.map(_execute_cell, jobs_args))
            return map(_execute_cell, jobs_args)
        size = chunk if chunk is not None else auto_chunk_size(
            len(jobs_args), jobs
        )
        chunks = [
            jobs_args[i : i + size] for i in range(0, len(jobs_args), size)
        ]
        workers = min(jobs, available_cpus(), len(chunks))
        if workers > 1:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context()
            ) as pool:
                return [
                    p
                    for batch in pool.map(_execute_chunk, chunks)
                    for p in batch
                ]
        return iter_batch(jobs_args)


def _remote_factory() -> GridExecutor:
    from .remote import RemoteExecutor

    return RemoteExecutor()


_EXECUTORS: Dict[str, Callable[[], GridExecutor]] = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
    "remote": _remote_factory,
}


def register_executor(name: str, factory: Callable[[], GridExecutor]) -> None:
    """Add (or replace) a named backend factory."""
    _EXECUTORS[name] = factory


def executor_names() -> List[str]:
    return sorted(_EXECUTORS)


def executor_by_name(name: str) -> GridExecutor:
    normalized = name.strip().lower()
    factory = _EXECUTORS.get(normalized)
    if factory is None:
        raise ValueError(
            f"unknown executor {name!r} (one of {', '.join(executor_names())})"
        )
    return factory()


def resolve_executor(executor) -> GridExecutor:
    """Map ``run_grid``'s ``executor=`` argument onto a backend instance.

    ``None`` consults ``REPRO_EXECUTOR`` (invalid values warn once and
    fall back to ``process``); strings look up the registry; anything
    with a ``run`` method is used as-is.
    """
    if executor is None:
        return executor_by_name(
            env_choice("REPRO_EXECUTOR", DEFAULT_EXECUTOR, executor_names())
        )
    if isinstance(executor, str):
        return executor_by_name(executor)
    if hasattr(executor, "run"):
        return executor
    raise TypeError(
        f"executor must be None, a registered name, or a GridExecutor "
        f"(got {type(executor).__name__})"
    )
