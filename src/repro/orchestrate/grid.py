"""Parallel experiment fan-out: ``run_grid`` over (platform, workload) cells.

Every benchmark grid in this repo is embarrassingly parallel — each
(platform, workload, config) cell is one independent discrete-event
simulation. :func:`run_grid` fans a grid across worker processes and
funnels results through the content-addressed :class:`ResultCache`.

Determinism contract: a cell's result depends only on the cell itself
(and, when its seed is left unset, on the grid ``base_seed``), never on
worker count or execution order. Per-cell seeds are derived with the
same ``repro.rng`` counter stream used by the samplers — keyed by the
cell's content hash — so ``--jobs 8`` is bit-identical to ``--jobs 1``,
and a cached result is bit-identical to a fresh one (both pass through
the same JSON round trip).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..directgraph import builder as _builder
from ..directgraph import imagecache as _imagecache
from ..directgraph.imagecache import ImageCache
from ..directgraph.layout import DEFAULT_LAYOUT
from ..platforms.features import PlatformFeatures
from ..platforms.registry import platform_by_name
from ..platforms.result import RunResult
from ..platforms.runner import (
    DEFAULT_SCALED_NODES,
    GridCell,
    PlatformRun,
    PreparedWorkload,
)
from ..rng import stream_seed
from ..workloads.registry import workload_by_name
from ..workloads.specs import WorkloadSpec
from .cache import ResultCache, lookup, require_cache, stable_hash, store
from .serialize import artifact_key, non_default, result_from_payload, result_to_payload

__all__ = [
    "GridCell",
    "GridOutcome",
    "run_grid",
    "load_cached",
    "outcome_from_cache",
    "derive_cell_seed",
    "cell_cache_key",
    "adopt_prepared",
]


def run_params(cell: GridCell, seed: int) -> Dict:
    """The run knobs of ``cell``'s key identity, at effective ``seed``."""
    # Optional fields join only when set, so cells that predate them
    # keep their cache keys (and traced scale-out shards never collide
    # with an equal untraced run).
    return {
        "batch_size": cell.batch_size,
        "num_batches": cell.num_batches,
        "num_hops": cell.num_hops,
        "fanout": cell.fanout,
        "hidden_dim": cell.hidden_dim,
        "seed": seed,
        "pipeline_overlap": cell.pipeline_overlap,
        **non_default(
            sample_trace=(cell.sample_trace, False),
            background_io=(cell.background_io, None),
            page_cache=(cell.page_cache, None),
            layout=(cell.layout, DEFAULT_LAYOUT),
            targets=(cell.targets, None),
        ),
    }


def _cell_identity(cell: GridCell) -> Dict:
    """Everything that determines the cell's result, except the seed."""
    return {
        "platform": cell.resolved_platform(),
        "workload": cell.resolved_workload(),
        "ssd_config": cell.resolved_config(),
        "run": run_params(cell, seed=0) | {"seed": None},
    }


def derive_cell_seed(base_seed: int, cell: GridCell) -> int:
    """Deterministic per-cell seed, independent of grid order and jobs.

    The cell's content hash is folded into one ``counter_draw`` keyed
    draw, so equal cells always get equal seeds and distinct cells get
    (overwhelmingly likely) distinct ones.
    """
    digest = stable_hash(_cell_identity(cell))
    key = int(digest[:16], 16)
    return stream_seed(base_seed, key)


def cell_cache_key(cell: GridCell, seed: int) -> str:
    """Content-addressed cache key for one (cell, effective seed)."""
    return artifact_key("result", {**_cell_identity(cell), "seed": seed})


def _lookup_cells(
    cells: Sequence[GridCell], cache: Optional[ResultCache], base_seed: int
) -> Tuple[List[int], List[str], List[Optional[Dict]]]:
    """The per-cell lookup: effective seeds, cache keys, cached payloads.

    Seeds and keys are fixed here, before any dispatch; a payload is
    None where the cell is not (well-formed) in ``cache``.
    """
    seeds = [
        cell.seed if cell.seed is not None else derive_cell_seed(base_seed, cell)
        for cell in cells
    ]
    keys = [cell_cache_key(cell, seed) for cell, seed in zip(cells, seeds)]
    return seeds, keys, [lookup(cache, "result", key) for key in keys]


def store_cell(
    cache: ResultCache, key: str, cell: GridCell, seed: int, payload: Dict
) -> None:
    """The per-cell put shared by :func:`run_grid` and remote workers."""
    platform, workload = cell.resolved_platform(), cell.resolved_workload()
    meta = dict(platform=platform.name, workload=workload.name, seed=seed)
    store(cache, "result", key, payload, **meta)


# Per-process bounded LRU of prepared workload images: the in-memory
# fast path over the on-disk ImageCache. Long sweeps over many distinct
# workloads evict least-recently-used entries instead of accumulating
# every prepared image in RAM.
_PREPARED_MEMO: "OrderedDict[Tuple[WorkloadSpec, int, str], PreparedWorkload]" = (
    OrderedDict()
)
_PREPARED_MEMO_MAX = 8


def _backfill_image(
    prepared: PreparedWorkload, page_size: int, image_cache_root: str
) -> None:
    """Persist a memoized image the disk cache has never seen.

    A memo hit skips ``PreparedWorkload.prepare`` entirely, so without
    this an image prepared before the disk cache came into play would
    never reach it — and spawn workers / later processes would rebuild.
    """
    if prepared.image.pages is None:
        return
    cache = ImageCache(image_cache_root)
    key = cache.key_for(
        prepared.spec, page_size, prepared.image.spec, layout=prepared.layout
    )
    if key not in cache:
        cache.put(key, prepared.graph, prepared.image)


def adopt_prepared(prepared: PreparedWorkload) -> None:
    """Seed the in-process prepared-workload memo with an existing image.

    Callers that already hold a :class:`PreparedWorkload` (benchmark
    harnesses, :func:`repro.platforms.scaleout.run_scaleout`) adopt it so
    a grid over the same (spec, page_size, layout) never rebuilds — the
    serial path and fork workers hit the memo directly.
    """
    key = (prepared.spec, prepared.image.spec.page_size, prepared.layout)
    _PREPARED_MEMO[key] = prepared
    _PREPARED_MEMO.move_to_end(key)
    while len(_PREPARED_MEMO) > _PREPARED_MEMO_MAX:
        _PREPARED_MEMO.popitem(last=False)


def base_cell(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    scaled_nodes: Optional[int] = None,
    **fields,
) -> Tuple[GridCell, Optional[PreparedWorkload]]:
    """A whole-document entry point's base cell, and its prepared image.

    Every cell the entry point runs is derived from the base cell with
    ``dataclasses.replace``. The cell holds the resolved platform and the
    unscaled spec; ``cell.resolved_workload()`` is the spec it runs. A
    :class:`PreparedWorkload` is adopted into the prepared-image memo and
    keeps its own spec (``scaled_nodes`` defaults to its node count); a
    registry name or spec gets ``scaled_nodes`` (default
    :data:`DEFAULT_SCALED_NODES`).
    """
    prepared = workload if isinstance(workload, PreparedWorkload) else None
    if prepared is not None:
        adopt_prepared(prepared)
        workload = prepared.spec
    elif isinstance(workload, str):
        workload = workload_by_name(workload)
    if scaled_nodes is None:
        scaled_nodes = workload.num_nodes if prepared else DEFAULT_SCALED_NODES
    if not isinstance(platform, PlatformFeatures):
        platform = platform_by_name(platform)
    return GridCell(platform, workload, scaled_nodes=scaled_nodes, **fields), prepared


def prepared_image(
    cell: GridCell, image_cache, cache: Optional[ResultCache]
) -> PreparedWorkload:
    """The memoized prepared image of ``cell``, under the image-cache knob."""
    icache = _resolve_image_cache(image_cache, cache)
    return prepared_for(cell, str(icache.root) if icache is not None else None)


def _prepared_for(
    spec: WorkloadSpec,
    page_size: int,
    image_cache_root: Optional[str] = None,
    layout: str = DEFAULT_LAYOUT,
) -> PreparedWorkload:
    key = (spec, page_size, layout)
    prepared = _PREPARED_MEMO.get(key)
    if prepared is not None:
        _PREPARED_MEMO.move_to_end(key)
        if image_cache_root is not None:
            _backfill_image(prepared, page_size, image_cache_root)
        return prepared
    prepared = PreparedWorkload.prepare(
        spec, page_size=page_size, image_cache=image_cache_root, layout=layout
    )
    adopt_prepared(prepared)
    return prepared


def prepared_for(
    cell: GridCell, image_cache_root: Optional[str] = None
) -> PreparedWorkload:
    """The memoized prepared image ``cell`` runs on."""
    page_size = cell.resolved_config().flash.page_size
    return _prepared_for(cell.resolved_workload(), page_size, image_cache_root, cell.layout)


def start_cell(job: Tuple[GridCell, int, Optional[str]]) -> PlatformRun:
    """Launch one ``(cell, seed, image_cache_root)`` job's simulation.

    The one start path of every executor: per-cell workers run it to
    completion, the batched executor steps it cooperatively.
    """
    cell, seed, image_cache_root = job
    return PlatformRun(cell, seed, prepared_for(cell, image_cache_root))


def _execute_cell(job: Tuple[GridCell, int, Optional[str]]) -> Dict:
    """Worker entry point: simulate one cell, return its payload dict."""
    return result_to_payload(start_cell(job).run())


@dataclass
class GridOutcome:
    """Results of one grid run, in cell order, plus cache accounting.

    ``images_built``/``image_hits`` count DirectGraph builds and image-cache
    hits observed *in the orchestrating process* (workers pre-warm through
    the parent, so a cold grid builds each distinct workload exactly once
    and a warm one builds zero).
    """

    results: List[RunResult]
    keys: List[str]
    from_cache: List[bool]
    executed: int = 0
    cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0

    def __iter__(self):
        return iter(self.results)

    def by_cell(self, cells: Sequence[GridCell]) -> Dict[GridCell, RunResult]:
        return dict(zip(cells, self.results))


def _resolve_image_cache(
    image_cache, cache: Optional[ResultCache]
) -> Optional[ImageCache]:
    """Image-cache knob semantics shared by run_grid and the CLI.

    ``False`` disables; an :class:`ImageCache`/path/``True`` selects
    explicitly; ``None`` (the default) derives ``<result-cache>/images``
    when a result cache is in play, else no disk image cache.
    """
    if image_cache is False:
        return None
    if image_cache is None:
        if cache is None:
            return None
        return ImageCache(Path(cache.root) / "images")
    return ImageCache.coerce(image_cache)


def run_grid(
    cells: Sequence[GridCell],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
    image_cache=None,
    chunk: Optional[int] = None,
    executor=None,
) -> GridOutcome:
    """Run every cell, in parallel, skipping cells already in ``cache``.

    Returns results in cell order. All results — fresh, parallel, or
    cached — pass through the same serialized payload form, so they are
    interchangeable bit for bit.

    ``executor`` picks the backend that actually runs pending cells: a
    registered name (``"serial"``, ``"process"``, ``"remote"``), a
    :class:`~repro.orchestrate.executors.GridExecutor` instance, or
    ``None`` to consult ``REPRO_EXECUTOR`` and default to the local
    process pool. Per-cell seeds and cache keys are fixed *before*
    dispatch, so every backend produces bit-identical results.

    ``jobs=None`` (or ``0``) auto-detects from CPU affinity and the
    cgroup CPU quota (:func:`~repro.orchestrate.batched.available_cpus`).
    ``chunk`` selects the dispatch granularity: ``1`` is classic
    per-cell dispatch (one pool task per cell); any larger value ships
    batches of that many cells per task through the in-process batched
    executor (:func:`~repro.orchestrate.batched.execute_batch`);
    ``None`` (the default) auto-sizes via
    :func:`~repro.orchestrate.batched.auto_chunk_size`. Every setting
    produces bit-identical results — chunking only changes how the work
    is shipped.

    Prepared workload images are shared two ways: the orchestrating
    process pre-builds each distinct (workload, page_size) once — fork
    workers inherit it through the in-memory memo — and, when an
    ``image_cache`` is in play (see :func:`_resolve_image_cache`), the
    serialized image is persisted so later runs and non-fork workers load
    bytes instead of rebuilding.
    """
    from .batched import available_cpus
    from .executors import resolve_executor

    if jobs is None or jobs == 0:
        jobs = available_cpus()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1 (or None for auto)")
    grid_executor = resolve_executor(executor)
    cells = list(cells)
    seeds, keys, payloads = _lookup_cells(cells, cache, base_seed)
    pending = [i for i, payload in enumerate(payloads) if payload is None]

    icache = _resolve_image_cache(image_cache, cache)
    icache_root = str(icache.root) if icache is not None else None
    builds_before = _builder.BUILD_COUNTER.count
    image_hits_before = _imagecache.COUNTERS.hits

    # Pre-warm each distinct prepared image once in this process: fork
    # workers inherit the memo, and the disk cache (when set) covers
    # spawn workers and future runs.
    for i in pending:
        prepared_for(cells[i], icache_root)

    jobs_args = [(cells[i], seeds[i], icache_root) for i in pending]
    fresh = (
        grid_executor.run(jobs_args, jobs=jobs, chunk=chunk, cache=cache)
        if jobs_args
        else []
    )
    if len(fresh) != len(jobs_args):
        raise RuntimeError(
            f"executor {grid_executor.name!r} returned {len(fresh)} payloads "
            f"for {len(jobs_args)} pending cells"
        )

    for i, payload in zip(pending, fresh):
        payloads[i] = payload
        if cache is not None:
            store_cell(cache, keys[i], cells[i], seeds[i], payload)

    pending_set = set(pending)
    return GridOutcome(
        results=[result_from_payload(p) for p in payloads],
        keys=keys,
        from_cache=[i not in pending_set for i in range(len(cells))],
        executed=len(pending),
        cache_hits=len(cells) - len(pending),
        images_built=_builder.BUILD_COUNTER.count - builds_before,
        image_hits=_imagecache.COUNTERS.hits - image_hits_before,
    )


def run_or_load(
    cells: Sequence[GridCell],
    cache: Optional[ResultCache],
    require_cached: bool,
    **run_kwargs,
) -> GridOutcome:
    """:func:`run_grid`, or under ``require_cached`` the cache-only
    :func:`outcome_from_cache` (any miss raises ``KeyError``)."""
    require_cache(cache, require_cached)
    if require_cached:
        return outcome_from_cache(cells, cache)
    return run_grid(cells, cache=cache, **run_kwargs)


def load_cached(
    cells: Sequence[GridCell],
    cache: ResultCache,
    *,
    base_seed: int = 0,
) -> List[Optional[RunResult]]:
    """Cache-only lookup: results for cached cells, None for misses.

    Lets analysis/plotting code reload a finished sweep without being
    able to accidentally trigger hours of simulation.
    """
    payloads = _lookup_cells(cells, cache, base_seed)[2]
    return [None if p is None else result_from_payload(p) for p in payloads]


def outcome_from_cache(
    cells: Sequence[GridCell],
    cache: ResultCache,
    *,
    base_seed: int = 0,
) -> GridOutcome:
    """A :class:`GridOutcome` built purely from cached results.

    The warm-cache figure path: rendering benchmarks re-plot a finished
    sweep with zero simulation and zero image builds. Any miss raises
    ``KeyError`` naming the missing cells — never silently simulates.
    """
    cells = list(cells)
    _seeds, keys, payloads = _lookup_cells(cells, cache, base_seed)
    missing = [
        f"{cell.resolved_platform().name}/{cell.resolved_workload().name}"
        for cell, payload in zip(cells, payloads)
        if payload is None
    ]
    if missing:
        raise KeyError(
            f"{len(missing)} of {len(cells)} cells not in result cache "
            f"{cache.root}: {', '.join(missing[:8])}"
            + ("..." if len(missing) > 8 else "")
            + " — run the sweep without --from-cache first"
        )
    return GridOutcome(
        results=[result_from_payload(p) for p in payloads],
        keys=keys,
        from_cache=[True] * len(cells),
        executed=0,
        cache_hits=len(cells),
    )
