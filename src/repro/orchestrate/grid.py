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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..directgraph import builder as _builder
from ..directgraph import imagecache as _imagecache
from ..cache.page import CacheConfig
from ..directgraph.imagecache import ImageCache
from ..platforms.background import BackgroundIoConfig
from ..platforms.features import PlatformFeatures
from ..platforms.registry import platform_by_name
from ..platforms.result import RunResult
from ..directgraph.layout import DEFAULT_LAYOUT
from ..platforms.runner import DEFAULT_SCALED_NODES, PreparedWorkload, run_platform
from ..rng import stream_seed
from ..ssd.config import SSDConfig, ull_ssd
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


@dataclass(frozen=True)
class GridCell:
    """One experiment: a platform on a workload under one configuration.

    ``platform`` and ``workload`` accept registry names or resolved
    objects; both hash identically in the cache key. ``seed=None`` asks
    :func:`run_grid` to derive a deterministic per-cell seed from its
    ``base_seed`` and the cell's content.
    """

    platform: Union[str, PlatformFeatures]
    workload: Union[str, WorkloadSpec]
    ssd_config: Optional[SSDConfig] = None
    batch_size: int = 64
    num_batches: int = 3
    num_hops: int = 3
    fanout: int = 3
    hidden_dim: int = 128
    seed: Optional[int] = None
    scaled_nodes: int = DEFAULT_SCALED_NODES
    pipeline_overlap: bool = True
    sample_trace: bool = False
    background_io: Optional[BackgroundIoConfig] = None
    page_cache: Optional[CacheConfig] = None
    # DirectGraph page layout (see repro.directgraph.layout.LAYOUTS);
    # the default keeps pre-layout cache keys and image bytes.
    layout: str = DEFAULT_LAYOUT
    # Explicit per-batch target tuples (len == num_batches, may be
    # ragged/empty); None keeps the seeded target picker. The scale-out
    # router uses this to hand each device its owned slice of a batch.
    targets: Optional[Tuple[Tuple[int, ...], ...]] = None

    def resolved_platform(self) -> PlatformFeatures:
        if isinstance(self.platform, PlatformFeatures):
            return self.platform
        return platform_by_name(self.platform)

    def resolved_workload(self) -> WorkloadSpec:
        spec = self.workload
        if isinstance(spec, str):
            spec = workload_by_name(spec)
        # mirror run_platform's scaling rule
        if spec.num_nodes > self.scaled_nodes:
            spec = spec.scaled(self.scaled_nodes)
        return spec

    def resolved_config(self) -> SSDConfig:
        return self.ssd_config or ull_ssd()

    def run_params(self, seed: int) -> Dict:
        # Optional fields join only when set, so cells that predate them
        # keep their cache keys (and traced scale-out shards never collide
        # with an equal untraced run).
        return {
            "batch_size": self.batch_size,
            "num_batches": self.num_batches,
            "num_hops": self.num_hops,
            "fanout": self.fanout,
            "hidden_dim": self.hidden_dim,
            "seed": seed,
            "pipeline_overlap": self.pipeline_overlap,
            **non_default(
                sample_trace=(self.sample_trace, False),
                background_io=(self.background_io, None),
                page_cache=(self.page_cache, None),
                layout=(self.layout, DEFAULT_LAYOUT),
                targets=(self.targets, None),
            ),
        }


def _cell_identity(cell: GridCell) -> Dict:
    """Everything that determines the cell's result, except the seed."""
    return {
        "platform": cell.resolved_platform(),
        "workload": cell.resolved_workload(),
        "ssd_config": cell.resolved_config(),
        "run": cell.run_params(seed=0) | {"seed": None},
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


def resolve_inputs(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    ssd_config: Optional[SSDConfig] = None,
    scaled_nodes: Optional[int] = None,
    *,
    scale: bool = True,
) -> Tuple[PlatformFeatures, SSDConfig, WorkloadSpec, int, Optional[PreparedWorkload]]:
    """Resolve a whole-document entry point's inputs.

    Returns ``(features, config, spec, scaled_nodes, prepared)``. A
    :class:`PreparedWorkload` is adopted into the prepared-image memo and
    keeps its own spec (``scaled_nodes`` defaults to its node count). A
    registry name or spec gets ``scaled_nodes`` (default
    :data:`DEFAULT_SCALED_NODES`) and, with ``scale``, is scaled down to
    it the way :func:`run_platform` would.
    """
    if not isinstance(platform, PlatformFeatures):
        platform = platform_by_name(platform)
    config = ssd_config or ull_ssd()
    if isinstance(workload, PreparedWorkload):
        adopt_prepared(workload)
        spec = workload.spec
        nodes = spec.num_nodes if scaled_nodes is None else scaled_nodes
        return platform, config, spec, nodes, workload
    spec = workload_by_name(workload) if isinstance(workload, str) else workload
    nodes = DEFAULT_SCALED_NODES if scaled_nodes is None else scaled_nodes
    if scale and spec.num_nodes > nodes:
        spec = spec.scaled(nodes)
    return platform, config, spec, nodes, None


def prepared_image(
    spec: WorkloadSpec,
    config: SSDConfig,
    image_cache,
    cache: Optional[ResultCache],
    layout: str = DEFAULT_LAYOUT,
) -> PreparedWorkload:
    """The memoized prepared image of ``spec``, under the image-cache knob."""
    icache = _resolve_image_cache(image_cache, cache)
    root = str(icache.root) if icache is not None else None
    return _prepared_for(spec, config.flash.page_size, root, layout)


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
    _PREPARED_MEMO[key] = prepared
    while len(_PREPARED_MEMO) > _PREPARED_MEMO_MAX:
        _PREPARED_MEMO.popitem(last=False)
    return prepared


def _execute_cell(job: Tuple[GridCell, int, Optional[str]]) -> Dict:
    """Worker entry point: simulate one cell, return its payload dict."""
    cell, seed, image_cache_root = job
    config = cell.resolved_config()
    prepared = _prepared_for(
        cell.resolved_workload(),
        config.flash.page_size,
        image_cache_root,
        cell.layout,
    )
    result = run_platform(
        cell.resolved_platform(),
        prepared,
        ssd_config=config,
        **cell.run_params(seed),
    )
    return result_to_payload(result)


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

    if pending:
        # Pre-warm each distinct prepared image once in this process:
        # fork workers inherit the memo, and the disk cache (when set)
        # covers spawn workers and future runs.
        seen: set = set()
        for i in pending:
            cell = cells[i]
            spec = cell.resolved_workload()
            page_size = cell.resolved_config().flash.page_size
            if (spec, page_size, cell.layout) not in seen:
                seen.add((spec, page_size, cell.layout))
                _prepared_for(spec, page_size, icache_root, cell.layout)

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
