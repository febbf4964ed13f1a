"""Public entry point: run one platform on one workload, collect results.

A :class:`GridCell` describes one run. :class:`PlatformRun` builds the
scaled graph + DirectGraph image, wires up the device and engines, and
simulates the cell's pipelined mini-batches into a fully-instrumented
:class:`RunResult`; ``run_platform("bg2", workload, **fields)`` is the
keyword form of the same.

Building the image is the expensive part, so :class:`PreparedWorkload`
lets benchmark harnesses build once and run all nine platforms on the
same bytes — which is also what guarantees every platform samples
identical subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..cache.page import CacheConfig, PageCache
from ..directgraph.address import AddressCodec
from ..directgraph.builder import DirectGraphImage, build_directgraph
from ..directgraph.layout import DEFAULT_LAYOUT, LAYOUTS, layout_order
from ..directgraph.spec import FormatSpec
from ..energy.model import attribute_energy
from ..gnn.features import ProceduralFeatureTable
from ..gnn.graph import Graph
from ..isc.commands import GnnTaskConfig
from ..sim import Simulator
from ..ssd.config import SSDConfig, ull_ssd
from ..workloads.registry import workload_by_name
from ..workloads.specs import WorkloadSpec
from .background import BackgroundIoConfig, BackgroundIoInjector
from .compute import ComputeEngine
from .datapath import DataPrepEngine
from .features import PlatformFeatures
from .pipeline import PipelineRunner
from .registry import platform_by_name
from .result import RunResult

__all__ = [
    "GridCell",
    "PreparedWorkload",
    "PlatformRun",
    "run_platform",
    "scaled_spec",
    "DEFAULT_SCALED_NODES",
]

DEFAULT_SCALED_NODES = 4096


def scaled_spec(spec: WorkloadSpec, scaled_nodes: int) -> WorkloadSpec:
    """``spec`` scaled down to ``scaled_nodes``; a smaller spec is kept as is."""
    return spec if spec.num_nodes <= scaled_nodes else spec.scaled(scaled_nodes)


@dataclass
class PreparedWorkload:
    """A workload instantiated once and shared across platform runs."""

    spec: WorkloadSpec
    graph: Graph
    features: ProceduralFeatureTable
    image: DirectGraphImage
    layout: str = DEFAULT_LAYOUT

    @classmethod
    def prepare(
        cls,
        spec: WorkloadSpec,
        page_size: int = 4096,
        image_cache=None,
        layout: str = DEFAULT_LAYOUT,
    ) -> "PreparedWorkload":
        """Instantiate a workload, loading the image from cache when possible.

        ``image_cache`` accepts an
        :class:`~repro.directgraph.imagecache.ImageCache`, a directory
        path, or ``True`` (default location); ``None``/``False`` always
        builds. The feature table is procedural, so only the graph and
        the serialized image come off disk on a hit.

        ``layout`` picks the page layout
        (:data:`~repro.directgraph.layout.LAYOUTS`); the default
        ``"node-order"`` reproduces pre-layout images byte-for-byte and
        keeps their cache keys.
        """
        from ..directgraph.imagecache import ImageCache

        if layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; available: {', '.join(LAYOUTS)}"
            )
        fmt = FormatSpec(
            page_size=page_size,
            feature_dim=spec.feature_dim,
            codec=AddressCodec.for_geometry(1 << 40, page_size),
        )
        cache = ImageCache.coerce(image_cache)
        key = (
            cache.key_for(spec, page_size, fmt, layout=layout)
            if cache is not None
            else None
        )
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                return cls(
                    spec=spec,
                    graph=cached.graph,
                    features=spec.build_features(),
                    image=cached.image,
                    layout=layout,
                )
        graph = spec.build_graph()
        features = spec.build_features()
        image = build_directgraph(
            graph, features, fmt, order=layout_order(graph, layout)
        )
        if cache is not None:
            cache.put(key, graph, image)
        return cls(
            spec=spec, graph=graph, features=features, image=image, layout=layout
        )

    def check_compatible(self, page_size: int, layout: str) -> None:
        """Raise ``ValueError`` unless this image fits a run's page size and layout."""
        if self.image.spec.page_size != page_size:
            raise ValueError(
                f"prepared image page size {self.image.spec.page_size} "
                f"differs from SSD page size {page_size}"
            )
        if self.layout != layout:
            raise ValueError(
                f"prepared workload uses layout {self.layout!r}, "
                f"requested {layout!r}"
            )


def _pick_targets(
    graph: Graph, batch_size: int, num_batches: int, seed: int
) -> List[List[int]]:
    rng = np.random.default_rng(seed)
    return [
        [
            int(t)
            for t in (
                rng.choice(graph.num_nodes, size=batch_size, replace=False)
                if graph.num_nodes >= batch_size
                else rng.integers(0, graph.num_nodes, size=batch_size)
            )
        ]
        for _ in range(num_batches)
    ]


@dataclass(frozen=True)
class GridCell:
    """One run: a platform on a workload under one configuration.

    The single description of a simulation, from the CLI and every
    study down to :class:`PlatformRun`. ``platform`` and ``workload``
    accept registry names or resolved objects; both hash identically in
    the cache key (:func:`repro.orchestrate.cell_cache_key`). A workload
    larger than ``scaled_nodes`` is scaled down to it
    (:func:`scaled_spec`). ``seed=None`` asks
    :func:`~repro.orchestrate.run_grid` to derive a deterministic
    per-cell seed from its ``base_seed`` and the cell's content.

    ``sample_trace=True`` records every sampled tree position per batch
    on ``result.sample_trace``; the scale-out array model uses it to
    measure cross-partition traffic. Tracing never changes simulated
    timing. ``page_cache`` puts a host-side page cache in front of the
    flash backend; ``None`` — or a capacity rounding to zero pages —
    leaves the run bit-identical to an uncached one. ``layout`` selects
    the DirectGraph page layout, which changes only which flash pages a
    walk touches, never the sampled subgraphs.

    Construction validates the run sizes: every count must be at least
    one, and explicit ``targets`` need one batch per ``num_batches``.
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
    # The result then reports served_targets.
    targets: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        for name in ("batch_size", "num_batches", "num_hops", "fanout", "scaled_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.targets is not None and len(self.targets) != self.num_batches:
            raise ValueError(
                f"explicit targets have {len(self.targets)} batches, "
                f"expected num_batches={self.num_batches}"
            )

    def resolved_platform(self) -> PlatformFeatures:
        if isinstance(self.platform, PlatformFeatures):
            return self.platform
        return platform_by_name(self.platform)

    def resolved_workload(self) -> WorkloadSpec:
        spec = self.workload
        if isinstance(spec, str):
            spec = workload_by_name(spec)
        return scaled_spec(spec, self.scaled_nodes)

    def resolved_config(self) -> SSDConfig:
        return self.ssd_config or ull_ssd()


class PlatformRun:
    """One platform simulation, set up eagerly and steppable cooperatively.

    Construction does everything up to (but not including) driving the
    event loop: workload preparation (unless ``prepared`` is given),
    device/engine wiring, batch target selection, and pipeline launch.
    Every knob comes from ``cell``; ``seed`` is the effective seed (the
    cell's own may be unset). From there the owner either calls
    :meth:`run` (the blocking form — exactly what :func:`run_platform`
    does) or interleaves :meth:`step` slices with other live
    ``PlatformRun`` instances and calls :meth:`finalize` once
    :attr:`finished` — the batched grid executor
    (:mod:`repro.orchestrate.batched`) hosts many of these in one
    process. Both drive the same kernel delivery order, so the
    :class:`RunResult` is bit-identical either way.
    """

    def __init__(
        self, cell: GridCell, seed: int, prepared: Optional[PreparedWorkload] = None
    ):
        platform = cell.resolved_platform()
        config = cell.resolved_config()
        page_size = config.flash.page_size
        if prepared is None:
            prepared = PreparedWorkload.prepare(
                cell.resolved_workload(), page_size=page_size, layout=cell.layout
            )
        else:
            prepared.check_compatible(page_size, cell.layout)

        task = GnnTaskConfig(
            num_hops=cell.num_hops,
            fanout=cell.fanout,
            feature_dim=prepared.spec.feature_dim,
            seed=seed,
        )
        sim = Simulator()
        prep = DataPrepEngine(
            sim,
            config,
            platform,
            prepared.image,
            task,
            trace_samples=cell.sample_trace,
            page_cache=PageCache.from_config(cell.page_cache, page_size),
        )
        compute = ComputeEngine(
            sim, prep.device, platform, task, cell.hidden_dim, prep.meters
        )
        runner = PipelineRunner(sim, prep, compute, overlap=cell.pipeline_overlap)
        injector = None
        if cell.background_io is not None:
            injector = BackgroundIoInjector(sim, prep, cell.background_io)
        if cell.targets is not None:
            batches = [[int(t) for t in batch] for batch in cell.targets]
            served = sum(len(batch) for batch in batches)
        else:
            batches = _pick_targets(
                prepared.graph, cell.batch_size, cell.num_batches, seed + 1
            )
            served = None
        done = runner.run(batches)
        if injector is not None:
            done.add_callback(lambda _ev: injector.stop())

        self.sim = sim
        self.cell = cell
        self._platform = platform
        self._prepared = prepared
        self._config = config
        self._prep = prep
        self._runner = runner
        self._injector = injector
        self._done = done
        self._served_targets = served
        self._result: Optional[RunResult] = None

    @property
    def finished(self) -> bool:
        """True once the event loop has drained (ready to finalize)."""
        return self.sim.idle

    def step(self, max_events: int = 1) -> int:
        """Deliver at most ``max_events`` kernel entries; 0 means done."""
        return self.sim.step(max_events)

    def run(self) -> RunResult:
        """Drive the simulation to completion and return the result."""
        self.sim.run()
        return self.finalize()

    def finalize(self) -> RunResult:
        """Collect the :class:`RunResult` after the event loop drained.

        Idempotent — repeated calls return the same object. Raises if the
        pipeline stalled (queues drained without the done event firing).
        """
        if self._result is not None:
            return self._result
        if not self._done.triggered:
            raise RuntimeError("pipeline did not finish (simulation stalled)")
        sim = self.sim
        prep = self._prep
        platform = self._platform
        config = self._config

        prep.device.close_trackers()
        total = sim.now
        meters = prep.meters
        meters.totals["pcie_busy_s"] = prep.device.pcie.tracker.busy_time(0.0, total)
        meters.totals["dram_busy_s"] = prep.device.dram.tracker.busy_time(0.0, total)
        meters.totals["host_threads"] = config.host.num_threads
        meters.totals["fw_cores"] = config.firmware.num_cores

        result = RunResult(
            platform=platform.name,
            workload=self._prepared.spec.name,
            batch_size=self.cell.batch_size,
            num_batches=self.cell.num_batches,
            total_seconds=total,
            batches=self._runner.timings,
            stage_agg=prep.stage_agg,
            hop_timeline=prep.hop_timeline,
            meters=meters,
            die_trackers=prep.device.flash.die_trackers(),
            channel_trackers=prep.device.flash.channel_trackers(),
            firmware_busy_seconds=prep.device.firmware_busy_seconds(),
            served_targets=self._served_targets,
        )
        report = attribute_energy(
            meters=meters.as_dict(),
            firmware_busy_s=result.firmware_busy_seconds,
            flash_busy_s=sum(t.busy_time(0.0, total) for t in result.die_trackers),
            channel_bytes=prep.device.flash.channel_bytes,
            total_seconds=total,
            total_targets=result.total_targets,
        )
        result.energy_breakdown = dict(report.categories)
        result.meters.totals["energy_total_j"] = report.total_joules
        result.meters.totals["energy_watts"] = report.average_watts
        result.meters.totals["targets_per_joule"] = report.targets_per_joule
        if self._injector is not None:
            result.background_io = self._injector.stats
        if self.cell.sample_trace:
            result.sample_trace = prep.sample_traces
        if prep.page_cache is not None:
            pc = prep.page_cache
            meters.totals["page_cache_hits"] = float(pc.hits)
            meters.totals["page_cache_misses"] = float(pc.misses)
            meters.totals["page_cache_evictions"] = float(pc.evictions)
            result.cache = pc.stats_dict()
        self._result = result
        # Break the cycles a finished run would otherwise leave for a full
        # collection: the dies' executor is a bound method of the engine,
        # and pooled events point back at the simulator.
        prep.device.flash.detach_executor()
        sim.clear_pools()
        return result


def run_platform(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    **fields,
) -> RunResult:
    """Simulate one :class:`GridCell` given as keywords (``seed`` defaults to 0).

    ``workload`` may be a registry name or :class:`WorkloadSpec` (scaled
    to ``scaled_nodes`` and instantiated) or a :class:`PreparedWorkload`,
    used as-is. The blocking convenience form of :class:`PlatformRun`.
    """
    fields.setdefault("seed", 0)
    prepared = workload if isinstance(workload, PreparedWorkload) else None
    cell = GridCell(platform, prepared.spec if prepared else workload, **fields)
    return PlatformRun(cell, cell.seed, prepared).run()
