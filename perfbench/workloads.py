"""The four benchmark workloads: set-up, one study, and its output checks.

Every workload is a closed loop of one client issuing one study at a
time, in one process: each study calls the program's public API
(``run_grid`` or ``sweep_serving``) with ``jobs=1`` on the in-process
``serial`` executor. The benchmark seed reaches the program only through
the cells, workload specs and arrival processes built here.

A study is split in three so that only the program call is timed:
``begin`` makes a fresh result cache, ``call`` is the timed program
call, and ``finish`` digests and checks the outputs and cleans up.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro import GridCell, ResultCache, run_grid, workload_by_name
from repro.cache.page import CacheConfig
from repro.directgraph.imagecache import ImageCache
from repro.orchestrate import adopt_prepared, result_to_payload, serving_to_payload
from repro.platforms import runner as _runner
from repro.platforms.runner import PreparedWorkload
from repro.serving.sweep import sweep_serving
from repro.ssd.config import ull_ssd
from repro.workloads.specs import WorkloadSpec

# The paper's Fig 14 column order; the ninth column is GIDS.
PLATFORMS = ("cc", "glist", "smartsage", "gids", "bg1", "bg_dg", "bg_sp", "bg_dgsp", "bg2")
DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class Scale:
    """Problem size of every workload at one scale."""

    nodes: int
    amazon_batch: int
    ogbn_batch: int
    batches: int
    queries: int
    rerender_batch: int
    rerender_configs: int
    setup_repeats: int
    # Check the paper's Fig 14 extremes (bg2 fastest, cc slowest). The
    # smoke graph is below the scale they are claimed at: there bg2 and
    # bg_dgsp, and cc and glist, tie within a few percent.
    check_orderings: bool = True


SCALES = {
    # What BENCHMARK.json runs: EXPERIMENTS.md graphs, hops and fanout with
    # smaller batches, so each study takes 0.1-5 s (at the EXPERIMENTS.md
    # batch of 64 one compare_amazon study takes 20-45 s).
    "bench": Scale(4096, 8, 16, 2, 64, 8, 3, 3),
    # All four workloads in seconds; the benchmark's own tests use it.
    "smoke": Scale(256, 8, 8, 1, 32, 8, 2, 2, check_orderings=False),
}

# Fig 18-style SSD knob variants for the re-render grid, defaults first.
SSD_VARIANTS = (
    ("default", lambda: ull_ssd()),
    ("channels8", lambda: ull_ssd().with_flash(num_channels=8)),
    ("cores2", lambda: ull_ssd().with_firmware(num_cores=2)),
)

# serve_ogbn settings: bg2 under Poisson arrivals, three offered rates.
# bg2 on ogbn at 4,096 nodes saturates near 180k QPS, so the top rate
# sheds queries; the smoke graph is smaller but sheds at the top rate too.
SERVE_RATES_QPS = (25_000.0, 150_000.0, 1_000_000.0)
SERVE_SETTINGS = dict(
    arrival_kind="poisson",
    query_batch_size=4,
    max_batch=8,
    batch_timeout_s=100e-6,
    queue_depth=8,
    max_live=2,
    page_cache=CacheConfig(capacity_mb=8.0, policy="lru"),
)


def canonical_digest(payload: Dict) -> str:
    """sha256 of a payload's canonical JSON (the golden-digest form)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def tree_bytes(root: Path, skip: str = "images") -> int:
    """Bytes of the files under ``root``, leaving out the ``skip`` subtree."""
    return sum(
        p.stat().st_size
        for p in root.rglob("*")
        if p.is_file() and skip not in p.relative_to(root).parts
    )


@contextmanager
def patched(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(original)`` until the block ends."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Spans:
    """Host seconds spent in wrapped program functions, timed from outside."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def wrap(self, owner, attr: str, label: str):
        totals = self.totals

        def make(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    totals[label] = totals.get(label, 0.0) + time.perf_counter() - start

            return timed

        return patched(owner, attr, make)


def prepare_spans(spans: Spans) -> ExitStack:
    """Wrap the three set-up layers: graph generation, image build, image cache."""
    stack = ExitStack()
    stack.enter_context(spans.wrap(WorkloadSpec, "build_graph", "gnn.build_graph_s"))
    stack.enter_context(spans.wrap(_runner, "build_directgraph", "directgraph.build_s"))
    stack.enter_context(spans.wrap(ImageCache, "get", "directgraph.imagecache_s"))
    stack.enter_context(spans.wrap(ImageCache, "put", "directgraph.imagecache_s"))
    return stack


@dataclass
class Study:
    """The checked outcome of one study."""

    digests: Dict[str, str]  # operation name -> canonical payload sha256
    failures: Dict[str, str] = field(default_factory=dict)  # op -> reason
    counts: Dict[str, float] = field(default_factory=dict)  # per-layer counts


class Workload:
    """One benchmark workload; subclasses define set-up and the study."""

    def __init__(self, scale: Scale, seed: int, work: Path) -> None:
        self.scale = scale
        self.seed = seed
        self.work = work
        self.setup_layers: Dict[str, float] = {}
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.work / f"d{self._dirs}"
        path.mkdir(parents=True)
        return path

    def spec(self, name: str) -> WorkloadSpec:
        base = workload_by_name(name).scaled(self.scale.nodes)
        return replace(base, seed=base.seed + self.seed)

    def prepare(self, spec: WorkloadSpec) -> float:
        """Prepare ``spec`` ``setup_repeats`` times; return the median seconds.

        Each repeat generates the graph and builds the DirectGraph image
        into a fresh image cache, with no earlier repeat's workload alive.
        The last prepared workload is adopted by the grid memo, so studies
        never rebuild it.
        """
        times: List[float] = []
        layers: Dict[str, List[float]] = {}
        for _ in range(self.scale.setup_repeats):
            self.prepared = None
            spans = Spans()
            icache = self.fresh_dir()
            with prepare_spans(spans):
                start = time.perf_counter()
                self.prepared = PreparedWorkload.prepare(spec, image_cache=icache)
                times.append(time.perf_counter() - start)
            shutil.rmtree(icache)
            for label, seconds in spans.totals.items():
                layers.setdefault(label, []).append(seconds)
        adopt_prepared(self.prepared)
        self.setup_layers = {k: statistics.median(v) for k, v in layers.items()}
        return statistics.median(times)

    def setup(self) -> float:
        """Build this workload's inputs; return its set-up seconds."""
        raise NotImplementedError

    def begin(self) -> Path:
        return self.fresh_dir()

    def call(self, cache_dir: Path):
        raise NotImplementedError

    def finish(self, cache_dir: Path, outcome) -> Study:
        raise NotImplementedError


class Compare(Workload):
    """The nine-platform Fig 14 grid on one workload."""

    def __init__(self, graph: str, batch: int, **kw):
        super().__init__(**kw)
        self.graph = graph
        self.batch = batch

    def setup(self) -> float:
        spec = self.spec(self.graph)
        seconds = self.prepare(spec)
        self.cells = [
            GridCell(
                platform,
                spec,
                batch_size=self.batch,
                num_batches=self.scale.batches,
                num_hops=3,
                fanout=3,
                seed=self.seed,
                scaled_nodes=self.scale.nodes,
            )
            for platform in PLATFORMS
        ]
        return seconds

    def call(self, cache_dir: Path):
        # The memo holds the prepared image; image_cache=False keeps each
        # study from writing it to a fresh <cache>/images again.
        return run_grid(
            self.cells, jobs=1, executor="serial", cache=ResultCache(cache_dir), image_cache=False
        )

    def finish(self, cache_dir: Path, outcome) -> Study:
        study = Study(
            digests={
                cell.platform: canonical_digest(result_to_payload(result))
                for cell, result in zip(self.cells, outcome.results)
            },
            counts={
                "orchestrate.cache_bytes": tree_bytes(cache_dir),
                "orchestrate.cache_hit_ratio": outcome.cache_hits / len(self.cells),
            },
        )
        throughput = {
            cell.platform: result.throughput_targets_per_sec
            for cell, result in zip(self.cells, outcome.results)
        }
        if self.scale.check_orderings:
            if max(throughput, key=throughput.get) != "bg2":
                study.failures["bg2"] = "bg2 is not the fastest platform"
            if min(throughput, key=throughput.get) != "cc":
                study.failures["cc"] = "cc is not the slowest platform"
        shutil.rmtree(cache_dir)
        return study


class Serve(Workload):
    """``sweep_serving`` of bg2 on ogbn at the three offered rates."""

    def setup(self) -> float:
        return self.prepare(self.spec("ogbn"))

    def call(self, cache_dir: Path):
        return sweep_serving(
            "bg2",
            self.prepared,
            SERVE_RATES_QPS,
            num_queries=self.scale.queries,
            seed=self.seed,
            jobs=1,
            executor="serial",
            cache=ResultCache(cache_dir),
            image_cache=False,
            **SERVE_SETTINGS,
        )

    def finish(self, cache_dir: Path, sweep) -> Study:
        study = Study(digests={}, counts={"orchestrate.cache_bytes": tree_bytes(cache_dir)})
        dispatched = executed = hits = shed = offered = 0
        for outcome in sweep.outcomes:
            result = outcome.result
            op = f"{result.offered_qps:g}qps"
            study.digests[op] = canonical_digest(serving_to_payload(result))
            if result.completed + result.shed != result.num_queries:
                study.failures[op] = "completed + shed != offered queries"
            dispatched += len(result.batch_sizes)
            executed += outcome.cells_executed
            hits += outcome.cell_cache_hits
            shed += result.shed
            offered += result.num_queries
        if sweep.outcomes[-1].result.shed == 0:
            op = f"{SERVE_RATES_QPS[-1]:g}qps"
            study.failures[op] = "the top rate sheds no queries"
        study.counts.update(
            {
                "serving.cells": executed,
                "serving.memo_hit_ratio": 1.0 - (executed + hits) / dispatched,
                "serving.shed_ratio": shed / offered,
                "orchestrate.cache_hit_ratio": hits / max(1, executed + hits),
            }
        )
        shutil.rmtree(cache_dir)
        return study


class Rerender(Workload):
    """A knob-sweep grid filled cold in set-up, then re-rendered from cache."""

    def setup(self) -> float:
        spec = self.spec("ogbn")
        seconds = self.prepare(spec)
        self.labels: List[str] = []
        self.cells: List[GridCell] = []
        for label, make in SSD_VARIANTS[: self.scale.rerender_configs]:
            for platform in PLATFORMS:
                self.labels.append(f"{platform}@{label}")
                self.cells.append(
                    GridCell(
                        platform,
                        spec,
                        ssd_config=make(),
                        batch_size=self.scale.rerender_batch,
                        num_batches=self.scale.batches,
                        seed=self.seed,
                        scaled_nodes=self.scale.nodes,
                    )
                )
        self.cache_dir = self.fresh_dir()
        start = time.perf_counter()
        fill = run_grid(self.cells, jobs=1, executor="serial", cache=ResultCache(self.cache_dir))
        seconds += time.perf_counter() - start
        self.fill_digests = {
            label: canonical_digest(result_to_payload(result))
            for label, result in zip(self.labels, fill.results)
        }
        return seconds

    def begin(self) -> Path:
        return self.cache_dir

    def call(self, cache_dir: Path):
        return run_grid(self.cells, jobs=1, executor="serial", cache=ResultCache(cache_dir))

    def finish(self, cache_dir: Path, outcome) -> Study:
        study = Study(
            digests={
                label: canonical_digest(result_to_payload(result))
                for label, result in zip(self.labels, outcome.results)
            },
            counts={
                "orchestrate.cache_bytes": tree_bytes(cache_dir),
                "orchestrate.cache_hit_ratio": outcome.cache_hits / len(self.cells),
            },
        )
        for label, digest in study.digests.items():
            if outcome.executed:
                study.failures[label] = f"re-render simulated {outcome.executed} cells"
            elif digest != self.fill_digests[label]:
                study.failures[label] = "re-rendered result differs from the cold fill"
        return study


def make_workload(name: str, scale: Scale, seed: int, work: Path) -> Workload:
    kw = dict(scale=scale, seed=seed, work=work)
    if name == "compare_amazon":
        return Compare("amazon", scale.amazon_batch, **kw)
    if name == "compare_ogbn":
        return Compare("ogbn", scale.ogbn_batch, **kw)
    if name == "serve_ogbn":
        return Serve(**kw)
    if name == "rerender_warm":
        return Rerender(**kw)
    raise KeyError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")


WORKLOADS = ("compare_amazon", "compare_ogbn", "serve_ogbn", "rerender_warm")


class Checker:
    """Checks every study's digests against a reference.

    On the default seed the reference is the recorded digest file; on
    any other seed it is the first study of the run, so every later
    study must repeat it bit for bit. Cross-path failures reported by the
    workload itself count too. An operation is one cell or one serving
    point; it fails when any check on it fails.
    """

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, study: Study) -> int:
        if self.reference is None:
            self.reference = dict(study.digests)
        failures = dict(study.failures)
        for op, digest in study.digests.items():
            expected = self.reference.get(op)
            if expected != digest:
                failures.setdefault(op, f"digest {digest[:12]} != reference {str(expected)[:12]}")
        for op in self.reference.keys() - study.digests.keys():
            failures.setdefault(op, "operation missing from the study")
        self.attempted += len(study.digests)
        self.failed += len(failures)
        self.messages.extend(f"{op}: {why}" for op, why in sorted(failures.items()))
        return len(failures)

    def check_one(self, op: str, failure: Optional[str]) -> None:
        """Count one operation checked outside any study; ``failure`` says why it failed."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.messages.append(f"{op}: {failure}")


def load_recorded(scale_name: str, workload: str) -> Dict[str, str]:
    recorded = json.loads(DIGESTS_FILE.read_text())
    try:
        return recorded[scale_name][workload]
    except KeyError:
        raise SystemExit(
            f"no recorded digests for {scale_name}/{workload} in {DIGESTS_FILE.name}; "
            "record them with --record"
        )


def record(scale_name: str, workload: str, digests: Dict[str, str]) -> None:
    recorded = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    recorded.setdefault(scale_name, {})[workload] = digests
    DIGESTS_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
