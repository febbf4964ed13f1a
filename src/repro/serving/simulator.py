"""Open-loop traffic-driven serving simulator (Section VIII under load).

``measure_query_latency`` is closed-loop: one query at a time on an
otherwise idle device, which reports *unloaded* latency but says nothing
about queueing, batching, or where throughput saturates. This module is
the open-loop complement — the DL-service-on-large-graphs setting:

* queries arrive on a deterministic :mod:`~repro.serving.arrivals`
  process (offered load is independent of service progress);
* a bounded queue admits at most ``queue_depth`` waiting queries and
  *sheds* the rest (counted, never silently dropped);
* waiting queries group into dynamic batches — dispatch fires when
  ``max_batch`` queries are waiting, or when the oldest has waited
  ``batch_timeout_s``, or immediately if the timeout is zero;
* up to ``max_live`` batches are in service concurrently (device
  replicas / execution slots);
* each dispatched batch's *service time* is a full BeaconGNN platform
  simulation — the same :class:`~repro.platforms.runner.GridCell` per-
  query runs the closed-loop harness uses, fanned through
  :func:`~repro.orchestrate.run_grid` (so the cooperative batched
  executor interleaves many live :class:`~repro.platforms.runner.
  PlatformRun` kernels in one process, and every run flows through the
  content-addressed result cache).

The queueing dynamics play out in *virtual service time*: arrivals,
dispatches, and completions are events on one deterministic clock, with
completion scheduled ``service_time`` after dispatch. Per-query latency
is completion minus arrival — queue wait plus batch-formation wait plus
service.

Closed-loop identity: with ``max_batch=1`` and ``max_live=1`` at
vanishing offered load, every query dispatches alone on an idle slot, so
its latency is exactly its run's ``total_seconds`` — and the cells are
constructed identically to ``measure_query_latency`` (same seeds, same
cache keys), which the differential suite pins bit-for-bit.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..cache.page import CacheConfig
from ..platforms.features import PlatformFeatures
from ..platforms.result import RunResult
from ..platforms.runner import PreparedWorkload
from ..quantile import latency_summary, mean, percentile
from ..ssd.config import SSDConfig
from ..workloads.specs import WorkloadSpec
from .arrivals import ArrivalProcess

__all__ = [
    "ServingResult",
    "ServingOutcome",
    "BatchService",
    "serve",
    "serving_cache_key",
]

# Event priorities at equal timestamps: a completion frees its slot
# before a simultaneous arrival is admitted, and batch-timeout checks
# run last. Any fixed order is correct; this one is the contract.
_FINISH, _ARRIVAL, _TIMEOUT = 0, 1, 2


@dataclass
class ServingResult:
    """One serving measurement point: traffic in, latency/throughput out.

    ``latencies_s``/``queue_waits_s`` list completed queries in arrival
    order; shed queries appear only in the ``shed`` count.
    ``batch_sizes`` lists queries per dispatched batch in dispatch
    order. Round-trips losslessly through
    :func:`repro.orchestrate.serialize.serving_to_payload`.
    """

    platform: str
    workload: str
    arrival: Dict  # ArrivalProcess.to_dict() of the offered traffic
    offered_qps: float
    num_queries: int
    query_batch_size: int
    max_batch: int
    batch_timeout_s: float
    queue_depth: int
    max_live: int
    seed: int
    latencies_s: List[float]
    queue_waits_s: List[float]
    shed: int
    batch_sizes: List[int]
    makespan_s: float
    last_arrival_s: float

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def realized_qps(self) -> float:
        """The arrival rate this finite sample actually offered.

        A short exponential sample's mean interarrival deviates from
        nominal, so sustained-throughput checks compare achieved rate
        against this, not against the configured ``offered_qps``.
        """
        if self.last_arrival_s <= 0:
            return 0.0
        return self.num_queries / self.last_arrival_s

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.num_queries if self.num_queries else 0.0

    @property
    def achieved_qps(self) -> float:
        """Completed queries per second of virtual time, open-loop."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    @property
    def mean_s(self) -> float:
        return mean(self.latencies_s)

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50.0)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99.0)

    @property
    def mean_batch_size(self) -> float:
        return mean(self.batch_sizes) if self.batch_sizes else 0.0

    def summary(self) -> Dict[str, float]:
        return latency_summary(self.latencies_s)

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ServingResult":
        return cls(
            platform=str(data["platform"]),
            workload=str(data["workload"]),
            arrival=dict(data["arrival"]),
            offered_qps=float(data["offered_qps"]),
            num_queries=int(data["num_queries"]),
            query_batch_size=int(data["query_batch_size"]),
            max_batch=int(data["max_batch"]),
            batch_timeout_s=float(data["batch_timeout_s"]),
            queue_depth=int(data["queue_depth"]),
            max_live=int(data["max_live"]),
            seed=int(data["seed"]),
            latencies_s=[float(v) for v in data["latencies_s"]],
            queue_waits_s=[float(v) for v in data["queue_waits_s"]],
            shed=int(data["shed"]),
            batch_sizes=[int(v) for v in data["batch_sizes"]],
            makespan_s=float(data["makespan_s"]),
            last_arrival_s=float(data["last_arrival_s"]),
        )


@dataclass
class ServingOutcome:
    """A serving run plus its cache accounting.

    ``cells_executed``/``cell_cache_hits`` count the underlying per-batch
    platform simulations; ``from_cache`` means the whole serving document
    came off the result cache and zero cells were even consulted.
    ``batch_results`` holds the per-batch :class:`RunResult`\\ s in
    dispatch order for fresh runs (in-memory only — the differential
    suite compares their digests against the closed-loop harness).
    """

    result: ServingResult
    key: str
    from_cache: bool
    cells_executed: int = 0
    cell_cache_hits: int = 0
    images_built: int = 0
    image_hits: int = 0
    batch_results: Optional[List[RunResult]] = None


class BatchService:
    """Service-time oracle for dispatched batches.

    Resolution order per batch cell: in-memory memo, then the
    content-addressed result cache, then a fresh simulation through
    :func:`~repro.orchestrate.run_grid` (which engages the cooperative
    batched executor — many live kernels, one warm prepared-image memo).
    One instance is shared across all the points of a load sweep, so a
    query cell simulated for the 10-QPS point is a memo hit at every
    other point that forms the same batch.

    ``require_cached=True`` loads cells through
    :func:`~repro.orchestrate.outcome_from_cache` instead — any miss
    raises ``KeyError``, never simulates (the warm-cache render path).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = 1,
        cache=None,
        image_cache=None,
        require_cached: bool = False,
        chunk: Optional[int] = None,
        executor=None,
    ):
        from ..orchestrate.cache import require_cache

        require_cache(cache, require_cached)
        self.jobs = jobs
        self.cache = cache
        self.image_cache = image_cache
        self.require_cached = require_cached
        self.chunk = chunk
        self.executor = executor
        self.cells_executed = 0
        self.cell_cache_hits = 0
        self.images_built = 0
        self.image_hits = 0
        self._memo: Dict[str, RunResult] = {}

    @staticmethod
    def _key(cell) -> str:
        from ..orchestrate.grid import cell_cache_key

        # Serving cells always carry an explicit seed.
        return cell_cache_key(cell, cell.seed)

    def prefetch(self, cells) -> None:
        """Resolve many cells at once (the interleaved fan-out path)."""
        from ..orchestrate.grid import run_or_load

        todo = [c for c in cells if self._key(c) not in self._memo]
        if not todo:
            return
        outcome = run_or_load(
            todo,
            self.cache,
            self.require_cached,
            jobs=self.jobs,
            image_cache=self.image_cache,
            chunk=self.chunk,
            executor=self.executor,
        )
        for cell, result in zip(todo, outcome.results):
            self._memo[self._key(cell)] = result
        self.cells_executed += outcome.executed
        self.cell_cache_hits += outcome.cache_hits
        self.images_built += outcome.images_built
        self.image_hits += outcome.image_hits

    def result_for(self, cell) -> RunResult:
        """The :class:`RunResult` of one batch cell (simulating on miss)."""
        key = self._key(cell)
        if key not in self._memo:
            self.prefetch([cell])
        return self._memo[key]


def serving_cache_key(
    platform: PlatformFeatures,
    spec: WorkloadSpec,
    config: SSDConfig,
    arrival: Dict,
    *,
    num_queries: int,
    query_batch_size: int,
    max_batch: int,
    batch_timeout_s: float,
    queue_depth: int,
    max_live: int,
    num_hops: int,
    fanout: int,
    scaled_nodes: int,
    seed: int,
    page_cache: Optional[CacheConfig] = None,
) -> str:
    """Content-addressed cache key for one serving measurement point."""
    from ..orchestrate.serialize import artifact_key, non_default

    run = {
        "num_queries": num_queries,
        "query_batch_size": query_batch_size,
        "max_batch": max_batch,
        "batch_timeout_s": batch_timeout_s,
        "queue_depth": queue_depth,
        "max_live": max_live,
        "num_hops": num_hops,
        "fanout": fanout,
        "scaled_nodes": scaled_nodes,
        "seed": seed,
        **non_default(page_cache=(page_cache, None)),
    }
    return artifact_key(
        "serving",
        {
            "platform": platform,
            "workload": spec,
            "ssd_config": config,
            "arrival": arrival,
            "run": run,
        },
    )


def serve(
    platform: Union[str, PlatformFeatures],
    workload: Union[str, WorkloadSpec, PreparedWorkload],
    arrival: ArrivalProcess,
    *,
    num_queries: int = 32,
    query_batch_size: int = 1,
    max_batch: int = 1,
    batch_timeout_s: float = 0.0,
    queue_depth: int = 64,
    max_live: int = 1,
    num_hops: int = 3,
    fanout: int = 3,
    ssd_config: Optional[SSDConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    require_cached: bool = False,
    chunk: Optional[int] = None,
    executor=None,
    service: Optional[BatchService] = None,
    page_cache: Optional[CacheConfig] = None,
) -> ServingOutcome:
    """Serve ``num_queries`` open-loop queries against one platform.

    Query ``q`` asks for ``query_batch_size`` inference targets on the
    counter stream ``seed + q`` — exactly the cell
    :func:`~repro.platforms.query.measure_query_latency` would run for
    it — and a dynamic batch of queries runs as one platform simulation
    sized to the sum of its queries' targets, seeded by its first query.

    A shared ``service`` (one per load sweep) memoizes batch simulations
    across points; when ``service`` is given it owns the ``jobs`` /
    ``cache`` / ``chunk`` / ``executor`` knobs and the ones passed here
    are ignored.
    ``require_cached=True`` loads the serving document (or, failing
    that, every needed cell) from cache and raises ``KeyError`` rather
    than simulate.

    ``page_cache`` puts a host-side page cache in each batch's datapath
    (see :class:`repro.platforms.runner.GridCell`): the cache is warm
    per batch simulation, so service times — and with them the
    latency–throughput knee — shift accordingly.
    """
    from ..orchestrate.cache import cached
    from ..orchestrate.grid import base_cell

    if num_queries < 1:
        raise ValueError("need at least one query")
    if query_batch_size < 1:
        raise ValueError("query_batch_size must be >= 1")
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if batch_timeout_s < 0:
        raise ValueError("batch_timeout_s must be >= 0")
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    if max_live < 1:
        raise ValueError("max_live must be >= 1")

    # Every batch is this cell with its own size and first-query seed.
    base, _prepared = base_cell(
        platform, workload, ssd_config=ssd_config, num_batches=1,
        num_hops=num_hops, fanout=fanout, page_cache=page_cache,
    )
    # mirror measure_query_latency: a registry spec is keyed unscaled
    features, spec = base.platform, base.workload
    arrival_doc = arrival.to_dict()
    key = serving_cache_key(
        features,
        spec,
        base.resolved_config(),
        arrival_doc,
        num_queries=num_queries,
        query_batch_size=query_batch_size,
        max_batch=max_batch,
        batch_timeout_s=batch_timeout_s,
        queue_depth=queue_depth,
        max_live=max_live,
        num_hops=num_hops,
        fanout=fanout,
        scaled_nodes=base.scaled_nodes,
        seed=seed,
        page_cache=page_cache,
    )
    meta = dict(
        platform=features.name,
        workload=spec.name,
        offered_qps=arrival.mean_rate_qps,
        seed=seed,
    )
    if service is None:
        service = BatchService(
            jobs=jobs,
            cache=cache,
            image_cache=image_cache,
            require_cached=require_cached,
            chunk=chunk,
            executor=executor,
        )

    def query_cell(first_query: int, n_queries: int):
        return replace(
            base, batch_size=n_queries * query_batch_size, seed=seed + first_query
        )

    def compute() -> Tuple[ServingResult, Dict]:
        executed_before = service.cells_executed
        hits_before = service.cell_cache_hits
        images_before = service.images_built
        image_hits_before = service.image_hits

        arrivals = arrival.times(num_queries)
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("arrival process produced decreasing timestamps")

        # Single-query batches are fully determined by the arrival index, so
        # the whole query population fans out through one interleaved grid
        # up front (shared across every sweep point via the service memo).
        if max_batch == 1 and not service.require_cached:
            service.prefetch([query_cell(q, 1) for q in range(num_queries)])

        # -- virtual-time event loop ---------------------------------------
        waiting: Deque[int] = deque()
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for i, t in enumerate(arrivals):
            heap.append((t, _ARRIVAL, seq, i))
            seq += 1
        heapq.heapify(heap)

        waits: Dict[int, float] = {}
        latencies: Dict[int, float] = {}
        shed: List[int] = []
        batches: List[Dict] = []  # {"indices": [...], "result": RunResult}
        makespan = 0.0
        free_slots = max_live
        timeout_armed_for = -1

        def dispatch_ready(now: float) -> None:
            nonlocal free_slots, seq, timeout_armed_for
            while free_slots > 0 and waiting:
                if len(waiting) >= max_batch:
                    size = max_batch
                elif batch_timeout_s <= 0.0:
                    size = len(waiting)
                elif now >= arrivals[waiting[0]] + batch_timeout_s:
                    size = len(waiting)
                else:
                    if timeout_armed_for != waiting[0]:
                        timeout_armed_for = waiting[0]
                        heapq.heappush(
                            heap,
                            (
                                arrivals[waiting[0]] + batch_timeout_s,
                                _TIMEOUT,
                                seq,
                                waiting[0],
                            ),
                        )
                        seq += 1
                    return
                indices = [waiting.popleft() for _ in range(size)]
                result = service.result_for(query_cell(indices[0], len(indices)))
                # Latency is wait + service, NOT finish-minus-arrival: the
                # latter re-derives the service time through a float
                # add/subtract pair and drifts ulps off the closed-loop
                # harness's raw RunResult.total_seconds.
                for q in indices:
                    waits[q] = now - arrivals[q]
                    latencies[q] = waits[q] + result.total_seconds
                batches.append({"indices": indices, "result": result})
                free_slots -= 1
                heapq.heappush(
                    heap,
                    (now + result.total_seconds, _FINISH, seq, len(batches) - 1),
                )
                seq += 1

        while heap:
            now, priority, _seq, payload = heapq.heappop(heap)
            if priority == _FINISH:
                makespan = max(makespan, now)
                free_slots += 1
                dispatch_ready(now)
            elif priority == _ARRIVAL:
                if len(waiting) >= queue_depth:
                    shed.append(payload)
                else:
                    waiting.append(payload)
                    dispatch_ready(now)
            else:  # _TIMEOUT
                if timeout_armed_for == payload:
                    timeout_armed_for = -1
                dispatch_ready(now)

        assert not waiting, "serving event loop ended with queries still queued"

        completed = [q for q in range(num_queries) if q in latencies]
        result = ServingResult(
            platform=features.name,
            workload=spec.name,
            arrival=arrival_doc,
            offered_qps=arrival.mean_rate_qps,
            num_queries=num_queries,
            query_batch_size=query_batch_size,
            max_batch=max_batch,
            batch_timeout_s=batch_timeout_s,
            queue_depth=queue_depth,
            max_live=max_live,
            seed=seed,
            latencies_s=[latencies[q] for q in completed],
            queue_waits_s=[waits[q] for q in completed],
            shed=len(shed),
            batch_sizes=[len(b["indices"]) for b in batches],
            makespan_s=makespan,
            last_arrival_s=arrivals[-1],
        )
        counts = dict(
            cells_executed=service.cells_executed - executed_before,
            cell_cache_hits=service.cell_cache_hits - hits_before,
            images_built=service.images_built - images_before,
            image_hits=service.image_hits - image_hits_before,
            batch_results=[b["result"] for b in batches],
        )
        return result, counts

    result, counts = cached(
        cache, "serving", key, compute, meta, require_cached=require_cached
    )
    return ServingOutcome(result, key, from_cache=counts is None, **(counts or {}))
