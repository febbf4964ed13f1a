"""Real-time GNN query support (Section VIII, "Support for GNN query").

GNN queries are small-batch inference requests where *latency* is
critical. The paper argues BeaconGNN helps because it reduces host-SSD
communication to a single round and avoids channel congestion. This
module measures end-to-end per-query latency (data preparation plus
computation, no cross-batch pipelining) for any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Union

from ..quantile import mean, percentile
from ..ssd.config import SSDConfig
from ..workloads.specs import WorkloadSpec
from .runner import PreparedWorkload

__all__ = ["QueryLatencyResult", "measure_query_latency"]


@dataclass
class QueryLatencyResult:
    """Per-query latency statistics for one platform.

    Statistics come from the shared :mod:`repro.quantile` helpers:
    ``p99_s`` is the linear-interpolation estimator (the old
    nearest-rank truncation returned the plain maximum for every sample
    of 100 queries or fewer), and an empty latency list raises
    ``ValueError`` instead of ``ZeroDivisionError``/``IndexError``.
    """

    platform: str
    batch_size: int
    latencies_s: List[float]

    @property
    def mean_s(self) -> float:
        return mean(self.latencies_s)

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50.0)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99.0)


def measure_query_latency(
    platform: str,
    workload: Union[WorkloadSpec, PreparedWorkload],
    *,
    num_queries: int = 8,
    batch_size: int = 1,
    num_hops: int = 3,
    fanout: int = 3,
    ssd_config: Optional[SSDConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
    cache=None,
    image_cache=None,
    require_cached: bool = False,
    chunk: Optional[int] = None,
) -> QueryLatencyResult:
    """End-to-end latency of small inference batches.

    Each query is simulated as its own run (prep + compute, nothing to
    pipeline against), which is exactly the latency a single inference
    request observes on an otherwise idle device. Queries fan out as one
    :func:`~repro.orchestrate.run_grid` cell per query — batched
    dispatch, ``cache``/``image_cache`` reuse, and bit-identity across
    ``jobs`` all apply. ``require_cached=True`` raises ``KeyError`` on
    any miss instead of simulating (the warm-cache figure path).
    """
    from ..orchestrate.grid import base_cell, run_or_load

    if num_queries < 1:
        raise ValueError("need at least one query")
    base, _prepared = base_cell(
        platform, workload, ssd_config=ssd_config, batch_size=batch_size,
        num_batches=1, num_hops=num_hops, fanout=fanout,
    )
    cells = [replace(base, seed=seed + q) for q in range(num_queries)]
    grid = run_or_load(
        cells, cache, require_cached, jobs=jobs, image_cache=image_cache, chunk=chunk
    )
    return QueryLatencyResult(
        platform=platform,
        batch_size=batch_size,
        latencies_s=[r.total_seconds for r in grid.results],
    )
