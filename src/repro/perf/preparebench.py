"""Workload-prepare microbenchmarks behind ``repro perf --suite prepare``.

Measures the pipeline that turns a :class:`WorkloadSpec` into a
:class:`PreparedWorkload` — graph synthesis, feature table, DirectGraph
planning and serialization — plus the warm path that loads a serialized
image from the content-addressed :class:`ImageCache` instead of
rebuilding it.

``impl`` selects the production vectorized builder (``"current"``) or the
retained per-node reference (``"reference"``); running both and merging
with :func:`repro.perf.merge_before_after` produces the committed
``BENCH_prepare.json`` before/after record. The rate metric is nodes/sec,
so reports taken at the same scale are directly comparable and the CI
regression gate reuses :func:`repro.perf.check_against_baseline`
unchanged.

Benchmarks (all best-of-``repeats``):

* ``prepare_plan`` — planning only (``serialize=False``) on a prebuilt
  graph: Algorithm 1's metadata pass in isolation.
* ``prepare_build`` — plan + page serialization on a prebuilt graph and
  feature table: the full image-build step.
* ``prepare_cold`` — end-to-end ``PreparedWorkload.prepare`` cost with no
  cache: graph + features + build (what every cold grid pays per
  distinct workload).
* ``prepare_warm`` — ``PreparedWorkload.prepare`` against a primed image
  cache: the steady-state cost once an image exists on disk.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Dict

from .microbench import BENCH_SCHEMA_VERSION

__all__ = ["PREPARE_IMPLS", "run_prepare_suite"]

PREPARE_IMPLS = ("current", "reference")


def _builder_for(impl: str) -> Callable:
    if impl == "current":
        from ..directgraph.builder import build_directgraph

        return build_directgraph
    if impl == "reference":
        from ..directgraph._reference import build_directgraph_reference

        return build_directgraph_reference
    raise ValueError(f"unknown impl {impl!r}; expected one of {PREPARE_IMPLS}")


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def _row(nodes: int, seconds: float) -> Dict:
    return {
        "metric": "ops_per_sec",
        "value": nodes / seconds if seconds > 0 else 0.0,
        "ops": nodes,
        "seconds": seconds,
    }


def run_prepare_suite(
    nodes: int = 4096,
    workload: str = "amazon",
    repeats: int = 3,
    impl: str = "current",
    page_size: int = 4096,
) -> Dict:
    """Run the prepare suite; returns a schema-tagged report document."""
    from ..directgraph import FormatSpec
    from ..directgraph.address import AddressCodec
    from ..directgraph.imagecache import ImageCache
    from ..platforms.runner import PreparedWorkload, scaled_spec
    from ..workloads import workload_by_name

    if nodes < 2:
        raise ValueError("nodes must be at least 2")
    build = _builder_for(impl)
    spec = scaled_spec(workload_by_name(workload), nodes)

    def fmt() -> FormatSpec:
        return FormatSpec(
            page_size=page_size,
            feature_dim=spec.feature_dim,
            codec=AddressCodec.for_geometry(1 << 40, page_size),
        )

    graph = spec.build_graph()
    features = spec.build_features()

    results: Dict[str, Dict] = {}
    results["prepare_plan"] = _row(
        nodes, _best_of(lambda: build(graph, spec=fmt(), serialize=False), repeats)
    )
    results["prepare_build"] = _row(
        nodes, _best_of(lambda: build(graph, features, fmt()), repeats)
    )

    def cold() -> None:
        g = spec.build_graph()
        f = spec.build_features()
        build(g, f, fmt())

    results["prepare_cold"] = _row(nodes, _best_of(cold, repeats))

    with tempfile.TemporaryDirectory(prefix="repro-preparebench-") as tmp:
        cache = ImageCache(tmp)
        # Prime the entry (untimed), then time pure cache-hit prepares.
        PreparedWorkload.prepare(spec, page_size=page_size, image_cache=cache)
        results["prepare_warm"] = _row(
            nodes,
            _best_of(
                lambda: PreparedWorkload.prepare(
                    spec, page_size=page_size, image_cache=cache
                ),
                repeats,
            ),
        )

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "results": results,
        "params": {
            "suite": "prepare",
            "nodes": nodes,
            "workload": spec.name,
            "impl": impl,
            "page_size": page_size,
        },
    }
