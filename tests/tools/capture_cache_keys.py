"""Regenerate the cache-key and stored-document corpus.

Records, for every cached artifact kind (grid cell, scale-out array,
serving point, cache ablation), the content-addressed key of a set of
configurations — the plain case plus every field that joins a key only
when it differs from its default — the sha256 of one stored result
cache document per kind (envelope and ``meta`` bytes included), and the
names of every cache file a cold run of each entry point writes.
``tests/test_cache_keys.py`` asserts the current code reproduces every
entry byte for byte: a changed key silently turns every warm cache on
disk cold, and a changed document breaks caches shared across versions
of the code.

Run from the repo root after an *intentional* key or envelope change
only:

    PYTHONPATH=src python tests/tools/capture_cache_keys.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.cache.page import CacheConfig
from repro.cache.sweep import cache_ablation_key, sweep_cache
from repro.orchestrate import GridCell, ResultCache, cell_cache_key, run_grid
from repro.platforms.background import BackgroundIoConfig
from repro.platforms.query import measure_query_latency
from repro.platforms.registry import platform_by_name
from repro.platforms.runner import PreparedWorkload
from repro.platforms.scaleout import P2pLink, scaleout_cache_key, scaleout_outcome
from repro.serving import serve, serving_cache_key
from repro.serving.arrivals import OnOffArrivals, PoissonArrivals, TraceArrivals
from repro.ssd.config import ull_ssd
from repro.workloads import workload_by_name

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "golden_cache_keys.json"

NODES = 256
SMALL = dict(num_hops=2, fanout=2)
PAGE_CACHE = CacheConfig(capacity_mb=0.5, policy="lfu")


def _spec():
    return workload_by_name("ogbn").scaled(NODES)


def cell_keys() -> dict:
    base = dict(
        platform="bg2", workload=_spec(), batch_size=8, num_batches=2,
        scaled_nodes=NODES, **SMALL,
    )
    variants = {
        "plain": {},
        "sample_trace": {"sample_trace": True},
        "background_io": {"background_io": BackgroundIoConfig(rate_per_s=2e4, seed=1)},
        "page_cache": {"page_cache": PAGE_CACHE},
        "layout_locality": {"layout": "locality"},
        "targets": {"targets": ((1, 2, 3), ())},
        "hidden_dim": {"hidden_dim": 64},
        "no_overlap": {"pipeline_overlap": False},
        # a registry name is scaled down to scaled_nodes before hashing
        "registry_name": {"workload": "amazon"},
        # so is a spec larger than scaled_nodes
        "spec_above_scaled_nodes": {"workload": workload_by_name("reddit").scaled(2 * NODES)},
        "ssd_config": {"ssd_config": ull_ssd().with_flash(num_channels=4)},
        "platform_features": {"platform": platform_by_name("glist")},
    }
    return {
        name: cell_cache_key(GridCell(**{**base, **fields}), 7)
        for name, fields in variants.items()
    }


def scaleout_keys() -> dict:
    base = dict(
        batch_size=8, num_batches=2, num_hops=2, fanout=2,
        cross_partition_fraction=None, link=P2pLink(), seed=0,
    )
    variants = {
        "default": {},
        "partitioner": {"partitioner": "greedy-edgecut"},
        "layout": {"layout": "locality"},
        "analytic_fraction": {"cross_partition_fraction": 0.25},
    }
    return {
        name: scaleout_cache_key(
            3, platform_by_name("bg2"), _spec(), ull_ssd(), **{**base, **fields}
        )
        for name, fields in variants.items()
    }


def serving_keys() -> dict:
    arrivals = {
        "poisson": PoissonArrivals(rate_qps=5e4, seed=1),
        "onoff": OnOffArrivals(rate_qps=8e4, on_s=1e-3, off_s=2e-3, seed=2),
        "trace": TraceArrivals(times_s=(0.0, 1e-5, 3e-5)),
    }
    params = dict(
        num_queries=3, query_batch_size=2, max_batch=4, batch_timeout_s=1e-5,
        queue_depth=8, max_live=2, num_hops=2, fanout=2, scaled_nodes=NODES,
        seed=0,
    )
    keys = {}
    for name, arrival in arrivals.items():
        for suffix, page_cache in (("", None), ("+page_cache", PAGE_CACHE)):
            keys[name + suffix] = serving_cache_key(
                platform_by_name("bg2"), _spec(), ull_ssd(), arrival.to_dict(),
                page_cache=page_cache, **params,
            )
    return keys


def ablation_keys() -> dict:
    return {
        "sweep": cache_ablation_key(
            platform_by_name("bg2"), _spec(), ull_ssd(),
            capacities_mb=[0.25, 1.0], policies=["lru", "clock"],
            hit_latency_s=1e-6, batch_size=8, num_batches=2, num_hops=2,
            fanout=2, scaled_nodes=NODES, seed=0,
        )
    }


def document_digests() -> dict:
    """sha256 of one stored result-cache document per artifact kind."""
    spec = _spec()
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        common = dict(cache=cache, image_cache=False)

        def digest(key: str) -> str:
            return hashlib.sha256(cache.path_for(key).read_bytes()).hexdigest()

        cell = GridCell(
            "bg2", spec, batch_size=4, num_batches=1, seed=3,
            scaled_nodes=NODES, **SMALL,
        )
        docs = {"cell": digest(run_grid([cell], **common).keys[0])}
        docs["scaleout"] = digest(
            scaleout_outcome(
                2, "bg2", spec, batch_size=4, num_batches=1, **SMALL, **common
            ).key
        )
        docs["serving"] = digest(
            serve(
                "bg2", spec, PoissonArrivals(rate_qps=5e4, seed=1),
                num_queries=3, **SMALL, **common,
            ).key
        )
        docs["cache_ablation"] = digest(
            sweep_cache(
                "bg2", spec, capacities_mb=[0.25], policies=["lru"],
                batch_size=4, num_batches=1, scaled_nodes=NODES, **SMALL,
                **common,
            ).key
        )
    return docs


def entry_point_keys() -> dict:
    """Keys the whole-document entry points report for a registry name.

    Pins how each resolves an unscaled workload: scale-out and the cache
    ablation key the scaled spec, serving keys the registry spec.
    """
    tiny = dict(num_hops=1, fanout=1)
    with tempfile.TemporaryDirectory() as root:
        common = dict(cache=ResultCache(root), image_cache=False)
        return {
            "scaleout": scaleout_outcome(
                2, "bg2", "ogbn", batch_size=2, num_batches=1, **tiny, **common
            ).key,
            "serving": serve(
                "bg2", "ogbn", PoissonArrivals(rate_qps=5e4), num_queries=1,
                **tiny, **common,
            ).key,
            "cache_ablation": sweep_cache(
                "bg2", "ogbn", capacities_mb=[0.25], policies=["lru"],
                batch_size=2, num_batches=1, **tiny, **common,
            ).key,
        }


def _files_written(run) -> list:
    """Sorted names of the result-cache files one cold ``run(common)`` writes."""
    with tempfile.TemporaryDirectory() as root:
        run(dict(cache=ResultCache(root), image_cache=False))
        return sorted(path.name for path in Path(root).iterdir())


def entry_point_files() -> dict:
    """Every cache file a cold run of each entry point writes.

    Pins the keys of the cells each entry point derives internally
    (per-shard, per-query, per-batch and per-ablation-point cells), not
    just the key of the whole document it reports.
    """
    spec = _spec()
    tiny = dict(num_hops=1, fanout=1)
    cells = [
        GridCell("bg2", "ogbn", batch_size=2, num_batches=1, scaled_nodes=NODES, **tiny),
        GridCell("cc", spec, batch_size=2, num_batches=1, seed=5, **tiny),
        GridCell(
            platform_by_name("bg1"), spec, batch_size=2, num_batches=1, seed=1,
            pipeline_overlap=False, layout="locality", **tiny,
        ),
    ]
    arrival = PoissonArrivals(rate_qps=5e5, seed=3)
    runs = {
        "run_grid": lambda common: run_grid(cells, **common),
        "scaleout_hash": lambda common: scaleout_outcome(
            2, "bg2", spec, batch_size=4, num_batches=2, **tiny, **common
        ),
        "scaleout_label_prop": lambda common: scaleout_outcome(
            2, "bg2", spec, batch_size=4, num_batches=1, partitioner="label-prop",
            **tiny, **common,
        ),
        "serve": lambda common: serve(
            "bg2", spec, arrival, num_queries=3, max_batch=2, query_batch_size=2,
            **tiny, **common,
        ),
        "sweep_cache": lambda common: sweep_cache(
            "bg2", "ogbn", capacities_mb=[0.25], policies=["lru", "clock"],
            batch_size=2, num_batches=1, scaled_nodes=NODES, **tiny, **common,
        ),
        "query_latency": lambda common: measure_query_latency(
            "bg2", spec, num_queries=2, **tiny, **common
        ),
        "query_latency_prepared": lambda common: measure_query_latency(
            "bg2", PreparedWorkload.prepare(spec), num_queries=2, **tiny, **common
        ),
    }
    return {name: _files_written(run) for name, run in runs.items()}


def compute_corpus() -> dict:
    return {
        "keys": {
            "cell": cell_keys(),
            "scaleout": scaleout_keys(),
            "serving": serving_keys(),
            "cache_ablation": ablation_keys(),
            "entry_point": entry_point_keys(),
        },
        "documents": document_digests(),
        "files": entry_point_files(),
    }


def main() -> int:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    corpus = compute_corpus()
    FIXTURE.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for kind, keys in corpus["keys"].items():
        print(f"  {kind:>14s}  {len(keys)} keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
