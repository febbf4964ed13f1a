"""The shared cached-artifact contract, at every entry point.

A result-cache entry that is readable JSON but not a well-formed
envelope of the expected kind is a *miss*: without ``require_cached``
it is simulated again and overwritten (and counted as executed), with
``require_cached`` it raises the normal miss ``KeyError``. Asking for
``require_cached`` without a result cache is a ``ValueError`` raised by
one shared helper.
"""

import json
import socket

import pytest

from repro.cache.sweep import sweep_cache
from repro.orchestrate import (
    GridCell,
    ResultCache,
    cell_cache_key,
    load_cached,
    outcome_from_cache,
    run_grid,
)
from repro.orchestrate.serialize import (
    cache_sweep_to_payload,
    result_to_payload,
    scaleout_to_payload,
    serving_to_payload,
)
from repro.orchestrate.wire import encode_job
from repro.orchestrate.worker import _execute_chunk_message
from repro.platforms.query import measure_query_latency
from repro.platforms.scaleout import scaleout_outcome
from repro.serving import serve
from repro.serving.arrivals import PoissonArrivals
from repro.workloads import workload_by_name

SPEC = workload_by_name("ogbn").scaled(256)
SMALL = dict(num_hops=2, fanout=2)

MALFORMED = {
    "non_dict_document": [1, 2],
    "missing_payload": {"meta": {}},
    "non_dict_payload": {"payload": "result", "meta": {}},
    "wrong_schema": {"payload": {"schema": 99}},
    "wrong_kind": {"payload": {"schema": 1, "kind": "elsewhere"}, "meta": {}},
}


def _cells():
    return [
        GridCell(p, SPEC, batch_size=4, num_batches=1, seed=1, scaled_nodes=256, **SMALL)
        for p in ("bg2", "cc")
    ]


def _corrupt(cache: ResultCache, document) -> int:
    entries = list(cache.root.glob("*.json"))
    for path in entries:
        path.write_text(json.dumps(document))
    return len(entries)


def _grid(cache, require_cached):
    outcome = run_grid(_cells(), cache=cache, executor="serial", image_cache=False)
    payloads = [result_to_payload(r) for r in outcome.results]
    return payloads, outcome.executed, outcome.keys


def _worker_chunk(cache, require_cached):
    cells = _cells()
    message = {
        "chunk_id": 0,
        "jobs": [encode_job((c, c.seed, None)) for c in cells],
        "keys": [cell_cache_key(c, c.seed) for c in cells],
        "cache_root": str(cache.root),
    }
    a, b = socket.socketpair()
    try:
        payloads, executed, _cached = _execute_chunk_message(a, message, None)
    finally:
        a.close()
        b.close()
    return payloads, executed, message["keys"]


def _scaleout(cache, require_cached):
    outcome = scaleout_outcome(
        2, "bg2", SPEC, batch_size=4, num_batches=1, cache=cache,
        image_cache=False, require_cached=require_cached, **SMALL,
    )
    return scaleout_to_payload(outcome.result), outcome.shards_executed, [outcome.key]


def _serve(cache, require_cached):
    outcome = serve(
        "bg2", SPEC, PoissonArrivals(rate_qps=5e4, seed=1), num_queries=2,
        cache=cache, image_cache=False, require_cached=require_cached, **SMALL,
    )
    return serving_to_payload(outcome.result), outcome.cells_executed, [outcome.key]


def _sweep_cache(cache, require_cached):
    outcome = sweep_cache(
        "bg2", SPEC, capacities_mb=[0.25], policies=["lru"], batch_size=4,
        num_batches=1, scaled_nodes=256, cache=cache, image_cache=False,
        require_cached=require_cached, **SMALL,
    )
    return cache_sweep_to_payload(outcome.sweep), outcome.cells_executed, [outcome.key]


# entry point -> (run(cache, require_cached), whether it takes require_cached)
ENTRY_POINTS = {
    "run_grid": (_grid, False),
    "worker_chunk": (_worker_chunk, False),
    "scaleout": (_scaleout, True),
    "serve": (_serve, True),
    "sweep_cache": (_sweep_cache, True),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_malformed_document_is_a_counted_miss(tmp_path, entry, shape):
    run, takes_require_cached = ENTRY_POINTS[entry]
    cache = ResultCache(tmp_path)
    expected, _, keys = run(cache, False)
    assert _corrupt(cache, MALFORMED[shape]) >= len(keys)

    payload, executed, again = run(cache, False)
    assert (payload, again) == (expected, keys)
    assert executed > 0
    for key in keys:  # each malformed entry was rewritten well-formed
        assert isinstance(cache.get(key)["payload"], dict)
    assert run(cache, False) == (expected, 0, keys)

    if takes_require_cached:
        _corrupt(cache, MALFORMED[shape])
        with pytest.raises(KeyError, match="not in result cache"):
            run(cache, True)


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_document_is_a_miss_for_cache_only_loads(tmp_path, shape):
    cache = ResultCache(tmp_path)
    run_grid(_cells(), cache=cache, executor="serial", image_cache=False)
    _corrupt(cache, MALFORMED[shape])
    assert load_cached(_cells(), cache) == [None, None]
    with pytest.raises(KeyError, match="2 of 2 cells not in result cache"):
        outcome_from_cache(_cells(), cache)


REQUIRE_CACHED_ENTRY_POINTS = {
    "scaleout": lambda: scaleout_outcome(
        2, "bg2", SPEC, batch_size=4, num_batches=1, require_cached=True, **SMALL
    ),
    "serve": lambda: serve(
        "bg2", SPEC, PoissonArrivals(rate_qps=5e4), num_queries=2,
        require_cached=True, **SMALL,
    ),
    "sweep_cache": lambda: sweep_cache(
        "bg2", SPEC, capacities_mb=[0.25], policies=["lru"], batch_size=4,
        num_batches=1, require_cached=True, **SMALL,
    ),
    "measure_query_latency": lambda: measure_query_latency(
        "bg2", SPEC, num_queries=2, require_cached=True, **SMALL
    ),
}


@pytest.mark.parametrize("entry", sorted(REQUIRE_CACHED_ENTRY_POINTS))
def test_require_cached_without_a_cache_is_one_value_error(entry):
    with pytest.raises(ValueError, match="require_cached needs a result cache") as info:
        REQUIRE_CACHED_ENTRY_POINTS[entry]()
    assert info.traceback[-1].name == "require_cache"
