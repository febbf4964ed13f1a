"""One sorted JSON text per fresh artifact, from executor to cache file.

A fresh artifact is encoded once (``serialize.encode``) and that text is
spliced as-is into its cache document. Both are only sound while the
text is canonical: ``json.dumps(json.loads(text), sort_keys=True)`` must
give it back unchanged. A ``to_dict`` that grew an int-keyed dict would
break that silently (``sort_keys`` orders ints numerically, and the
decoded copy's string keys lexically), so this suite pins it for every
platform and artifact kind, and pins that every backend writes the same
cache bytes.
"""

import json
import os
import socket

import pytest

from repro import __version__
from repro.cache.page import CacheConfig
from repro.cache.sweep import sweep_cache
from repro.orchestrate import GridCell, ResultCache, cell_cache_key, run_grid
from repro.orchestrate.cache import store
from repro.orchestrate.grid import start_cell
from repro.orchestrate.remote import RemoteExecutor
from repro.orchestrate.serialize import decode, encode, kind_tag, result_to_payload
from repro.orchestrate.wire import encode_job
from repro.orchestrate.worker import _execute_chunk_message
from repro.platforms.background import BackgroundIoConfig
from repro.platforms.registry import platform_names
from repro.platforms.scaleout import scaleout_outcome
from repro.serving import serve
from repro.serving.arrivals import PoissonArrivals
from repro.workloads import workload_by_name

SPEC = workload_by_name("ogbn").scaled(256)
SMALL = dict(num_hops=2, fanout=2)

# Cells whose payload carries an optional section, each on top of default.
VARIANTS = {
    "default": {},
    "sample_trace": {"sample_trace": True},
    "page_cache": {"page_cache": CacheConfig(capacity_mb=0.25, policy="lru")},
    "background_io": {"background_io": BackgroundIoConfig(rate_per_s=2e4, seed=1)},
}


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True)


def cell(platform: str, **fields) -> GridCell:
    return GridCell(
        platform, SPEC, batch_size=4, num_batches=1, seed=1, scaled_nodes=256,
        **SMALL, **fields,
    )


def stored_files(cache: ResultCache) -> dict:
    return {p.name: p.read_bytes() for p in sorted(cache.root.glob("*.json"))}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("platform", platform_names())
def test_result_text_is_canonical(platform, variant):
    grid_cell = cell(platform, **VARIANTS[variant])
    text = encode("result", start_cell((grid_cell, 1, None)).run())
    assert text == canonical(text)
    # the dict codec is the decoded text, and decodes to the same result
    assert json.loads(text) == result_to_payload(decode("result", text))


def _scaleout(cache):
    outcome = scaleout_outcome(
        2, "bg2", SPEC, batch_size=4, num_batches=1, cache=cache,
        image_cache=False, **SMALL,
    )
    return outcome.result


def _serving(cache):
    outcome = serve(
        "bg2", SPEC, PoissonArrivals(rate_qps=5e4, seed=1), num_queries=2,
        cache=cache, image_cache=False, **SMALL,
    )
    return outcome.result


def _cache_ablation(cache):
    outcome = sweep_cache(
        "bg2", SPEC, capacities_mb=[0.25], policies=["lru"], batch_size=4,
        num_batches=1, scaled_nodes=256, cache=cache, image_cache=False, **SMALL,
    )
    return outcome.sweep


# whole-document kind -> run(cache) returning the artifact it computed
WHOLE_DOCUMENTS = {"scaleout": _scaleout, "serving": _serving, "cache_ablation": _cache_ablation}


@pytest.mark.parametrize("kind", sorted(WHOLE_DOCUMENTS))
def test_whole_document_text_and_files_are_canonical(tmp_path, kind):
    """The artifact's text, and every document its run stored."""
    cache = ResultCache(tmp_path)
    text = encode(kind, WHOLE_DOCUMENTS[kind](cache))
    assert text == canonical(text)
    files = stored_files(cache)
    assert files, "the run stored nothing"
    for name, data in files.items():
        assert data.decode() == canonical(data.decode()), name


@pytest.mark.parametrize("kind", ["result", *sorted(WHOLE_DOCUMENTS)])
def test_spliced_document_equals_sorted_dump(tmp_path, kind):
    if kind == "result":
        value = start_cell((cell("bg2"), 1, None)).run()
    else:
        value = WHOLE_DOCUMENTS[kind](None)
    text = encode(kind, value)
    cache = ResultCache(tmp_path)
    meta = dict(platform="bg2", workload="ogbn", seed=1)
    store(cache, kind, "k", text, **meta)
    full_meta = {**kind_tag(kind), **meta, "code_version": __version__}
    assert cache.path_for("k").read_text() == json.dumps(
        {"payload": json.loads(text), "meta": full_meta}, sort_keys=True
    )


class TestResultCachePut:
    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_put_leaves_no_tmp_file(self, tmp_path, monkeypatch, failing):
        cache = ResultCache(tmp_path)

        def short_write(path, text):
            with open(path, "w") as handle:
                handle.write(text[:3])  # the tmp file exists, truncated
            raise OSError("disk full")

        def boom(*args, **kwargs):
            raise OSError("disk full")

        if failing == "write":
            monkeypatch.setattr(type(cache.path_for("k")), "write_text", short_write)
        else:
            monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.put("k", '{"payload": {}}')
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert "k" not in cache


def test_every_backend_writes_byte_identical_cache_files(tmp_path):
    """serial, process, loopback remote and a worker's shared-store write."""
    cells = [cell(p) for p in ("bg1", "cc", "glist", "bg2")]
    written = {}
    for name in ("serial", "process"):
        cache = ResultCache(tmp_path / name)
        run_grid(cells, jobs=2, chunk=2, cache=cache, executor=name, image_cache=False)
        written[name] = stored_files(cache)
    cache = ResultCache(tmp_path / "remote")
    with RemoteExecutor(port=0, min_workers=1, spawn_workers=1) as ex:
        run_grid(cells, jobs=2, chunk=2, cache=cache, executor=ex, image_cache=False)
    written["remote"] = stored_files(cache)

    # the worker alone: its shared-store write, no coordinator put after it
    cache = ResultCache(tmp_path / "worker")
    message = {
        "chunk_id": 0,
        "jobs": [encode_job((c, c.seed, None)) for c in cells],
        "keys": [cell_cache_key(c, c.seed) for c in cells],
        "cache_root": str(cache.root),
    }
    a, b = socket.socketpair()
    try:
        texts, executed, _cached = _execute_chunk_message(a, message, None)
        # a warm chunk answers from the store with the same texts
        again, executed_again, cached = _execute_chunk_message(a, message, None)
    finally:
        a.close()
        b.close()
    written["worker"] = stored_files(cache)
    assert (executed, executed_again, cached) == (4, 0, 4)
    assert again == texts

    assert len(written["serial"]) == len(cells)
    for name, files in written.items():
        assert files == written["serial"], name
