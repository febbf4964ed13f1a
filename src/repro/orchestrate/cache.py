"""Content-addressed on-disk result cache.

A cache entry is one simulated grid cell, keyed by a stable hash of
*everything that determines the result*: the SSD configuration, the
platform feature bundle, the (scaled) workload spec, the run parameters,
and the code/schema version. Equal inputs always map to the same key, so
repeated sweeps, CI runs, and overlapping benchmark grids skip cells that
have already been simulated — regardless of which entry point ran them
first.

Entries are JSON documents written atomically (tmp file + rename), so a
killed run never leaves a truncated entry behind. Every artifact kind
goes through one :func:`lookup`/:func:`store` pair (whole documents
through :func:`cached`); an unreadable or malformed entry is a miss.

The hashing and eviction primitives live in :mod:`repro.cacheutil`
(shared with the DirectGraph image cache) and are re-exported here for
backwards compatibility.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from .. import __version__
from ..cacheutil import (
    CacheStats,
    clear_dir,
    default_cache_dir,
    dir_stats,
    json_default,
    prune_dir,
    stable_hash,
)
from .serialize import CODECS, envelope_body, kind_tag

__all__ = [
    "stable_hash",
    "json_default",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "require_cache",
    "lookup",
    "store",
    "cached",
]


class ResultCache:
    """Directory of ``<key>.json`` entries, one per simulated cell."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """The stored document, or None on miss / unreadable entry."""
        path = self.path_for(key)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def put(self, key: str, document: Dict) -> Path:
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(document, sort_keys=True, default=json_default)
        )
        os.replace(tmp, path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return clear_dir(self.root, "*.json")

    def stats(self) -> CacheStats:
        return dir_stats(self.root, "*.json")

    def prune(
        self,
        keep_days: Optional[float] = None,
        max_mb: Optional[float] = None,
        _now: Optional[float] = None,
    ) -> int:
        """Evict stale entries; see :func:`repro.cacheutil.prune_dir`."""
        return prune_dir(
            self.root, "*.json", keep_days=keep_days, max_mb=max_mb, _now=_now
        )


def require_cache(cache: Optional[ResultCache], require_cached: bool) -> None:
    """A cache-only load needs a cache to load from."""
    if require_cached and cache is None:
        raise ValueError("require_cached needs a result cache")


def lookup(cache: Optional[ResultCache], kind: str, key: str) -> Optional[Dict]:
    """The payload stored under ``key``, or None on a miss.

    A readable document that is not a dict, has no dict ``payload``, or
    carries the wrong schema or kind is a miss too: the caller computes
    the artifact again and :func:`store` overwrites the entry.
    """
    if cache is None:
        return None
    document = cache.get(key)
    payload = document.get("payload") if isinstance(document, dict) else None
    try:
        envelope_body(kind, payload)
    except ValueError:
        return None
    return payload


def store(cache: ResultCache, kind: str, key: str, payload: Dict, **meta) -> None:
    """Write ``payload`` under ``key`` with its kind-tagged ``meta``."""
    meta = {**kind_tag(kind), **meta, "code_version": __version__}
    cache.put(key, {"payload": payload, "meta": meta})


def cached(
    cache: Optional[ResultCache],
    kind: str,
    key: str,
    compute: Callable[[], Tuple[object, Dict]],
    meta: Dict,
    *,
    require_cached: bool = False,
) -> Tuple[object, Optional[Dict]]:
    """Load one whole-document artifact, or compute and store it.

    ``compute()`` returns the artifact and its run accounting; under
    ``require_cached`` it must not simulate (it raises the miss
    ``KeyError`` or loads every part from the cache). Returns
    ``(artifact, accounting)``, with accounting None when the document
    came from the cache. A fresh artifact takes the same payload round
    trip a cached one does, so the two are interchangeable bit for bit.
    """
    require_cache(cache, require_cached)
    to_payload, from_payload = CODECS[kind]
    payload = lookup(cache, kind, key)
    if payload is not None:
        return from_payload(payload), None
    value, accounting = compute()
    payload = to_payload(value)
    if cache is not None:
        store(cache, kind, key, payload, **meta)
    return from_payload(payload), accounting
