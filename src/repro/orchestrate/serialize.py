"""Versioned envelopes and content-addressed keys for cached artifacts.

Four kinds of artifact reach the result cache: a grid cell's
:class:`RunResult`, a scale-out array, a serving point and a cache
ablation. :data:`ARTIFACTS` is the one table that says how each is
wrapped, and :func:`artifact_key` is the one key builder; the named
codecs (``result_to_payload`` and friends) are thin callers of the
shared wrap/open pair.

Payloads cross two boundaries — worker process -> parent, and disk cache
-> later run — so they are normalized through an actual JSON round trip:
what a warm-cache load sees is bit-identical to what a fresh simulation
returned, and any accidentally non-serializable instrument fails loudly
at produce time, not at cache-read time.
"""

from __future__ import annotations

import importlib
import json
from typing import Dict

from .. import __version__
from ..cacheutil import json_default, stable_hash
from ..platforms.result import RunResult

__all__ = [
    "ARTIFACTS",
    "CODECS",
    "artifact_key",
    "non_default",
    "result_to_payload",
    "result_from_payload",
    "scaleout_to_payload",
    "scaleout_from_payload",
    "serving_to_payload",
    "serving_from_payload",
    "cache_sweep_to_payload",
    "cache_sweep_from_payload",
]

# kind -> (schema, envelope field holding its to_dict(), "module:Class"
# whose from_dict reads that field back). The grid cell ("result")
# predates kind tags: its envelope, key and stored meta carry no "kind".
ARTIFACTS = {
    "result": (1, "result", "repro.platforms.result:RunResult"),
    "scaleout": (1, "scaleout", "repro.platforms.scaleout:ScaleOutResult"),
    "serving": (1, "serving", "repro.serving.simulator:ServingResult"),
    "cache_ablation": (1, "cache_ablation", "repro.cache.sweep:CacheSweep"),
}


def kind_tag(kind: str) -> Dict:
    """``{"kind": kind}`` for tagged kinds; empty for the grid cell."""
    return {} if kind == "result" else {"kind": kind}


def _wrap(kind: str, value) -> Dict:
    """Envelope with schema (and kind) tag; values are plain JSON types."""
    schema, field, _cls = ARTIFACTS[kind]
    doc = {"schema": schema, **kind_tag(kind), field: value.to_dict()}
    return json.loads(json.dumps(doc, default=json_default))


def envelope_body(kind: str, payload) -> Dict:
    """The body of a well-formed ``kind`` envelope; ValueError otherwise."""
    schema, field, _cls = ARTIFACTS[kind]
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} payload is not a JSON object")
    tag = kind_tag(kind).get("kind")
    if payload.get("schema") != schema or payload.get("kind") != tag:
        raise ValueError(
            f"unsupported {kind} payload (schema {payload.get('schema')!r}, "
            f"kind {payload.get('kind')!r}; expected schema {schema})"
        )
    body = payload.get(field)
    if not isinstance(body, dict):
        raise ValueError(f"{kind} payload has no {field!r} object")
    return body


def _open(kind: str, payload: Dict):
    module, name = ARTIFACTS[kind][2].split(":")
    cls = getattr(importlib.import_module(module), name)
    return cls.from_dict(envelope_body(kind, payload))


def non_default(**fields) -> Dict:
    """The ``name=(value, default)`` fields whose value is not the default.

    Optional run fields join a key only when set, so every document
    stored before the field existed keeps its key.
    """
    return {name: v for name, (v, default) in fields.items() if v != default}


def artifact_key(kind: str, identity: Dict) -> str:
    """Content-addressed cache key of one ``kind`` artifact.

    ``identity`` is everything that determines the artifact; the kind
    tag, schema and code version are added here.
    """
    schema = ARTIFACTS[kind][0]
    return stable_hash(
        {**kind_tag(kind), "schema": schema, "code_version": __version__, **identity}
    )


def result_to_payload(result: RunResult) -> Dict:
    return _wrap("result", result)


def result_from_payload(payload: Dict) -> RunResult:
    return _open("result", payload)


def scaleout_to_payload(result) -> Dict:
    return _wrap("scaleout", result)


def scaleout_from_payload(payload: Dict):
    return _open("scaleout", payload)


def serving_to_payload(result) -> Dict:
    return _wrap("serving", result)


def serving_from_payload(payload: Dict):
    return _open("serving", payload)


def cache_sweep_to_payload(sweep) -> Dict:
    return _wrap("cache_ablation", sweep)


def cache_sweep_from_payload(payload: Dict):
    return _open("cache_ablation", payload)


# kind -> its named codec pair, the one the cached-artifact path calls
CODECS = {
    "result": (result_to_payload, result_from_payload),
    "scaleout": (scaleout_to_payload, scaleout_from_payload),
    "serving": (serving_to_payload, serving_from_payload),
    "cache_ablation": (cache_sweep_to_payload, cache_sweep_from_payload),
}
