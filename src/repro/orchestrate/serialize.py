"""Versioned envelopes and content-addressed keys for cached artifacts.

Four kinds of artifact reach the result cache: a grid cell's
:class:`RunResult`, a scale-out array, a serving point and a cache
ablation. :data:`ARTIFACTS` is the one table that says how each is
wrapped, and :func:`artifact_key` is the one key builder.

A freshly computed artifact is JSON-encoded exactly once, by
:func:`encode`, into the sorted text of its envelope. That text is the
only thing that crosses the worker process -> parent boundary, it is
spliced as-is into the cache document, and the parent decodes it once
(:func:`decode`). What a warm-cache load sees is therefore bit-identical
to what a fresh simulation returned, and any accidentally
non-serializable instrument fails loudly at produce time, not at
cache-read time. The named dict codecs (``result_to_payload`` and
friends) are thin callers of the same pair for the exporters and tests.
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
    "artifact_key",
    "encode",
    "decode",
    "open_payload",
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


def encode(kind: str, value) -> str:
    """The sorted JSON text of ``value``'s ``kind`` envelope.

    The one encode of a fresh artifact. Sorted keys make the text
    canonical (``json.dumps(json.loads(text), sort_keys=True)`` gives it
    back unchanged) as long as every ``to_dict`` uses string keys, so it
    can be spliced into a cache document without a second pass.
    """
    schema, field, _cls = ARTIFACTS[kind]
    doc = {"schema": schema, **kind_tag(kind), field: value.to_dict()}
    return json.dumps(doc, sort_keys=True, default=json_default)


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


def open_payload(kind: str, payload: Dict):
    """The ``kind`` artifact of a decoded envelope; ValueError if malformed."""
    module, name = ARTIFACTS[kind][2].split(":")
    cls = getattr(importlib.import_module(module), name)
    return cls.from_dict(envelope_body(kind, payload))


def decode(kind: str, text: str):
    """Inverse of :func:`encode`: the artifact of one envelope text."""
    return open_payload(kind, json.loads(text))


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
    return json.loads(encode("result", result))


def result_from_payload(payload: Dict) -> RunResult:
    return open_payload("result", payload)


def scaleout_to_payload(result) -> Dict:
    return json.loads(encode("scaleout", result))


def scaleout_from_payload(payload: Dict):
    return open_payload("scaleout", payload)


def serving_to_payload(result) -> Dict:
    return json.loads(encode("serving", result))


def serving_from_payload(payload: Dict):
    return open_payload("serving", payload)


def cache_sweep_to_payload(sweep) -> Dict:
    return json.loads(encode("cache_ablation", sweep))


def cache_sweep_from_payload(payload: Dict):
    return open_payload("cache_ablation", payload)
