"""Length-prefixed JSON wire protocol + GridCell codec for remote dispatch.

Everything that crosses the coordinator/worker TCP connection is one
*frame*: a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON. JSON (not pickle) keeps the protocol inspectable, safe to
expose on a port, and version-checkable — a worker from a different code
version refuses work instead of producing subtly different payloads.

Cells are encoded with a tagged dataclass codec: every config dataclass
a :class:`~repro.platforms.runner.GridCell` can carry (SSD configs,
platform features, workload specs, cache/background-IO configs) is
reduced to ``{"__dc__": <registered name>, "fields": {...}}`` and
rebuilt by type on the far side. Reconstruction runs the dataclasses'
own ``__post_init__`` validation, so a corrupted frame fails loudly.
Since a cell's seed is fixed by the coordinator before dispatch and the
simulation depends only on (cell, seed), the decoded copy produces
bit-identical payloads to local execution.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from ..cacheutil import json_default

__all__ = [
    "MAX_FRAME_BYTES",
    "send_msg",
    "recv_msg",
    "FrameDecoder",
    "encode_frame",
    "encode_value",
    "decode_value",
    "encode_job",
    "decode_job",
    "WIRE_SCHEMA_VERSION",
]

WIRE_SCHEMA_VERSION = 1

# A chunk of cells is a few KB; a chunk of result payloads tops out in
# the low MBs. Anything beyond this is a corrupt or hostile frame.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_LEN = struct.Struct(">I")


# -- framing -----------------------------------------------------------------


def encode_frame(message: Dict) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    body = json.dumps(
        message, separators=(",", ":"), default=json_default
    ).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def send_msg(sock: socket.socket, message: Dict) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on EOF before the first byte."""
    chunks: List[bytes] = []
    got = 0
    while got < n:
        piece = sock.recv(min(n - got, 1 << 20))
        if not piece:
            if got == 0:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(piece)
        got += len(piece)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[Dict]:
    """Read one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame announced: {length} bytes")
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionError("connection closed between header and body")
    return json.loads(body.decode())


class FrameDecoder:
    """Incremental frame parser for the coordinator's non-blocking reads."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict]:
        """Absorb bytes; return every complete message they finish."""
        self._buffer.extend(data)
        messages: List[Dict] = []
        while True:
            if len(self._buffer) < _LEN.size:
                return messages
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise ConnectionError(
                    f"oversized frame announced: {length} bytes"
                )
            end = _LEN.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_LEN.size : end])
            del self._buffer[:end]
            messages.append(json.loads(body.decode()))


# -- tagged dataclass codec --------------------------------------------------


def _wire_dataclasses() -> Dict[str, Type]:
    """Every dataclass allowed on the wire, by registered name.

    Imported lazily: the codec lives below the config modules in the
    import graph, and the registry is tiny.
    """
    from ..cache.page import CacheConfig
    from ..platforms.background import BackgroundIoConfig
    from ..platforms.features import PlatformFeatures
    from ..ssd.config import (
        DieSamplerConfig,
        DramConfig,
        FirmwareConfig,
        FlashConfig,
        GpuDirectConfig,
        HostConfig,
        HwRouterConfig,
        PcieConfig,
        SSDConfig,
    )
    from ..workloads.specs import WorkloadSpec
    from ..platforms.runner import GridCell

    types = (
        GridCell,
        PlatformFeatures,
        WorkloadSpec,
        SSDConfig,
        FlashConfig,
        FirmwareConfig,
        DieSamplerConfig,
        HwRouterConfig,
        DramConfig,
        PcieConfig,
        HostConfig,
        GpuDirectConfig,
        BackgroundIoConfig,
        CacheConfig,
    )
    return {t.__name__: t for t in types}


def encode_value(value: Any) -> Any:
    """JSON-safe encoding: dataclasses tagged by name, tuples as lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _wire_dataclasses():
            raise TypeError(f"{name} is not registered for wire transfer")
        return {
            "__dc__": name,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    return value


def _tuplize(value: Any) -> Any:
    """Lists back to tuples, recursively (dataclass fields here never
    hold genuine lists — tuples keep the rebuilt configs hashable)."""
    if isinstance(value, list):
        return tuple(_tuplize(v) for v in value)
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`; runs dataclass validation."""
    if isinstance(value, dict) and "__dc__" in value:
        name = value["__dc__"]
        cls = _wire_dataclasses().get(name)
        if cls is None:
            raise ValueError(f"unknown wire dataclass {name!r}")
        fields = {
            key: _tuplize(decode_value(v))
            for key, v in value.get("fields", {}).items()
        }
        return cls(**fields)
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: decode_value(v) for k, v in value.items()}
    return value


# -- job tuples --------------------------------------------------------------


def encode_job(job: Sequence) -> Dict:
    """``(cell, seed, image_cache_root)`` -> wire dict."""
    cell, seed, image_cache_root = job
    return {
        "cell": encode_value(cell),
        "seed": seed,
        "image_cache_root": image_cache_root,
    }


def decode_job(data: Dict) -> Tuple:
    """Wire dict -> the ``(cell, seed, image_cache_root)`` worker tuple."""
    return (
        decode_value(data["cell"]),
        data["seed"],
        data.get("image_cache_root"),
    )
