"""The ``repro worker`` daemon: pull chunks, simulate, stream results.

A worker is one long-lived process that dials the coordinator
(:class:`~repro.orchestrate.remote.RemoteExecutor`), registers with a
version handshake, and then serves chunks until the connection closes —
at which point it goes back to redialing, so one pool of daemons
survives any number of sweeps. Chunks execute through the exact same
:func:`~repro.orchestrate.batched.execute_batch` path local dispatch
uses; between kernel sweeps the worker streams heartbeat frames so the
coordinator can tell a slow chunk from a dead worker.

When a chunk message names the shared result cache, the worker checks
each cell's content-addressed key first and simulates only the misses —
that is what makes a re-dispatched chunk on a warm pool cost zero
simulations — and writes fresh payloads back so sibling workers (and
the coordinator) see them.

Test/chaos hooks (set in the worker's environment, never the
coordinator's): ``REPRO_WORKER_FAIL_AFTER=N`` hard-exits the process on
receiving its ``N``-th chunk, and ``REPRO_WORKER_HANG_S=S`` sleeps for
``S`` seconds (without heartbeats) before executing — the two failure
modes the coordinator's requeue machinery must survive.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from typing import Dict, List, Optional

from .. import __version__
from .envcfg import env_float, env_int
from .remote import parse_address
from .wire import WIRE_SCHEMA_VERSION, decode_job, recv_msg, send_msg

__all__ = ["run_worker", "DEFAULT_HEARTBEAT_S"]

# Heartbeat cadence on the wire. Kept well under any sane chunk timeout
# so a healthy worker can never be mistaken for a hung one.
DEFAULT_HEARTBEAT_S = 1.0

_HANDSHAKE_TIMEOUT_S = 30.0


def _announce(message: str) -> None:
    import sys

    print(f"[repro.worker pid={os.getpid()}] {message}", file=sys.stderr, flush=True)


def run_worker(
    coordinator: str,
    *,
    retry_s: float = 1.0,
    max_wait_s: Optional[float] = None,
    once: bool = False,
    image_cache_root: Optional[str] = None,
    quiet: bool = False,
) -> int:
    """Daemon loop: dial, serve, redial. Returns a process exit code.

    ``retry_s`` paces reconnection attempts; ``max_wait_s`` bounds how
    long the worker keeps dialing *without ever reaching* a coordinator
    (``None`` = forever — the daemon mode CI and fleets want). ``once``
    exits after serving one coordinator connection. A local
    ``image_cache_root`` overrides the one chunks carry, for workers
    whose filesystem layout differs from the coordinator's.
    """
    host, port = parse_address(coordinator)
    waiting_since = time.monotonic()
    if not quiet:
        _announce(f"dialing coordinator {host}:{port}")
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if (
                max_wait_s is not None
                and time.monotonic() - waiting_since > max_wait_s
            ):
                _announce(
                    f"no coordinator at {host}:{port} after "
                    f"{max_wait_s:.1f}s; giving up"
                )
                return 1
            time.sleep(retry_s)
            continue
        try:
            outcome = _serve_connection(
                sock, image_cache_root=image_cache_root, quiet=quiet
            )
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if outcome == "rejected":
            return 1
        if once:
            return 0
        waiting_since = time.monotonic()


def _serve_connection(
    sock: socket.socket,
    *,
    image_cache_root: Optional[str],
    quiet: bool,
) -> str:
    """Serve one coordinator connection; returns how it ended."""
    sock.settimeout(_HANDSHAKE_TIMEOUT_S)
    send_msg(
        sock,
        {
            "type": "hello",
            "version": __version__,
            "wire_schema": WIRE_SCHEMA_VERSION,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        },
    )
    try:
        welcome = recv_msg(sock)
    except (ConnectionError, OSError, socket.timeout):
        return "lost"
    if welcome is None:
        return "closed"
    if welcome.get("type") == "reject":
        _announce(f"coordinator rejected us: {welcome.get('reason')}")
        return "rejected"
    if welcome.get("type") != "welcome":
        return "closed"
    if not quiet:
        _announce(f"registered as worker {welcome.get('worker_id')}")

    # Chaos hooks for the failure-path tests (see module docstring).
    fail_after = env_int("REPRO_WORKER_FAIL_AFTER", 0, minimum=0)
    hang_s = env_float("REPRO_WORKER_HANG_S", 0.0, minimum=0.0)
    chunks_received = 0

    sock.settimeout(None)  # chunks arrive whenever the coordinator has them
    while True:
        try:
            message = recv_msg(sock)
        except (ConnectionError, OSError):
            return "lost"
        if message is None:
            return "closed"
        kind = message.get("type")
        if kind == "shutdown":
            return "closed"
        if kind != "chunk":
            continue
        chunks_received += 1
        if fail_after and chunks_received >= fail_after:
            _announce(f"chaos hook: hard exit on chunk {chunks_received}")
            os._exit(23)
        if hang_s > 0:
            time.sleep(hang_s)
        try:
            payloads, executed, cached = _execute_chunk_message(
                sock, message, image_cache_root
            )
        except (ConnectionError, OSError):
            return "lost"
        except Exception:
            send_msg(
                sock,
                {
                    "type": "error",
                    "chunk_id": message.get("chunk_id"),
                    "error": traceback.format_exc(limit=20),
                },
            )
            continue
        send_msg(
            sock,
            {
                "type": "result",
                "chunk_id": message.get("chunk_id"),
                "payloads": payloads,
                "executed": executed,
                "cached": cached,
            },
        )


def _execute_chunk_message(
    sock: socket.socket,
    message: Dict,
    image_cache_root: Optional[str],
) -> tuple:
    """Simulate one chunk message; returns (payloads, executed, cached)."""
    from .batched import execute_batch
    from .cache import ResultCache, lookup
    from .grid import store_cell

    jobs = [decode_job(j) for j in message.get("jobs", [])]
    if image_cache_root is not None:
        jobs = [(cell, seed, image_cache_root) for cell, seed, _root in jobs]

    payloads: List[Optional[Dict]] = [None] * len(jobs)
    cache = None
    keys = message.get("keys")
    cache_root = message.get("cache_root")
    if cache_root and isinstance(keys, list) and len(keys) == len(jobs):
        # Shared-store fast path: cells another worker already simulated
        # (this sweep or any earlier one) are a read, not a simulation.
        cache = ResultCache(cache_root)
        payloads = [lookup(cache, "result", key) for key in keys]
    to_run = [i for i, payload in enumerate(payloads) if payload is None]

    chunk_id = message.get("chunk_id")
    last_beat = [time.monotonic()]
    interval = env_float(
        "REPRO_WORKER_HEARTBEAT_S", DEFAULT_HEARTBEAT_S, minimum=0.0
    )

    def beat(progress: Dict) -> None:
        now = time.monotonic()
        if now - last_beat[0] >= interval:
            last_beat[0] = now
            send_msg(
                sock,
                {"type": "heartbeat", "chunk_id": chunk_id, **progress},
            )

    fresh = execute_batch([jobs[i] for i in to_run], heartbeat=beat)
    for i, payload in zip(to_run, fresh):
        payloads[i] = payload
        if cache is not None:
            cell, seed, _root = jobs[i]
            store_cell(cache, keys[i], cell, seed, payload)
    return payloads, len(to_run), len(jobs) - len(to_run)
