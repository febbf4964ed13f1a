"""Timings that stay comparable on a shared, noisy host.

On a host shared with other tenants the same code can run at very
different speeds from one second to the next and from one CPU to the
other, and the average speed drifts over tens of minutes (README.md,
*Steadiness*). To keep the benchmark's timings comparable, every timed
block is bracketed by calibration loops, and its time is also reported
at the *reference speed*: the raw seconds scaled by ``REFERENCE_LOOP_S``
over the calibration loop's seconds around the block. A host slowdown
that stretches both cancels out.

A slow spell stretches a fresh interpreter's start and imports less
than the calibration loop (about 2x against 2.8x on the reference
host), so the time to import the program is scaled by a yardstick of
the same kind instead: a fresh interpreter importing numpy, run just
before and just after.

The calibration loop is fixed pure-Python work that mixes what the
program does most — dictionary updates, small-object allocation and
JSON encoding and decoding — and uses nothing from ``repro``, so a
change to the program never changes it.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Seconds the calibration loop takes on the reference host (a 2-vCPU
# Intel Xeon KVM guest, Python 3.11.7) at its fastest. Reference-speed
# times read as that host's seconds when it is not slowed down.
REFERENCE_LOOP_S = 0.007

# The import yardstick, and the seconds it is scaled to. The value only
# sets the scale. It estimates the yardstick's time on the reference host
# when not slowed down, made in a slow spell: the program's quiet import
# time (0.26 s) over its ratio to the yardstick there (2.27). Inside a
# run that ratio reads 2.6-2.9, so a scaled import reads about 0.3 s.
IMPORT_YARDSTICK = "import numpy"
REFERENCE_IMPORT_S = 0.115

_DOC = {
    "rows": [
        {"id": i, "name": f"n{i}", "vals": [i * 0.5, i * 1.5, i], "tags": ["a", "b"]}
        for i in range(400)
    ]
}


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b


def calibration_loop() -> float:
    """Seconds of one run of the fixed calibration work.

    The collector is off meanwhile: the loop makes no cycles, and a
    collection it triggered would traverse the program's heap and time
    that instead of the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(30_000):
            table[i & 1023] = table.get(i & 1023, 0) + i * i
        cells = [_Cell(i, str(i)) for i in range(20_000)]
        sum(cell.a for cell in cells)
        json.loads(json.dumps(_DOC))
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate(repeats: int = 5) -> float:
    """Median seconds of the calibration loop: a host-speed yardstick."""
    return statistics.median(calibration_loop() for _ in range(repeats))


@dataclass
class Timing:
    """Raw seconds of a timed block and the calibration loop around it."""

    seconds: float = 0.0
    loop_s: float = 0.0

    def at_reference(self, seconds: float | None = None) -> float:
        """``seconds`` (default: the block's) scaled to the reference speed."""
        raw = self.seconds if seconds is None else seconds
        return raw * REFERENCE_LOOP_S / self.loop_s


@contextmanager
def timed():
    """Time the body, bracketed by calibration loops."""
    timing = Timing()
    before = calibration_loop() + calibration_loop()
    start = time.perf_counter()
    yield timing
    timing.seconds = time.perf_counter() - start
    after = calibration_loop() + calibration_loop()
    timing.loop_s = (before + after) / 4


def interpreter_seconds(code: str, *args: str) -> float:
    """Seconds for a fresh interpreter to run ``code`` with ``args`` and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], check=True)
    return time.perf_counter() - start


def import_seconds(code: str, args, repeats: int):
    """Raw and reference-speed median seconds of ``repeats`` fresh runs of ``code``.

    Each run is scaled by the mean of the import yardstick just before
    and just after it.
    """
    yardsticks = [interpreter_seconds(IMPORT_YARDSTICK)]
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(interpreter_seconds(code, *args))
        yardsticks.append(interpreter_seconds(IMPORT_YARDSTICK))
        scaled.append(raw[-1] * REFERENCE_IMPORT_S * 2 / (yardsticks[-2] + yardsticks[-1]))
    return statistics.median(raw), statistics.median(scaled)
