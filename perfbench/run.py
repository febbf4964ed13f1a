"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compare_ogbn --seed 0 --seconds 10 --trace 0

The run sets the workload up, then issues studies back to back for
``--seconds`` seconds (at least two), each timed from outside the
program and checked. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same untraced loop, then one traced study, and
reports the per-layer metrics with a per-package ledger. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import (
    IMPORT_YARDSTICK,
    REFERENCE_LOOP_S,
    calibrate,
    import_seconds,
    interpreter_seconds,
    timed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.timeouts": "count",
    "sim.processes": "count",
    "sim.recycle_ratio": "ratio",
    "directgraph.self_s": "s",
    "directgraph.decode_section_calls": "count",
    "directgraph.unpack_bytes_calls": "count",
    "directgraph.build_s": "s",
    "directgraph.imagecache_s": "s",
    "gnn.build_graph_s": "s",
    "isc.self_s": "s",
    "isc.decode_for_calls": "count",
    "ssd.self_s": "s",
    "ssd.flash_page_reads": "count",
    "ssd.channel_bytes": "B",
    "platforms.self_s": "s",
    "platforms.runs": "count",
    "platforms.construct_s": "s",
    "platforms.finalize_s": "s",
    "cache.self_s": "s",
    "cache.page_hits": "count",
    "cache.page_misses": "count",
    "cache.hit_ratio": "ratio",
    "orchestrate.self_s": "s",
    "orchestrate.key_s": "s",
    "orchestrate.serialize_s": "s",
    "orchestrate.deserialize_s": "s",
    "orchestrate.cache_put_s": "s",
    "orchestrate.cache_get_s": "s",
    "orchestrate.cache_bytes": "B",
    "orchestrate.cache_hit_ratio": "ratio",
    "serving.self_s": "s",
    "serving.cells": "count",
    "serving.memo_hit_ratio": "ratio",
    "serving.shed_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

MIN_STUDIES = 2

# The traced study's unattributed remainder must lie in [0, this share).
UNATTRIBUTED_MAX = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    parser.add_argument(
        "--record",
        action="store_true",
        help="write this run's digests to perfbench/digests.json (default seed only)",
    )
    return parser.parse_args(argv)


def fingerprint() -> dict:
    import numpy
    from repro.orchestrate import available_cpus

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "available_cpus": available_cpus(),
        "cpu_model": cpu,
        "calibration_s": calibrate(),
        "import_yardstick_s": interpreter_seconds(IMPORT_YARDSTICK),
        "reference_calibration_s": REFERENCE_LOOP_S,
    }


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS count at the current RSS; False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    """Peak resident MB since the last reset, or since process start."""
    if since_reset:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_study(workload, checker, tracer=None):
    """Issue one study and check it; return its timing and the study."""
    cache_dir = workload.begin()
    gc.collect()  # every study starts from the same collector state
    with timed() as timing:
        if tracer is None:
            outcome = workload.call(cache_dir)
        else:
            with tracer:
                outcome = workload.call(cache_dir)
    study = workload.finish(cache_dir, outcome)
    checker.check(study)
    return timing, study


def print_table(title, rows):
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.record and args.seed != wl.DEFAULT_SEED:
        print("perfbench: --record needs the default seed", file=sys.stderr)
        return 2

    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        scale = wl.SCALES[args.scale]
        workload = wl.make_workload(args.workload, scale, args.seed, work)
        # set-up = a fresh interpreter importing the program + preparation
        import_raw, import_s = import_seconds(
            "import sys; sys.path[:0] = sys.argv[1:]; import workloads",
            [str(ROOT / "src"), str(HERE)],
            scale.setup_repeats,
        )
        with timed() as prepare:
            prepare_raw = workload.setup()
        setup_s = import_s + prepare.at_reference(prepare_raw)
        print(
            f"workload {args.workload} scale {args.scale} seed {args.seed}: set-up "
            f"{import_raw + prepare_raw:.3f} s (import {import_raw:.3f} s), "
            f"{setup_s:.3f} s at reference speed (import {import_s:.3f} s)"
        )
        use_recorded = args.seed == wl.DEFAULT_SEED and not args.record
        checker = wl.Checker(wl.load_recorded(args.scale, args.workload) if use_recorded else None)

        # peak_rss_mb covers the studies only: set-up's garbage is
        # collected and the peak restarts at the resident set they begin from.
        gc.collect()
        since_reset = reset_peak_rss()
        if not since_reset:
            print("peak RSS cannot be reset here; peak_rss_mb includes set-up")
        raw, walls = [], []
        loop_start = time.perf_counter()
        while len(walls) < MIN_STUDIES or time.perf_counter() - loop_start < args.seconds:
            timing, _ = run_study(workload, checker)
            raw.append(timing.seconds)
            walls.append(timing.at_reference())
            print(
                f"study {len(walls)}: {timing.seconds:.4f} s, calibration loop "
                f"{timing.loop_s:.5f} s, {walls[-1]:.4f} s at reference speed"
            )
        wall_s = statistics.median(walls)
        half = len(walls) // 2
        early, late = statistics.median(walls[:half]), statistics.median(walls[-half:])
        print(
            f"studies: {len(walls)}; raw best {min(raw):.4f} s, median {statistics.median(raw):.4f} s; "
            f"at reference speed median {wall_s:.4f} s; "
            f"drift: early {early:.4f} s, late {late:.4f} s ({late / early - 1:+.1%})"
        )

        if args.trace:
            metrics = traced_metrics(workload, checker, wall_s)
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": wall_s,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(since_reset),
            }
            units = END_TO_END
        if args.record:
            wl.record(args.scale, args.workload, checker.reference)
            print(f"recorded {len(checker.reference)} digests")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in checker.messages:
        print(f"FAILED {message}")
    print(f"calibration loop at end: {calibrate():.6f} s")
    print_table("metrics", [(name, metrics[name], unit) for name, unit in units.items()])
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


def traced_metrics(workload, checker, wall_s) -> dict:
    """Run one traced study and gather every per-layer metric."""
    from ledger import Tracer

    tracer = Tracer()
    timing, study = run_study(workload, checker, tracer)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(workload.setup_layers)
    ledger = tracer.ledger()
    metrics.update(tracer.layer_metrics(ledger))
    metrics.update(study.counts)
    metrics["sim.events_per_s"] = metrics["sim.events"] / wall_s
    metrics["trace.overhead_s"] = timing.at_reference(tracer.wall) - wall_s

    rows = sorted(ledger.items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", metrics["trace.unattributed_s"]))
    print_table(
        f"ledger: self seconds by repro package, traced study {tracer.wall:.4f} s",
        [(f"repro.{pkg}" if not pkg.startswith("(") else pkg, s, f"s {s / tracer.wall:6.1%}") for pkg, s in rows],
    )
    unattributed = metrics["trace.unattributed_s"]
    print(
        f"ledger closes: {sum(ledger.values()):.4f} s attributed + "
        f"{unattributed:.4f} s unattributed = {tracer.wall:.4f} s traced; "
        f"profiler saw {tracer.profiled_seconds():.4f} s"
    )
    # The ledger's closure is one more checked operation of the traced run.
    closes = 0 <= unattributed < UNATTRIBUTED_MAX * tracer.wall
    checker.check_one(
        "ledger",
        None if closes else f"unattributed time is outside [0, {UNATTRIBUTED_MAX:.0%}) of the traced study",
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
