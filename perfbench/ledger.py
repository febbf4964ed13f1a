"""The traced study: a per-package ledger of host time plus layer counters.

One study runs under ``cProfile`` with a ``repro.perf.KernelProbe`` on
every simulator it creates and a hook on ``PlatformRun.finalize`` that
reads each run's meters. Nothing inside the program changes: the probes
and hooks are attached from here and removed when the study ends.

The ledger charges each profiled function's self time to its
``repro.<package>``. Time in builtins and the standard library goes to
the nearest calling ``repro`` package, split over callers by the
profiler's caller edges. What reaches no ``repro`` frame (this harness
and the profiler itself) is ``trace.unattributed_s``, so the package
rows plus that remainder add up to the traced wall time.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Tuple

import repro
from repro.orchestrate import cache as _cache
from repro.orchestrate import grid as _grid
from repro.orchestrate import serialize as _serialize
from repro.directgraph import address as _address
from repro.directgraph import reader as _reader
from repro.isc import sampler as _sampler
from repro.perf import KernelProbe
from repro.platforms import runner as _runner
from workloads import patched

REPRO_DIR = str(Path(repro.__file__).resolve().parent) + "/"

# Named public functions whose call counts / inclusive times are layer
# metrics, keyed by the code object cProfile reports them under.
CALLS = {
    "directgraph.decode_section_calls": [_reader.decode_section],
    "directgraph.unpack_bytes_calls": [_address.AddressCodec.unpack_bytes],
    "isc.decode_for_calls": [_sampler.DieSampler.decode_for],
}
INCLUSIVE = {
    "platforms.construct_s": [_runner.PlatformRun.__init__],
    "platforms.finalize_s": [_runner.PlatformRun.finalize],
    "orchestrate.key_s": [_grid.cell_cache_key],
    "orchestrate.serialize_s": [_serialize.result_to_payload, _serialize.serving_to_payload],
    "orchestrate.deserialize_s": [
        _serialize.result_from_payload,
        _serialize.serving_from_payload,
    ],
    "orchestrate.cache_put_s": [_cache.ResultCache.put],
    "orchestrate.cache_get_s": [_cache.ResultCache.get],
}
SELF_TIME_LAYERS = ("sim", "directgraph", "isc", "ssd", "platforms", "cache", "orchestrate", "serving")

Func = Tuple[str, int, str]


def _key(fn) -> Func:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def package_of(func: Func) -> str:
    """``repro`` package (or top-level module) that defines ``func``; "" if none."""
    filename = func[0]
    if not filename.startswith(REPRO_DIR):
        return ""
    head = filename[len(REPRO_DIR) :].split("/", 1)[0]
    return "repro" if head == "__init__.py" else head.removesuffix(".py")


def _callers(stats, func: Func) -> Dict[Func, tuple]:
    """Caller edges of ``func`` without its self-recursion edge."""
    callers = stats[func][4] if func in stats else {}
    return {caller: edge for caller, edge in callers.items() if caller != func}


class Tracer:
    """Context manager around one traced study."""

    def __init__(self) -> None:
        self.probes: List[KernelProbe] = []
        self.runs: Dict[int, Dict[str, float]] = {}
        self.profiler = cProfile.Profile()
        self.wall = 0.0

    def __enter__(self) -> "Tracer":
        probes, runs = self.probes, self.runs

        def probed(simulator):
            def make(*args, **kwargs):
                sim = simulator(*args, **kwargs)
                probes.append(KernelProbe(sim).attach())
                return sim

            return make

        def metered(finalize):
            def hook(run):
                result = finalize(run)
                meters = result.meters
                runs[id(result)] = {
                    "ssd.flash_page_reads": meters.get("flash_reads"),
                    "ssd.channel_bytes": run._prep.device.flash.channel_bytes,
                    "cache.page_hits": meters.get("page_cache_hits"),
                    "cache.page_misses": meters.get("page_cache_misses"),
                }
                return result

            return hook

        self._patches = ExitStack()
        self._patches.enter_context(patched(_runner, "Simulator", probed))
        self._patches.enter_context(patched(_runner.PlatformRun, "finalize", metered))
        self._start = time.perf_counter()
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()
        self.wall = time.perf_counter() - self._start
        self._patches.close()
        for probe in self.probes:
            probe.detach()
        self.stats = pstats.Stats(self.profiler).stats

    # -- results ------------------------------------------------------------

    def ledger(self) -> Dict[str, float]:
        """Self seconds per ``repro`` package, builtins charged to callers."""
        stats = self.stats
        shares_memo: Dict[Func, Dict[str, float]] = {}

        def shares(func: Func) -> Dict[str, float]:
            """How one second spent under ``func`` splits over packages."""
            package = package_of(func)
            if package:
                return {package: 1.0}
            if func in shares_memo:
                return shares_memo[func]
            shares_memo[func] = {}  # cycle guard: a cycle charges nothing
            callers = _callers(stats, func)
            total = sum(edge[3] for edge in callers.values())
            out: Dict[str, float] = {}
            if total > 0:
                for caller, edge in callers.items():
                    for pkg, share in shares(caller).items():
                        out[pkg] = out.get(pkg, 0.0) + share * edge[3] / total
            shares_memo[func] = out
            return out

        ledger: Dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _edges) in stats.items():
            package = package_of(func)
            if package:
                ledger[package] = ledger.get(package, 0.0) + tt
                continue
            # split a non-repro function's own time by its caller edges
            callers = _callers(stats, func)
            edge_total = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                weight = tt * edge[2] / edge_total if edge_total > 0 else 0.0
                for pkg, share in shares(caller).items():
                    ledger[pkg] = ledger.get(pkg, 0.0) + weight * share
        return ledger

    def profiled_seconds(self) -> float:
        """Total self time the profiler recorded, every function included."""
        return sum(row[2] for row in self.stats.values())

    def layer_metrics(self, ledger: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics this traced study measured, given its ledger."""
        stats = self.stats
        metrics: Dict[str, float] = {
            f"{layer}.self_s": ledger.get(layer, 0.0) for layer in SELF_TIME_LAYERS
        }
        for name, fns in CALLS.items():
            metrics[name] = sum(stats.get(_key(fn), (0, 0))[1] for fn in fns)
        for name, fns in INCLUSIVE.items():
            metrics[name] = sum(stats.get(_key(fn), (0, 0, 0, 0.0))[3] for fn in fns)

        counters = [probe.counters for probe in self.probes]
        scheduled = sum(c.timeouts + c.processes for c in counters)
        recycled = sum(c.timeouts_recycled + c.processes_recycled for c in counters)
        metrics.update(
            {
                "sim.events": sum(c.ops for c in counters),
                "sim.timeouts": sum(c.timeouts for c in counters),
                "sim.processes": sum(c.processes for c in counters),
                "sim.recycle_ratio": recycled / scheduled if scheduled else 0.0,
                "platforms.runs": len(self.runs),
            }
        )
        for name in ("ssd.flash_page_reads", "ssd.channel_bytes", "cache.page_hits", "cache.page_misses"):
            metrics[name] = sum(run[name] for run in self.runs.values())
        looked_up = metrics["cache.page_hits"] + metrics["cache.page_misses"]
        metrics["cache.hit_ratio"] = metrics["cache.page_hits"] / looked_up if looked_up else 0.0
        metrics["trace.unattributed_s"] = self.wall - sum(ledger.values())
        return metrics
