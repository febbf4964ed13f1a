"""Timing model of the flash backend: dies, planes, channels, page reads.

A die serves :class:`FlashJob` page reads. The model captures three
micro-architectural choices of the paper:

* **plane parallelism** (Figure 10: two planes per die) — with
  ``exploit_planes`` enabled, up to ``planes_per_die`` senses proceed
  concurrently; the sampler and the output path are shared by the planes
  (as in the paper's die diagram), so post-read work serializes;
* **register pipelining** — with ``pipelined_registers`` the cache/data
  register split lets the next sense overlap the previous result's
  channel transfer; by default a die stalls until its result drains
  (the Figure 6/7a behaviour);
* **channel serialization** — all results of a channel's dies share one
  bus; transfers queue FIFO (``BandwidthPipe``), which is the page-
  granularity bottleneck BeaconGNN's die-level sampling removes.

Job timestamps land in ``job.record`` (a :class:`StageRecord`), feeding
the Figure 17 lifetime breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..sim import BandwidthPipe, Event, Resource, Simulator
from ..sim.stats import BusyTracker, StageRecord
from .config import FlashConfig

__all__ = ["DieExecution", "FlashJob", "FlashDieModel", "FlashBackend"]


@dataclass(slots=True)
class DieExecution:
    """What happens on-die after the raw page read."""

    extra_time_s: float  # on-die sampler time (0 for plain reads)
    payload_bytes: int  # bytes to move over the channel
    result: Any = None  # opaque payload for the completion handler


# The executor inspects the job (and the page it maps to) at read-complete
# time and decides on-die work + payload.
Executor = Callable[["FlashJob"], DieExecution]


@dataclass(slots=True)
class FlashJob:
    """One page read (+ optional on-die sampling) on a specific die."""

    page_index: int
    record: StageRecord
    payload: Any = None  # the command driving this read, if any
    done: Optional[Event] = None
    execution: Optional[DieExecution] = None


class FlashDieModel:
    """One flash die: plane-parallel senses, shared sampler/output path."""

    def __init__(
        self,
        sim: Simulator,
        config: FlashConfig,
        channel_pipe: BandwidthPipe,
        executor: Executor,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.config = config
        self.channel_pipe = channel_pipe
        self.executor = executor
        self.name = name
        senses = config.planes_per_die if config.exploit_planes else 1
        self._sense = Resource(sim, capacity=senses, name=f"{name}.sense")
        self._engine = Resource(sim, capacity=1, name=f"{name}.engine")
        self._register = Resource(sim, capacity=1, name=f"{name}.register")
        self.jobs_served = 0

    @property
    def tracker(self) -> BusyTracker:
        """Die-busy intervals (any plane sensing or the engine working)."""
        return self._sense.tracker

    @property
    def queue_length(self) -> int:
        return self._sense.queue_length

    def submit(self, job: FlashJob) -> Event:
        """Queue a job; returns the event fired at payload arrival."""
        if job.done is None:
            job.done = self.sim.event()
        job.record.issued = job.record.issued or self.sim.now
        self.sim.process(self._serve(job), name=f"die:{self.name}")
        return job.done

    def _serve(self, job: FlashJob):
        sim = self.sim
        yield self._sense.acquire()
        job.record.flash_start = sim.now
        yield sim.timeout(self.config.read_latency_s)
        if self.config.pipelined_registers or self.config.exploit_planes:
            # the plane frees for the next sense; sampler/output shared
            self._sense.release()
            yield self._engine.acquire()
            release_engine = True
        else:
            # single-register die: hold the whole die until drained
            release_engine = False
        execution = self.executor(job)
        job.execution = execution
        if execution.extra_time_s > 0:
            yield sim.timeout(execution.extra_time_s)
        job.record.flash_end = sim.now
        self.jobs_served += 1
        if self.config.pipelined_registers:
            # data register holds the result until the bus takes it; the
            # engine may already serve the next job
            yield self._register.acquire()
            transfer = self.channel_pipe.transfer(execution.payload_bytes)
            if release_engine:
                self._engine.release()
            self.sim.process(self._finish_pipelined(job, transfer))
        else:
            transfer = self.channel_pipe.transfer(execution.payload_bytes)
            yield transfer
            job.record.transfer_end = sim.now
            if release_engine:
                self._engine.release()
            else:
                self._sense.release()
            _complete(job)

    def _finish_pipelined(self, job: FlashJob, transfer: Event):
        yield transfer
        job.record.transfer_end = self.sim.now
        self._register.release()
        _complete(job)


def _complete(job: FlashJob) -> None:
    """Fire the job's done event with the job as its value.

    The job lets go of the event first: an event whose value points back
    at its job would otherwise keep every finished read alive as cyclic
    garbage until a full collection.
    """
    done, job.done = job.done, None
    done.succeed(job)


class FlashBackend:
    """All channels and dies, with page-index -> die routing."""

    def __init__(
        self, sim: Simulator, config: FlashConfig, executor: Executor
    ) -> None:
        self.sim = sim
        self.config = config
        self.channels: List[BandwidthPipe] = []
        self.dies: List[List[FlashDieModel]] = []
        for c in range(config.num_channels):
            pipe = BandwidthPipe(
                sim,
                bytes_per_sec=config.channel_bandwidth_bps,
                per_transfer_overhead=config.channel_overhead_s,
                name=f"channel{c}",
            )
            self.channels.append(pipe)
            self.dies.append(
                [
                    FlashDieModel(
                        sim, config, pipe, executor, name=f"ch{c}.die{d}"
                    )
                    for d in range(config.dies_per_channel)
                ]
            )

    def die_for_page(self, page_index: int) -> FlashDieModel:
        channel, die = self.config.locate(page_index)
        return self.dies[channel][die]

    def submit(self, job: FlashJob) -> Event:
        return self.die_for_page(job.page_index).submit(job)

    # -- instrumentation ------------------------------------------------------

    def die_trackers(self) -> List[BusyTracker]:
        return [die.tracker for row in self.dies for die in row]

    def channel_trackers(self) -> List[BusyTracker]:
        return [pipe.tracker for pipe in self.channels]

    def close_trackers(self) -> None:
        now = self.sim.now
        for row in self.dies:
            for die in row:
                die.tracker.close(now)

    @property
    def total_reads(self) -> int:
        return sum(die.jobs_served for row in self.dies for die in row)

    @property
    def channel_bytes(self) -> int:
        return sum(pipe.bytes_moved for pipe in self.channels)

    def detach_executor(self) -> None:
        """Drop every die's executor once no more reads will be served.

        The executor is usually a bound method of the engine that owns this
        backend; dropping it breaks that cycle so a finished run is freed
        by reference counting.
        """
        for row in self.dies:
            for die in row:
                die.executor = None
