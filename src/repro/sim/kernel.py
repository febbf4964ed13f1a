"""Discrete-event simulation kernel.

A minimal process-based discrete-event simulator in the style of SimPy,
purpose-built for the BeaconGNN SSD model. Time is a float in *seconds*.

Processes are Python generators that ``yield`` :class:`Event` objects; the
kernel resumes a process when the event it waits on fires. Events carry a
value (delivered as the result of the ``yield``) or an exception (raised
inside the process at the ``yield``).

Scheduling internals (the hot path)
-----------------------------------
Delivery order is defined as sorted-by ``(time, creation order)`` —
exactly the order a single global sequence-numbered heap would produce.
Internally there are two lanes:

* **fast lane** — a FIFO ``deque`` for work due *now* (event triggers,
  ``_call_soon`` callbacks, process starts, and positive delays too
  small to move the float clock). These always fire at the current
  simulation time, so FIFO order *is* creation order and the ``heapq``
  sift cost is skipped entirely. This is the majority of all scheduling
  in real simulations.
* **heap** — future timeouts, ordered by ``(time, seq)``.

Whenever the heap's head lands on the current timestamp, the run loop
drains it before touching the fast lane: any heap entry at ``now`` was
pushed before time advanced here (the fast lane was empty then), so it
predates every fast entry. This keeps delivery order bit-identical to
the single-heap kernel (asserted by the golden-order and
payload-identity regression tests).

Besides the blocking :meth:`Simulator.run`, the kernel is resumable:
:meth:`Simulator.step` delivers a bounded number of entries and returns,
and :meth:`Simulator.run_until_idle` loops ``step`` to completion. A
simulation driven by any interleaving of ``step`` slices delivers in
exactly the order one ``run()`` call would — the batched grid executor
(:mod:`repro.orchestrate.batched`) relies on this to host many live
kernels in one process.

Two further allocation savers, both invisible to delivery order:

* fast-lane entries are the bare event (no entry tuple), and
  ``_call_soon`` entries carry the bare callable — no throwaway
  ``Event`` per callback;
* delivered ``Timeout``/``Event``/``Process`` objects are recycled
  through small per-simulator pools when (and only when) the kernel
  holds the final reference, so steady-state event churn allocates
  nothing.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     yield sim.timeout(1.0)
...     log.append(sim.now)
>>> _ = sim.process(worker(sim))
>>> sim.run()
>>> log
[1.0]
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
]

# Event recycling leans on CPython reference counts to prove the kernel
# holds the last reference to a delivered event. On other runtimes the
# pools simply stay empty — correctness never depends on recycling.
_getrefcount = (
    sys.getrefcount if sys.implementation.name == "cpython" else None
)
# Expected refcount of a poolable event at the recycle check: the run()
# local + getrefcount's own argument. Calibrated by the kernel test
# suite; a miscalibration disables pooling, it cannot corrupt state.
_POOL_REFS = 2
_POOL_MAX = 128

# Single-name aliases: one global lookup on the hot path instead of a
# module attribute lookup per scheduled entry.
_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, bad yield, deadlock checks)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once via :meth:`succeed` or :meth:`fail`. All
    registered callbacks run at the simulation time of the trigger.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True once triggered successfully."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        # inlined Simulator._dispatch — this is the hottest kernel call.
        # The fast lane takes the bare event: no entry tuple, and no
        # sequence number either (fast entries are counted at delivery).
        self.sim._fast_append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception raised in waiting processes."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._exc = exc
        self.sim._fast_append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._processed:
            # Already delivered: run at current time via the queue to keep
            # deterministic ordering.
            self.sim._call_soon_with(fn, self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires after a fixed delay from its creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined (born triggered, no double stores):
        # fresh Timeouts dominate whenever waiters hold child references
        # and recycling can't engage, e.g. under AllOf/AnyOf fan-in.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        sim._schedule(self, delay)


def _start_process(proc: "Process") -> None:
    """Fast-lane entry that kicks a freshly created process."""
    proc._resume(None, None)


class Process(Event):
    """Wraps a generator; itself an event that fires when the generator ends.

    The value of the process-event is the generator's return value.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        sim._call_soon_with(_start_process, self)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # propagate into waiters of this process
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        """Register this process on the event it just yielded.

        The process object *itself* is the callback entry: ``run()``
        recognises it by type and resumes the generator inline (no
        Python frame per resume), while every other path goes through
        :meth:`__call__` below.
        """
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {type(target).__name__}, "
                    "expected an Event"
                )
            )
            return
        # inlined Event.add_callback
        if target._processed:
            self.sim._call_soon_with(self, target)
        else:
            target.callbacks.append(self)

    def _on_event(self, event: Event, _isinstance=isinstance, _Event=Event) -> None:
        # The per-resume hot path: _resume with the generator send inlined
        # (one Python call instead of two per delivered event) and name
        # lookups bound at definition time. run() inlines a copy of this
        # body for fast-lane deliveries — keep the two in sync.
        exc = event._exc
        if exc is not None:
            self._resume(None, exc)
            return
        try:
            target = self._gen.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            if _isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(err)
            return
        if _isinstance(target, _Event) and not target._processed:
            target.callbacks.append(self)
        else:
            self._wait_on(target)

    # A Process in a callbacks list must be callable for the generic
    # delivery paths (multi-callback events, deferred _call_soon_with).
    __call__ = _on_event


def _succeed_empty(all_of: "AllOf") -> None:
    """Fast-lane entry for an AllOf with no children."""
    all_of.succeed([])


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    Fails fast if any child fails. On the fail-fast path the combinator
    deregisters its callback from still-pending children so long-lived
    events don't accumulate dead callbacks.
    """

    __slots__ = ("_children", "_pending", "_cb")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        self._cb = cb = self._on_child
        if self._pending == 0:
            sim._call_soon_with(_succeed_empty, self)
            return
        for ev in self._children:
            # inlined Event.add_callback
            if ev._processed:
                sim._call_soon_with(cb, ev)
            else:
                ev.callbacks.append(cb)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            _detach_from_children(self._cb, self._children)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``.

    Once triggered, the losing children's callbacks are deregistered —
    a long-lived child event no longer pins the triggered AnyOf (and its
    value) through a dead closure.
    """

    __slots__ = ("_children", "_cbs")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        self._cbs: list = []
        for i, ev in enumerate(self._children):
            cb = lambda event, i=i: self._on_child(i, event)  # noqa: E731
            self._cbs.append(cb)
            # inlined Event.add_callback
            if ev._processed:
                sim._call_soon_with(cb, ev)
            else:
                ev.callbacks.append(cb)

    def _on_child(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed((index, event._value))
        for child, cb in zip(self._children, self._cbs):
            if not child._processed and child.callbacks:
                try:
                    child.callbacks.remove(cb)
                except ValueError:
                    pass
        self._cbs = []


def _detach_from_children(cb, children) -> None:
    """Remove ``cb`` from every not-yet-processed child's callback list.

    Removal preserves the relative order of the remaining callbacks, so
    delivery order of the survivors is unchanged; processed children are
    skipped (their callback list is live inside the run loop).
    """
    for ev in children:
        if not ev._processed and ev.callbacks:
            try:
                ev.callbacks.remove(cb)
            except ValueError:
                pass


class Simulator:
    """The event loop: a zero-delay FIFO fast lane + a time-ordered heap.

    Fast-lane entries are either a bare :class:`Event` (normal delivery —
    the dominant form, allocation-free) or an ``(event, fn)`` pair
    (``event`` ``None``: bare ``fn()`` call; otherwise ``fn(event)`` —
    the deferred-callback form). Heap entries are ``(time, seq, event,
    fn)`` tuples. Fast entries carry no sequence number because none is
    needed: a heap entry landing on the *current* timestamp was pushed
    before time advanced here (positive delays only land in the future;
    zero or precision-collapsed delays go straight to the fast lane), so
    every heap entry at ``now`` precedes every fast entry.
    """

    # Slots make the per-op field accesses (``_seq``, ``_fast``, pools)
    # descriptor loads instead of dict lookups; ``__dict__`` stays so
    # KernelProbe can still shadow methods with instance attributes.
    __slots__ = (
        "now",
        "_queue",
        "_fast",
        "_fast_append",
        "_seq",
        "_timeout_pool",
        "_event_pool",
        "_process_pool",
        "__dict__",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list = []  # (time, seq, event, fn) min-heap
        self._fast: deque = deque()  # event | (event, fn) at the current time
        self._fast_append = self._fast.append  # bound once: hottest call
        self._seq = 0
        self._timeout_pool: list = []
        self._event_pool: list = []
        self._process_pool: list = []

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        now = self.now
        at = now + delay
        if at == now:
            # zero delay — or a positive delay too small to move the float
            # clock; either way the event is due *now*, which is exactly
            # what the fast lane means
            self._fast_append(event)
        else:
            self._seq = seq = self._seq + 1
            _heappush(self._queue, (at, seq, event, None))

    def _dispatch(self, event: Event) -> None:
        """Queue a just-triggered event for callback delivery."""
        self._fast_append(event)

    def _call_soon(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        now = self.now
        at = now + delay
        if at == now:
            self._fast_append((None, fn))
        else:
            self._seq = seq = self._seq + 1
            _heappush(self._queue, (at, seq, None, fn))

    def _call_soon_with(self, fn: Callable[[Event], None], event: Event) -> None:
        """Zero-delay ``fn(event)`` without a throwaway Event or closure."""
        self._fast_append((event, fn))

    # -- public API ---------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event (a manual rendezvous point)."""
        pool = self._event_pool
        if pool:
            # fields were reset at recycle time; pooled events are ready
            return pool.pop()
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative timeout delay: {delay}")
            # pooled Timeouts keep _triggered True for their whole
            # lifetime; _processed was reset at recycle time
            ev = pool.pop()
            ev._value = value
            # inlined _schedule
            now = self.now
            at = now + delay
            if at == now:
                self._fast_append(ev)
            else:
                self._seq = seq = self._seq + 1
                _heappush(self._queue, (at, seq, ev, None))
            return ev
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator; returns its process-event."""
        pool = self._process_pool
        if pool:
            proc = pool.pop()
            proc._gen = gen
            proc.name = name or getattr(gen, "__name__", "process")
            self._call_soon_with(_start_process, proc)
            return proc
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def idle(self) -> bool:
        """True when both lanes are empty (nothing left to deliver)."""
        return not (self._fast or self._queue)

    def clear_pools(self) -> None:
        """Empty the recycling pools.

        Pooled events point back at this simulator, so a simulator with
        full pools is a reference cycle. Clearing them once a run is over
        lets reference counting free the whole run at once; the pools
        refill on their own if the simulator is driven again.
        """
        self._timeout_pool.clear()
        self._event_pool.clear()
        self._process_pool.clear()

    def run(self, until: Optional[float] = None) -> None:
        """Run until both lanes drain or simulated time reaches ``until``."""
        fast = self._fast
        queue = self._queue
        popleft = fast.popleft
        heappop = _heappop
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        process_pool = self._process_pool
        getref = _getrefcount
        pool_max = _POOL_MAX
        pool_refs = _POOL_REFS
        t_timeout = Timeout
        t_event = Event
        t_process = Process
        _len = len
        _isinstance = isinstance
        check = until is not None
        now = self.now
        # Fast-lane entries carry no sequence number; they are tallied
        # here at delivery and flushed into ``_seq`` on every exit so the
        # op count (``_seq`` delta) still covers both lanes.
        ops = 0
        try:
            while True:
                if fast:
                    if check and now > until:
                        # mirrors the single-heap kernel: pending work
                        # beyond the horizon parks the clock at ``until``
                        self.now = until
                        return
                    if queue and queue[0][0] == now:
                        # a heap entry landing on the current timestamp was
                        # pushed before time advanced here, so it precedes
                        # every fast entry (see class docstring)
                        _at, _seq, event, fn = heappop(queue)
                        if fn is not None:
                            if event is None:
                                fn()
                            else:
                                fn(event)
                            continue
                    else:
                        ops += 1
                        event = popleft()
                        if type(event) is tuple:
                            # pair form: always an fn entry. Rebinding
                            # frees the pair before the call, keeping the
                            # recycle refcount check below calibrated.
                            event, fn = event
                            if event is None:
                                fn()
                            else:
                                fn(event)
                            continue
                elif queue:
                    if check and queue[0][0] > until:
                        self.now = until
                        return
                    at, _seq, event, fn = heappop(queue)
                    if at < now:
                        raise SimulationError("time went backwards")
                    self.now = now = at
                    if fn is not None:
                        if event is None:
                            fn()
                        else:
                            fn(event)
                        continue
                else:
                    break
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    # _processed is already set, so a callback registered
                    # during delivery routes through _call_soon_with — the
                    # list never grows under this loop and popping first is
                    # safe. The single-callback case (the vast majority:
                    # one process waiting on one event) skips iterator
                    # setup entirely.
                    if _len(callbacks) == 1:
                        cb = callbacks.pop()
                        if type(cb) is t_process:
                            # inlined copy of Process._on_event: resuming
                            # the waiting generator without pushing a
                            # Python frame is the single biggest per-op
                            # saving in the loop. Keep in sync with
                            # Process._on_event.
                            exc = event._exc
                            if exc is not None:
                                cb._resume(None, exc)
                            else:
                                try:
                                    target = cb._gen.send(event._value)
                                except StopIteration as stop:
                                    # drop the stale target binding from the
                                    # previous resume — it is this very
                                    # event, and a live local would block
                                    # the recycle check below
                                    target = None
                                    cb.succeed(stop.value)
                                except BaseException as err:
                                    if _isinstance(
                                        err, (KeyboardInterrupt, SystemExit)
                                    ):
                                        raise
                                    target = None
                                    cb.fail(err)
                                else:
                                    if (
                                        _isinstance(target, t_event)
                                        and not target._processed
                                    ):
                                        target.callbacks.append(cb)
                                    else:
                                        cb._wait_on(target)
                        else:
                            cb(event)
                    else:
                        for cb in callbacks:
                            cb(event)
                        callbacks.clear()
                    # Recycle the event if the kernel provably holds the
                    # last reference (CPython only; see _POOL_REFS). All
                    # field resets happen here, off the allocation path:
                    # pooled objects come out of the pool ready to use.
                    if getref is not None:
                        kind = type(event)
                        if kind is t_event:
                            if (
                                _len(event_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._value = None
                                event._exc = None
                                event._triggered = False
                                event._processed = False
                                event_pool.append(event)
                        elif kind is t_timeout:
                            if (
                                _len(timeout_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._value = None
                                event._processed = False
                                timeout_pool.append(event)
                        elif kind is t_process:
                            if (
                                _len(process_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._gen = None
                                event._value = None
                                event._exc = None
                                event._triggered = False
                                event._processed = False
                                process_pool.append(event)
                elif isinstance(event, Process) and event._exc is not None:
                    # A process died and nobody was waiting on it: surface
                    # the error instead of silently deadlocking dependents.
                    raise event._exc
        finally:
            self._seq += ops
        if check:
            self.now = max(self.now, until)

    def step(self, max_events: int = 1) -> int:
        """Deliver at most ``max_events`` queue entries, then return.

        The resumable form of :meth:`run`: driving a simulation through
        any sequence of ``step`` slices delivers in exactly the order a
        single ``run()`` call would (each slice picks up precisely where
        the previous one stopped, and per-entry handling below is an
        inlined copy of the ``run`` loop body — keep the two in sync).
        Returns the number of entries delivered; ``0`` means the
        simulation is idle. Fast-lane callback pairs and heap callback
        entries count toward the budget like ordinary event deliveries,
        so a slice always terminates.
        """
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1: {max_events}")
        fast = self._fast
        queue = self._queue
        popleft = fast.popleft
        heappop = _heappop
        timeout_pool = self._timeout_pool
        event_pool = self._event_pool
        process_pool = self._process_pool
        getref = _getrefcount
        pool_max = _POOL_MAX
        pool_refs = _POOL_REFS
        t_timeout = Timeout
        t_event = Event
        t_process = Process
        _len = len
        _isinstance = isinstance
        now = self.now
        delivered = 0
        ops = 0
        try:
            while delivered < max_events:
                if fast:
                    if queue and queue[0][0] == now:
                        # heap entry at the current timestamp: predates
                        # every fast entry (see class docstring)
                        delivered += 1
                        _at, _seq, event, fn = heappop(queue)
                        if fn is not None:
                            if event is None:
                                fn()
                            else:
                                fn(event)
                            continue
                    else:
                        ops += 1
                        delivered += 1
                        event = popleft()
                        if type(event) is tuple:
                            event, fn = event
                            if event is None:
                                fn()
                            else:
                                fn(event)
                            continue
                elif queue:
                    delivered += 1
                    at, _seq, event, fn = heappop(queue)
                    if at < now:
                        raise SimulationError("time went backwards")
                    self.now = now = at
                    if fn is not None:
                        if event is None:
                            fn()
                        else:
                            fn(event)
                        continue
                else:
                    break
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    if _len(callbacks) == 1:
                        cb = callbacks.pop()
                        if type(cb) is t_process:
                            # inlined copy of Process._on_event (see run())
                            exc = event._exc
                            if exc is not None:
                                cb._resume(None, exc)
                            else:
                                try:
                                    target = cb._gen.send(event._value)
                                except StopIteration as stop:
                                    target = None
                                    cb.succeed(stop.value)
                                except BaseException as err:
                                    if _isinstance(
                                        err, (KeyboardInterrupt, SystemExit)
                                    ):
                                        raise
                                    target = None
                                    cb.fail(err)
                                else:
                                    if (
                                        _isinstance(target, t_event)
                                        and not target._processed
                                    ):
                                        target.callbacks.append(cb)
                                    else:
                                        cb._wait_on(target)
                        else:
                            cb(event)
                    else:
                        for cb in callbacks:
                            cb(event)
                        callbacks.clear()
                    if getref is not None:
                        kind = type(event)
                        if kind is t_event:
                            if (
                                _len(event_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._value = None
                                event._exc = None
                                event._triggered = False
                                event._processed = False
                                event_pool.append(event)
                        elif kind is t_timeout:
                            if (
                                _len(timeout_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._value = None
                                event._processed = False
                                timeout_pool.append(event)
                        elif kind is t_process:
                            if (
                                _len(process_pool) < pool_max
                                and getref(event) == pool_refs
                            ):
                                event._gen = None
                                event._value = None
                                event._exc = None
                                event._triggered = False
                                event._processed = False
                                process_pool.append(event)
                elif isinstance(event, Process) and event._exc is not None:
                    raise event._exc
        finally:
            self._seq += ops
        return delivered

    def run_until_idle(self, slice_events: int = 4096) -> int:
        """Loop :meth:`step` until idle; returns total entries delivered.

        Semantically equivalent to :meth:`run` with no horizon, in
        resumable slices of ``slice_events``.
        """
        total = 0
        while True:
            n = self.step(slice_events)
            total += n
            if n < slice_events:
                return total
