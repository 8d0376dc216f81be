"""The discrete-event simulation kernel.

:class:`Simulator` owns the event agenda (a heap of ``(time, priority,
sequence, event)`` entries) and the clock.  All grid components — hosts,
network flows, daemons, MPI ranks, monitors — are simulation processes
scheduled through one Simulator instance, so a whole GrADS run is fully
deterministic given its RNG seeds.

The :meth:`Simulator.run` loop is the hottest code in the repository —
every transfer byte and Mflop of the emulated grid is accounted for
through it — so it keeps hoisted locals and batches all entries that
share a timestamp (URGENT event-processing bookkeeping included) between
``until`` checks.  Events put themselves on the agenda
(:class:`~repro.sim.events.Timeout` at construction,
:meth:`~repro.sim.events.Event.succeed` when triggered), so the kernel's
only per-event work is popping the entry and running its callbacks.
There is no "active process" register: a resumption is one callback
call with nothing saved or restored around it.
``sim.stats`` (:class:`~repro.sim.stats.KernelStats`) counts every event
processed so workloads can report events/sec.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import URGENT, Event, SimulationError, Timeout
from .process import Process
from .stats import KernelStats

__all__ = ["Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock."""

    __slots__ = ("_now", "_agenda", "_seq", "stats", "trace")

    def __init__(self) -> None:
        self._now = 0.0
        self._agenda: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        #: substrate performance counters, always on (see repro.sim.stats)
        self.stats = KernelStats()
        #: optional repro.trace.Tracer, attached via Tracer.bind(); None
        #: (the default) keeps every instrumentation site on its no-op
        #: fast path
        self.trace = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds, by project convention)."""
        return self._now

    # -- event creation ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new simulation process running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling internals ----------------------------------------------
    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event's callbacks to run now."""
        self._seq += 1
        heapq.heappush(self._agenda, (self._now, URGENT, self._seq, event))

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None,
            stop_event: Optional[Event] = None) -> Any:
        """Run until the agenda drains, ``until`` is reached, or
        ``stop_event`` triggers.

        Returns the value of ``stop_event`` if it stopped the run, else
        ``None``.  Failed events that nothing waited on surface their
        exception here rather than being silently dropped.
        """
        if stop_event is not None:
            if stop_event.sim is not self:
                raise SimulationError("stop_event belongs to another simulator")
            stop_event.add_callback(self._stop_callback)
        agenda = self._agenda
        pop = heapq.heappop
        stats = self.stats
        # Tracing state is hoisted: a run without a tracer (or with the
        # kernel category filtered out) pays one local-bool test per
        # event, nothing more.  Bind tracers before run(), not during.
        trace = self.trace
        trace_kernel = trace is not None and "kernel" in trace.active
        try:
            while agenda:
                head = agenda[0][0]
                if until is not None and head > until:
                    self._now = until
                    return None
                # Batch every entry sharing this timestamp — same-time
                # URGENT callbacks (event bookkeeping) and timeouts run
                # back-to-back without re-checking `until`.  Callbacks
                # can only append entries at >= the current time, so the
                # heap head never moves before `head` mid-batch.
                while agenda and agenda[0][0] == head:
                    when, _prio, _seq, event = pop(agenda)
                    if when > self._now:
                        self._now = when
                    stats.events_processed += 1
                    if trace_kernel:
                        trace.kernel_event(when, event)
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    # Every agenda entry is triggered, so ``_ok`` is set.
                    if not event._ok and not event.defused:
                        if isinstance(event, Process):
                            raise event._value
        except StopSimulation:
            assert stop_event is not None
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        finally:
            # Detach on every exit path: a lingering _stop_callback would
            # let the event raise StopSimulation into a later run() that
            # passed no stop_event (and trip its `assert stop_event`).
            if stop_event is not None and stop_event.callbacks is not None:
                try:
                    stop_event.callbacks.remove(self._stop_callback)
                except ValueError:
                    pass
        if until is not None and until > self._now:
            self._now = until
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()

    # -- conveniences used across the code base -----------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.add_callback(lambda _e: fn())
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` after ``delay`` simulated time units."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _e: fn())
        return ev
