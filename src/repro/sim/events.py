"""Event primitives for the discrete-event kernel.

The kernel is generator based, in the style of SimPy: simulation
processes are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events trigger.  Events carry a value (delivered
as the result of the ``yield``) or an exception (raised at the ``yield``
site).

Only the pieces the GrADS reproduction needs are implemented: one-shot
events, timeouts, the join-all condition :class:`AllOf` and
process-as-event composition (in :mod:`repro.sim.process`).

The two hot triggers push their own agenda entry: a :class:`Timeout`
at construction (``NORMAL`` priority, ``delay`` from now) and
:meth:`Event.succeed` when called (``URGENT``, now).  Each takes the
next sequence number exactly as the kernel's ``_queue_event`` does for
the colder paths (``fail``, process start-up and interrupts), so every
entry's ``(time, priority, seq)`` key is the same whichever route
created it.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "EventAlreadyTriggered",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class EventAlreadyTriggered(SimulationError):
    """Raised when succeed()/fail() is called on a triggered event."""


PENDING = object()  #: sentinel for "no value yet"

#: Priority bands: URGENT is used for event-processing bookkeeping so that
#: an event's callbacks run before same-time timeouts created afterwards.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current
    simulation time.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name", "defused")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self.name = name
        #: set True by a waiter that handled this event's failure
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._agenda, (sim._now, URGENT, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception raised at waiters."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._queue_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously), which keeps late waiters correct.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Timeouts are the most-allocated object in a simulation (every flow
    wake-up, sensor period and contract check creates one), so ``__init__``
    writes its slots directly instead of chaining through
    ``Event.__init__`` and then overwriting ``_ok``/``_value``, and
    pushes its own agenda entry.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.name = name
        self.defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._agenda, (sim._now + delay, NORMAL, seq, self))


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is a dict mapping each child event to its value.  Fails
    as soon as any child fails; children that fail afterwards are
    absorbed (defused) rather than raised out of ``sim.run()``.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self.events: List[Event] = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
        else:
            # add_callback fires synchronously for already-processed
            # children, so _remaining must be set before this loop.
            for ev in self.events:
                ev.add_callback(self._on_child)

    def _collect(self) -> dict:
        # A Timeout carries its value from construction, so "triggered"
        # alone would over-collect; only *processed* children count.
        return {ev: ev._value for ev in self.events
                if ev.callbacks is None and ev._ok}

    def _on_child(self, child: Event) -> None:
        if not child._ok:
            # The failure propagates through the condition.  A failure
            # after the condition already resolved is still ours to
            # absorb, or the kernel would raise it as unhandled and
            # abort the run (two hosts dying under one MPI job did
            # exactly that).
            child.defused = True
            if self._value is PENDING:
                self.fail(child._value)
            return
        if self._value is not PENDING:
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
