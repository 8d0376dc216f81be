"""Simulation processes: generators driven by the event kernel.

A process wraps a generator.  Each value the generator yields must be an
:class:`~repro.sim.events.Event`; the process sleeps until that event is
processed, then resumes with the event's value (or the event's exception
raised at the yield site).  A Process is itself an Event that triggers
with the generator's return value, so processes compose: one process can
``yield`` another to join on it, and :class:`AllOf` works over
processes directly.

A resumption is one call.  Each process binds its :meth:`Process._resume`
method once, at construction, and appends that same object onto the
``callbacks`` of every event it yields; ``_resume`` reads the event's
``_ok``/``_value`` slots directly and drives the generator itself.
Interrupts and thrown exceptions take the same path: the poke event
detaches the stored callback from the event the process was blocked on
and is then handed to ``_resume`` like any other failed event.  When the
generator finishes, the process drops the stored callback again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import PENDING, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries whatever the interrupter passed; GrADS uses this
    for, e.g., forcing a contract monitor to re-evaluate immediately.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process (also usable as an event)."""

    __slots__ = ("_generator", "_waiting_on", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "proc"))
        self._generator = generator
        self._waiting_on: Event | None = None
        #: the bound _resume, made once and reused for every yield
        self._resume_cb = self._resume
        # Kick off at the current time via an immediately-successful
        # event.  Built by hand (no succeed(), no per-process f-string
        # name): spawning is on the hot path of fan-out workloads.
        bootstrap = Event(sim, name="start")
        bootstrap.callbacks.append(self._resume_cb)
        bootstrap._ok = True
        bootstrap._value = None
        sim._queue_event(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self) -> None:
        """Terminate the process, treating its death as handled.

        Unlike a bare :meth:`interrupt`, the resulting failure is
        pre-defused so the kernel will not re-raise it for lacking a
        waiter — the right tool for reaping orphaned ranks after a
        sibling crashed.  Killing a finished process is a no-op.
        """
        if self.triggered:
            return
        self.defused = True
        self.interrupt("killed")

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        self._poke(Interrupt(cause), f"{self.name}:interrupt")

    def throw(self, exc: BaseException) -> None:
        """Raise an arbitrary exception inside the process at its yield
        point (same delivery as :meth:`interrupt`, different type).

        This is how the substrate delivers asynchronous death — e.g. a
        host crash must kill a rank even while it is blocked on a
        network transfer, which no failing compute event would reach.
        """
        if self.triggered:
            raise SimulationError(f"cannot throw into finished process {self.name!r}")
        self._poke(exc, f"{self.name}:throw")

    def _poke(self, exc: BaseException, name: str) -> None:
        poke = Event(self.sim, name=name)
        poke.add_callback(self._resume_with_interrupt)
        poke._value = exc
        poke._ok = False
        self.sim._queue_event(poke)

    # -- resumption machinery ------------------------------------------------
    def _resume_with_interrupt(self, poke: Event) -> None:
        if self._value is not PENDING:
            return  # finished in the meantime; drop the interrupt
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(poke)

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True  # the failure is delivered into this process
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            # Dropping the stored callback breaks the process -> bound
            # method cycle, so a finished process is freed by reference
            # counting instead of waiting for the cyclic collector.
            self._resume_cb = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._resume_cb = None
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target.sim is not self.sim:
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another simulator"))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)  # already processed: resume synchronously
        else:
            callbacks.append(self._resume_cb)
