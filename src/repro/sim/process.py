"""Simulation processes: generators driven by the event kernel.

A process wraps a generator.  Each value the generator yields must be an
:class:`~repro.sim.events.Event`; the process sleeps until that event is
processed, then resumes with the event's value (or the event's exception
raised at the yield site).  A Process is itself an Event that triggers
with the generator's return value, so processes compose: one process can
``yield`` another to join on it, and :class:`AllOf` works over
processes directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event, SimulationError

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

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "proc"))
        self._generator = generator
        self._waiting_on: Event | None = None
        # Kick off at the current time via an immediately-successful
        # event.  Built by hand (no succeed(), no per-process f-string
        # name): spawning is on the hot path of fan-out workloads.
        bootstrap = Event(sim, name="start")
        bootstrap.callbacks.append(self._resume)
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
        if self.triggered:
            return  # finished in the meantime; drop the interrupt
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._step(poke.value, ok=False)

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        if not event.ok:
            event.defused = True  # the failure is delivered into this process
        self._step(event.value, ok=event.ok)

    def _step(self, value: Any, ok: bool) -> None:
        sim = self.sim
        prev = sim._active_process
        sim._active_process = self
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            sim._active_process = prev
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"))
            return
        if target.sim is not sim:
            self._generator.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)
