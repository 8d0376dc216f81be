"""Background-load injection for hosts.

The paper's experiments inject "artificial load" (§4.1.2) or
"competitive processes" (§4.2) at a chosen instant, and
:class:`ScheduledLoad` does that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim.kernel import Simulator
from .host import Host

__all__ = ["ScheduledLoad"]


@dataclass
class ScheduledLoad:
    """Inject ``nprocs`` competing processes on a host at a given time.

    Mirrors the paper: "five minutes after the start of the application,
    an artificial load was introduced on a UTK node" and "at (virtual)
    time 80 seconds, we added two competitive processes".
    """

    host: Host
    at: float
    nprocs: int = 1
    until: Optional[float] = None  # remove again at this time, if set
    _handles: list = field(default_factory=list, repr=False)
    #: host failure count at injection time; a later crash drops our
    #: tasks, making the recorded handles stale
    _epoch: int = field(default=-1, repr=False)

    def install(self, sim: Simulator) -> None:
        """Arm the injection (and removal, if ``until`` is set)."""
        if self.until is not None and self.until <= self.at:
            raise ValueError("load removal must come after injection")
        sim.call_at(self.at, self._inject)
        if self.until is not None:
            sim.call_at(self.until, self._remove)

    def _inject(self) -> None:
        if not self.host.alive:
            return  # a crashed host has no competing processes
        self._handles = self.host.add_background_load(self.nprocs)
        self._epoch = self.host.failures

    def _remove(self) -> None:
        handles, self._handles = self._handles, []
        if not handles:
            return
        if self.host.failures != self._epoch:
            return  # the crash already dropped these tasks
        self.host.remove_background_load(handles)
