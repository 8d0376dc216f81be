"""Host failure injection.

Fault tolerance is the paper's named future-work item (§5: the VGrADS
follow-on adds "new capabilities, such as fault tolerance").  This
module provides the substrate: hosts can crash (killing their running
tasks) and recover on a schedule.  The SRS
checkpoint library plus the application manager's recovery path (see
``repro.apps.qr.QrRun``) turn those crashes into restart-from-
checkpoint instead of lost work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.kernel import Simulator
from .host import Host, HostFailure

__all__ = ["HostFailure", "ScheduledFailure"]


@dataclass
class ScheduledFailure:
    """Crash a host at a fixed time, optionally recovering later.

    Stochastic availability is pre-sampled into windows of these (the
    soak harness's MTBF preset), so every failure schedule is plain
    data that replays and shrinks.  The kill and the recovery tolerate
    interleaving with other failure sources (an overlapping
    :class:`ScheduledFailure`, a direct ``Host.fail``): a host that is
    already down at ``at`` stays down, and a host already recovered by
    someone else at ``recover_at`` stays up, instead of raising
    mid-callback and aborting the whole simulation.
    """

    host: Host
    at: float
    recover_at: Optional[float] = None

    def install(self, sim: Simulator) -> None:
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recovery must come after the failure")
        sim.call_at(self.at, self._fail)
        if self.recover_at is not None:
            sim.call_at(self.recover_at, self._recover)

    def _fail(self) -> None:
        if self.host.alive:
            self.host.fail()

    def _recover(self) -> None:
        if not self.host.alive:
            self.host.recover()
