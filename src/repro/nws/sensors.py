"""NWS sensors: periodic measurements.

Real NWS runs sensor daemons that periodically measure CPU availability
on each host (and probe bandwidth between host pairs, which this
reproduction answers from the topology instead; see
:mod:`repro.nws.service`).  CPU sensors sample the host's
processor-sharing state inside the simulation.

A CPU reading is an instantaneous, side-effect-free look at the host,
so the CPU sensor is one :class:`CpuSensorSweep` per service: a single
periodic timer that holds ``(host, forecaster)`` pairs in the order they
joined and, at each tick, feeds every forecaster its host's
``availability()`` (one agenda entry per sweep, not one per host).  A
reading is handed straight to ``AdaptiveForecaster.update``; nothing
else keeps it.

The sweep is bit-exact with one process per host started back-to-back
(the model the tests keep as an oracle).  Such processes' start-up
entries take consecutive agenda sequence numbers, and since a reading
schedules nothing, each tick's per-host timeouts are created back to
back and stay adjacent in ``(time, priority, sequence)`` order for the
whole run: no other event can fall between them.  One entry at the
first of those positions therefore interleaves with every other event
exactly as the group did, and its tick times are built the same way, by
adding ``period`` to the current time.
"""

from __future__ import annotations

from typing import List, Tuple

from ..microgrid.host import Host
from ..sim.events import Timeout
from ..sim.kernel import Simulator
from .forecasting import AdaptiveForecaster

__all__ = ["CpuSensorSweep"]


class CpuSensorSweep:
    """The CPU sensor: one periodic timer over a group of hosts.

    Every ``period`` the sweep calls ``forecaster.update(
    host.availability())`` for each joined ``(host, forecaster)`` pair,
    in joining order.  Hosts join (:meth:`join`) before the sweep's
    process first runs, so every member shares the first tick at
    ``period`` after the sweep was built.
    """

    def __init__(self, sim: Simulator, period: float = 10.0) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        self.sim = sim
        self.period = period
        #: the sampled hosts and the forecasters they feed, in joining order
        self.members: List[Tuple[Host, AdaptiveForecaster]] = []
        self._started = False
        sim.process(self._run(), name="cpusweep")

    def join(self, host: Host, forecaster: AdaptiveForecaster) -> None:
        """Sample ``host`` at every tick into ``forecaster``."""
        if host.sim is not self.sim:
            raise ValueError("host and sweep belong to different simulators")
        if self._started:
            raise ValueError("hosts must join a sweep before it starts")
        self.members.append((host, forecaster))

    def _run(self):
        self._started = True
        sim, period, members = self.sim, self.period, self.members
        if not members:
            return
        while True:
            yield Timeout(sim, period)
            for host, forecaster in members:
                forecaster.update(host.availability())

