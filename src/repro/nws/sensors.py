"""NWS sensors: periodic measurements.

Real NWS runs sensor daemons that periodically measure CPU availability
on each host and probe bandwidth/latency between host pairs with small
transfers.  We do the same inside the simulation: CPU sensors sample the
host's processor-sharing state; network sensors send genuine probe
transfers through the topology, so they observe — and very slightly
cause — contention, exactly like the real tool.

A CPU reading is an instantaneous, side-effect-free look at the host,
so CPU sensors need no process of their own: a :class:`CpuSensorSweep`
samples a whole group of them, in the order they joined, from one
periodic timer (one agenda entry per sweep, not one per host).  A
sensor built on its own is a sweep of one.  Network sensors stay one
process per pair, because each probe is a real flow that takes time and
shares links with other traffic.

The sweep is bit-exact with one process per sensor started back-to-back
(the model the tests keep as an oracle).  Such processes' start-up
entries take consecutive agenda sequence numbers, and since a reading
schedules nothing, each tick's per-sensor timeouts are created back to
back and stay adjacent in ``(time, priority, sequence)`` order for the
whole run: no other event can fall between them.  One entry at the
first of those positions therefore interleaves with every other event
exactly as the group did, and its tick times are built the same way, by
adding ``period`` to the current time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional

from ..microgrid.host import Host
from ..microgrid.network import Topology
from ..sim.kernel import Simulator
from .forecasting import HISTORY_LEN

__all__ = ["Measurement", "CpuSensor", "CpuSensorSweep", "NetworkSensor"]


class Measurement(NamedTuple):
    """One timestamped sensor reading (an immutable named tuple)."""

    time: float
    value: float


class CpuSensorSweep:
    """One periodic timer that samples a group of CPU sensors.

    Every ``period`` the sweep calls :meth:`CpuSensor.measure_once` on
    each of its sensors in joining order.  Sensors join (by passing
    ``sweep=`` to :class:`CpuSensor`) before the sweep's process first
    runs, so every member shares the first tick at ``period`` after the
    sweep was built.
    """

    def __init__(self, sim: Simulator, period: float = 10.0) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        self.sim = sim
        self.period = period
        self.sensors: List[CpuSensor] = []
        self._started = False
        sim.process(self._run(), name="cpusweep")

    def _join(self, sensor: "CpuSensor") -> None:
        if sensor.sim is not self.sim:
            raise ValueError("sensor and sweep belong to different simulators")
        if sensor.period != self.period:
            raise ValueError(f"sensor period {sensor.period} differs from "
                             f"its sweep's {self.period}")
        if self._started:
            raise ValueError("sensors must join a sweep before it starts")
        self.sensors.append(sensor)

    def _run(self):
        self._started = True
        sim, period, sensors = self.sim, self.period, self.sensors
        if not sensors:
            return
        while True:
            yield sim.timeout(period)
            for sensor in sensors:
                sensor.measure_once()


class CpuSensor:
    """Periodically samples the CPU availability of one host.

    The readings are taken by ``sweep``, which must share this sensor's
    simulator and period and not have started yet; by default the
    sensor gets a new sweep of its own.
    """

    def __init__(self, sim: Simulator, host: Host, period: float = 10.0,
                 sweep: Optional[CpuSensorSweep] = None) -> None:
        self.sim = sim
        self.host = host
        self.period = period
        #: the last HISTORY_LEN readings
        self.readings: Deque[Measurement] = deque(maxlen=HISTORY_LEN)
        self._listeners: list = []
        if sweep is None:
            sweep = CpuSensorSweep(sim, period)
        sweep._join(self)

    def on_reading(self, callback) -> None:
        """Register ``callback(measurement)`` for each new reading."""
        self._listeners.append(callback)

    def measure_once(self) -> Measurement:
        """Take a reading now: the sweep's tick, or an on-demand probe."""
        reading = Measurement(self.sim.now, self.host.availability())
        self.readings.append(reading)
        for listener in self._listeners:
            listener(reading)
        return reading

    def latest(self) -> Optional[Measurement]:
        return self.readings[-1] if self.readings else None


class NetworkSensor:
    """Probes achievable bandwidth and latency between two endpoints.

    Each probe pushes ``probe_bytes`` through the real flow simulation
    and derives bandwidth from the measured time minus the path latency
    — the same experiment NWS's 64 KB TCP probes run.
    """

    def __init__(self, sim: Simulator, topology: Topology, src: str, dst: str,
                 period: float = 30.0, probe_bytes: float = 64 * 1024) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        if probe_bytes <= 0:
            raise ValueError("probe size must be positive")
        self.sim = sim
        self.topology = topology
        self.src = src
        self.dst = dst
        self.period = period
        self.probe_bytes = probe_bytes
        #: the last HISTORY_LEN readings of each kind
        self.bandwidth_readings: Deque[Measurement] = deque(
            maxlen=HISTORY_LEN)
        self.latency_readings: Deque[Measurement] = deque(maxlen=HISTORY_LEN)
        self._listeners: list = []
        sim.process(self._run(), name=f"netsensor:{src}->{dst}")

    def on_reading(self, callback) -> None:
        """Register ``callback(kind, measurement)``; kind is 'bandwidth'
        or 'latency'."""
        self._listeners.append(callback)

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            latency = self.topology.path_latency(self.src, self.dst)
            elapsed = yield self.topology.transfer(
                self.src, self.dst, self.probe_bytes, tag="nws-probe")
            stream_time = max(elapsed - latency, 1e-9)
            bandwidth = self.probe_bytes / stream_time
            now = self.sim.now
            bw_reading = Measurement(now, bandwidth)
            lat_reading = Measurement(now, latency)
            self.bandwidth_readings.append(bw_reading)
            self.latency_readings.append(lat_reading)
            for listener in self._listeners:
                listener("bandwidth", bw_reading)
                listener("latency", lat_reading)
