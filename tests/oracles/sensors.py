"""Reference oracle for the NWS CPU sensor sweep.

:class:`ReferenceCpuSensor` is the pre-sweep CPU sensor: every sensor
runs its own ``cpusensor:<host>`` simulation process, so each tick
costs one timeout and one generator resume per host.  The differential
tests assert that :class:`repro.nws.CpuSensorSweep`, one timer per
service, produces ``==`` readings and forecasts.

:func:`reference_cpu_sensors` swaps the oracle in for a block by
rebinding the ``CpuSensor`` and ``CpuSensorSweep`` names that
:class:`repro.nws.NetworkWeatherService` deploys from, so the product
carries no per-sensor tick path.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Deque, Iterator, Optional

import pytest

from repro.microgrid.host import Host
from repro.nws import service
from repro.nws.forecasting import HISTORY_LEN
from repro.nws.sensors import Measurement
from repro.sim.kernel import Simulator

__all__ = ["ReferenceCpuSensor", "reference_cpu_sensors"]


class ReferenceCpuSensor:
    """Periodically samples the CPU availability of one host, from a
    process of its own.  ``sweep`` is accepted and ignored, so the
    service's deployment code runs unchanged."""

    def __init__(self, sim: Simulator, host: Host, period: float = 10.0,
                 sweep: object = None) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        self.sim = sim
        self.host = host
        self.period = period
        self.readings: Deque[Measurement] = deque(maxlen=HISTORY_LEN)
        self._listeners: list = []
        sim.process(self._run(), name=f"cpusensor:{host.name}")

    def on_reading(self, callback) -> None:
        self._listeners.append(callback)

    def measure_once(self) -> Measurement:
        reading = Measurement(self.sim.now, self.host.availability())
        self.readings.append(reading)
        for listener in self._listeners:
            listener(reading)
        return reading

    def _run(self):
        while True:
            yield self.sim.timeout(self.period)
            self.measure_once()

    def latest(self) -> Optional[Measurement]:
        return self.readings[-1] if self.readings else None


def _no_sweep(sim: Simulator, period: float) -> None:
    return None


@contextlib.contextmanager
def reference_cpu_sensors() -> Iterator[None]:
    """Within the block, every :class:`NetworkWeatherService` built
    gives each host a :class:`ReferenceCpuSensor` process and no
    sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "CpuSensor", ReferenceCpuSensor)
        patch.setattr(service, "CpuSensorSweep", _no_sweep)
        yield
