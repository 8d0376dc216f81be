"""Reference oracle for the NWS CPU sensor sweep.

:class:`ReferenceCpuSweep` is the pre-sweep CPU sensor: every host that
joins it gets a ``cpusensor:<host>`` simulation process of its own, so
each tick costs one timeout and one generator resume per host.  The
differential tests assert that :class:`repro.nws.CpuSensorSweep`, one
timer per service, feeds every forecaster ``==`` samples at the same
times and leaves ``==`` forecasts.

:func:`reference_cpu_sensors` swaps the oracle in for a block by
rebinding the ``CpuSensorSweep`` name that
:class:`repro.nws.NetworkWeatherService` deploys from, so the product
carries no per-host tick path.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import pytest

from repro.microgrid.host import Host
from repro.nws import service
from repro.nws.forecasting import AdaptiveForecaster
from repro.sim.kernel import Simulator

__all__ = ["ReferenceCpuSweep", "reference_cpu_sensors"]


class ReferenceCpuSweep:
    """:class:`repro.nws.CpuSensorSweep`'s interface, with one process
    per joined host started at :meth:`join` and none for the sweep."""

    def __init__(self, sim: Simulator, period: float = 10.0) -> None:
        if period <= 0:
            raise ValueError("sensor period must be positive")
        self.sim = sim
        self.period = period

    def join(self, host: Host, forecaster: AdaptiveForecaster) -> None:
        self.sim.process(self._run(host, forecaster),
                         name=f"cpusensor:{host.name}")

    def _run(self, host: Host, forecaster: AdaptiveForecaster):
        while True:
            yield self.sim.timeout(self.period)
            forecaster.update(host.availability())


@contextlib.contextmanager
def reference_cpu_sensors() -> Iterator[None]:
    """Within the block, every :class:`NetworkWeatherService` built
    gives each host a sensor process of its own and builds no sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "CpuSensorSweep", ReferenceCpuSweep)
        yield
