"""The Network Weather Service facade.

Ties sensors to adaptive forecasters and answers the two questions the
GrADS scheduler and rescheduler ask (§3.1, §4.1.1): "what CPU fraction
will this host give me?" and "what bandwidth/latency will I see between
these endpoints?".

Bandwidth and latency are answered from the topology description, which
corresponds to NWS answering from its configuration baseline: no run
probes the network, so these forecasts never move.

CPU series are replayed lazily, by the first read after new samples
(see :mod:`repro.nws.forecasting`).  A caller about to read many hosts
at one instant calls :meth:`NetworkWeatherService.replay_cpu` first, so
their pending samples replay together and their AR windows are fitted
in a few batched LAPACK calls instead of one per window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..microgrid.dml import Grid
from ..microgrid.network import Topology
from ..sim.kernel import Simulator
from .forecasting import AdaptiveForecaster, replay
from .sensors import CpuSensorSweep

__all__ = ["NetworkWeatherService"]


class NetworkWeatherService:
    """CPU and network forecasts over a grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 cpu_period: float = 10.0) -> None:
        self.sim = sim
        self.grid = grid
        self.topology: Topology = grid.topology
        self._cpu_forecasts: Dict[str, AdaptiveForecaster] = {}

        # One timer samples every host's CPU, in deployment order.
        sweep = CpuSensorSweep(sim, cpu_period)
        for host in grid.all_hosts():
            forecast = AdaptiveForecaster()
            sweep.join(host, forecast)
            self._cpu_forecasts[host.name] = forecast

    # -- forecasts ---------------------------------------------------------------
    def cpu_forecast(self, host_name: str) -> float:
        """Predicted CPU availability fraction for a host."""
        forecast = self._cpu_forecasts.get(host_name)
        if forecast is None:
            return self.topology.host(host_name).availability()
        value = forecast.predict()
        if value is None:
            # No data yet: read the ground truth once, like an on-demand
            # probe, and feed it to the host's series.
            value = self.topology.host(host_name).availability()
            forecast.update(value)
        return value

    def replay_cpu(self, host_names: Iterable[str]) -> None:
        """Bring these hosts' CPU series up to date in one batched
        replay (see :func:`~repro.nws.forecasting.replay`), before a
        caller reads their forecasts one by one.  Nothing is probed:
        a host with no data yet is still probed by its own
        :meth:`cpu_forecast`, in the caller's read order, and names
        without a series are skipped."""
        forecasts = self._cpu_forecasts
        replay([forecasts[name] for name in host_names
                if name in forecasts])

    def bandwidth_forecast(self, src: str, dst: str) -> float:
        """Predicted achievable bandwidth (bytes/s) between two hosts:
        the path's bottleneck link, or a memory copy within a host."""
        if src == dst:
            return self.topology.local_copy_bw
        return self.topology.path_bottleneck_bw(src, dst)

    def latency_forecast(self, src: str, dst: str) -> float:
        """Predicted one-way latency (s) between two hosts.

        Latency on these paths is static, so the topology value is the
        forecast (real NWS latency series are similarly flat).
        """
        return self.topology.path_latency(src, dst)

    def transfer_params(self, src: str, dst: str) -> Tuple[float, float]:
        """(latency seconds, bandwidth bytes/s) between two hosts.

        ``transfer_forecast`` decomposed for callers that memoise: both
        come from the topology description, so the pair never moves and
        a transfer time for any volume reconstitutes as ``latency +
        nbytes / bandwidth``.  The fast workflow scheduler caches these
        pairs per (src, dst) for exactly that reason.
        """
        return self.latency_forecast(src, dst), self.bandwidth_forecast(src,
                                                                        dst)

    def transfer_forecast(self, src: str, dst: str, nbytes: float) -> float:
        """Predicted seconds to move ``nbytes`` from src to dst."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        latency, bw = self.transfer_params(src, dst)
        return latency + nbytes / bw

    # -- plumbing for tests/benchmarks ------------------------------------------
    def cpu_forecaster(self, host_name: str) -> AdaptiveForecaster:
        return self._cpu_forecasts[host_name]
