"""The Network Weather Service facade.

Ties sensors to adaptive forecasters and answers the two questions the
GrADS scheduler and rescheduler ask (§3.1, §4.1.1): "what CPU fraction
will this host give me?" and "what bandwidth/latency will I see between
these endpoints?".

Deploying per-host-pair bandwidth sensors across a whole grid would be
quadratic, so — like the real NWS with its cliques — the service probes
between *sites* (one representative pair per cluster pair) and answers
host-pair queries from the covering site-pair series.  Before any
measurement exists the service falls back to a static estimate from the
topology description, which corresponds to NWS answering from its
configuration baseline.

CPU series are replayed lazily, by the first read after new samples
(see :mod:`repro.nws.forecasting`).  A caller about to read many hosts
at one instant calls :meth:`NetworkWeatherService.replay_cpu` first, so
their pending samples replay together and their AR windows are fitted
in a few batched LAPACK calls instead of one per window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..microgrid.dml import Grid
from ..microgrid.host import Host
from ..microgrid.network import Topology
from ..sim.kernel import Simulator
from .forecasting import AdaptiveForecaster, replay
from .sensors import CpuSensorSweep, NetworkSensor

__all__ = ["NetworkWeatherService"]


class NetworkWeatherService:
    """CPU and network forecasts over a grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 cpu_period: float = 10.0, net_period: float = 30.0,
                 deploy_network_sensors: bool = True) -> None:
        self.sim = sim
        self.grid = grid
        self.topology: Topology = grid.topology
        self._cpu_forecasts: Dict[str, AdaptiveForecaster] = {}
        self._bw_forecasts: Dict[Tuple[str, str], AdaptiveForecaster] = {}
        self._site_rep: Dict[str, str] = {}

        # One timer samples every host's CPU, in deployment order.
        sweep = CpuSensorSweep(sim, cpu_period)
        for host in grid.all_hosts():
            forecast = AdaptiveForecaster()
            sweep.join(host, forecast)
            self._cpu_forecasts[host.name] = forecast
            site = self._site_of(host)
            self._site_rep.setdefault(site, host.name)

        if deploy_network_sensors:
            self._deploy_site_sensors(net_period)

    # -- deployment ------------------------------------------------------------
    def _site_of(self, host: Host) -> str:
        return host.cluster.site if host.cluster is not None else host.name

    def _deploy_site_sensors(self, period: float) -> None:
        sites = sorted(self._site_rep)
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                for src_site, dst_site in ((a, b), (b, a)):
                    forecast = AdaptiveForecaster()
                    NetworkSensor(self.sim, self.topology,
                                  self._site_rep[src_site],
                                  self._site_rep[dst_site], forecast,
                                  period=period)
                    self._bw_forecasts[(src_site, dst_site)] = forecast

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
        """Predicted achievable bandwidth (bytes/s) between two hosts."""
        if src == dst:
            return self.topology.local_copy_bw
        key = self._site_key(src, dst)
        forecast = self._bw_forecasts.get(key)
        if forecast is not None:
            value = forecast.predict()
            if value is not None:
                return value
        return self.topology.path_bottleneck_bw(src, dst)

    def latency_forecast(self, src: str, dst: str) -> float:
        """Predicted one-way latency (s) between two hosts.

        Latency on these paths is static, so the topology value is the
        forecast (real NWS latency series are similarly flat).
        """
        return self.topology.path_latency(src, dst)

    def transfer_params(self, src: str, dst: str) -> Tuple[float, float]:
        """(latency seconds, bandwidth bytes/s) between two hosts.

        ``transfer_forecast`` decomposed for callers that memoise:
        forecasts only move when sensor readings arrive, so while a
        scheduler is deliberating (no simulated time passes) the pair is
        frozen and a transfer time for any volume reconstitutes as
        ``latency + nbytes / bandwidth``.  The fast workflow scheduler
        caches these pairs per (src, dst) for exactly that reason.
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
    def _site_key(self, src: str, dst: str) -> Tuple[str, str]:
        src_site = self._site_of(self.topology.host(src))
        dst_site = self._site_of(self.topology.host(dst))
        return (src_site, dst_site)

    def cpu_forecaster(self, host_name: str) -> AdaptiveForecaster:
        return self._cpu_forecasts[host_name]
