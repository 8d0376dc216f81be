"""Tests for NWS sensors and the service facade."""

import pytest

from repro.sim import Simulator
from repro.microgrid import ScheduledLoad, fig3_testbed, fig4_testbed
from repro.nws import (AdaptiveForecaster, CpuSensorSweep, NetworkSensor,
                       NetworkWeatherService)
from repro.nws.forecasting import HISTORY_LEN


class Recorder(AdaptiveForecaster):
    """A forecaster that also logs ``(time, label, value)`` for every
    sample it is fed."""

    def __init__(self, sim, label, log):
        super().__init__()
        self.sim = sim
        self.label = label
        self.log = log

    def update(self, value):
        self.log.append((self.sim.now, self.label, value))
        super().update(value)


def lone_sweep(sim, host, period, forecaster=None):
    """A sweep sampling ``host`` alone; returns its forecaster."""
    forecaster = AdaptiveForecaster() if forecaster is None else forecaster
    CpuSensorSweep(sim, period).join(host, forecaster)
    return forecaster


class TestCpuSensor:
    def test_periodic_readings(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]
        forecaster = lone_sweep(sim, host, 10.0)
        sim.run(until=55.0)
        assert forecaster.n_samples == 5
        assert forecaster.history() == [1.0] * 5

    def test_sensor_sees_load(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]  # dual core
        log = []
        lone_sweep(sim, host, 10.0, Recorder(sim, host.name, log))
        ScheduledLoad(host=host, at=25.0, nprocs=4).install(sim)
        sim.run(until=45.0)
        before = [v for t, _, v in log if t < 25.0]
        after = [v for t, _, v in log if t > 25.0]
        assert before == [1.0, 1.0]
        # 4 background procs on 2 cores: a 5th task would get 2/5 core.
        assert after == [pytest.approx(0.4)] * 2

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CpuSensorSweep(Simulator(), period=0.0)

    def test_forecaster_fed_at_each_tick(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        log = []
        lone_sweep(sim, grid.clusters["utk"][0], 5.0,
                   Recorder(sim, "utk.n0", log))
        sim.run(until=16.0)
        assert [t for t, _, _ in log] == [5.0, 10.0, 15.0]

    def test_readings_bounded(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        forecaster = lone_sweep(sim, grid.clusters["utk"][0], 1.0)
        sim.run(until=100.5)
        assert forecaster.n_samples == 100
        assert len(forecaster.history()) == HISTORY_LEN


class TestCpuSensorSweep:
    def test_sweep_samples_members_in_joining_order(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(sim, period=5.0)
        seen = []
        hosts = [grid.clusters["uiuc"][1], grid.clusters["utk"][0]]
        for host in hosts:
            sweep.join(host, Recorder(sim, host.name, seen))
        assert [host for host, _ in sweep.members] == hosts
        sim.run(until=11.0)
        assert [(t, name) for t, name, _ in seen] == [
            (5.0, "uiuc.n1"), (5.0, "utk.n0"),
            (10.0, "uiuc.n1"), (10.0, "utk.n0")]

    def test_lone_sensor_is_a_sweep_of_one(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        lone_sweep(sim, grid.clusters["utk"][0], 5.0)
        sim.run(until=1.0)
        assert len(sim._agenda) == 1

    def test_join_after_start_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(sim, period=5.0)
        sweep.join(grid.clusters["utk"][0], AdaptiveForecaster())
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="before it starts"):
            sweep.join(grid.clusters["utk"][1], AdaptiveForecaster())

    def test_each_period_needs_its_own_sweep(self):
        """A sweep has one period; hosts sampled at another period join
        another sweep, and each sweep keeps its own ticks."""
        sim = Simulator()
        grid = fig3_testbed(sim)
        log = []
        CpuSensorSweep(sim, period=5.0).join(
            grid.clusters["utk"][0], Recorder(sim, "fast", log))
        CpuSensorSweep(sim, period=10.0).join(
            grid.clusters["utk"][1], Recorder(sim, "slow", log))
        sim.run(until=21.0)
        assert [t for t, label, _ in log if label == "fast"] == [
            5.0, 10.0, 15.0, 20.0]
        assert [t for t, label, _ in log if label == "slow"] == [10.0, 20.0]
        assert len(sim._agenda) == 2

    def test_other_simulator_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(Simulator(), period=10.0)
        with pytest.raises(ValueError, match="simulators"):
            sweep.join(grid.clusters["utk"][0], AdaptiveForecaster())

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            CpuSensorSweep(Simulator(), period=-1.0)

    def test_empty_sweep_lets_the_agenda_drain(self):
        sim = Simulator()
        CpuSensorSweep(sim, period=10.0)
        sim.run()
        assert sim.now == 0.0


class TestNetworkSensor:
    def test_probe_measures_bottleneck(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        forecaster = AdaptiveForecaster()
        NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0", forecaster,
                      period=30.0)
        sim.run(until=100.0)
        assert forecaster.n_samples == 3
        for bandwidth in forecaster.history():
            assert bandwidth == pytest.approx(5e6, rel=0.05)

    def test_probe_sees_contention(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        forecaster = AdaptiveForecaster()
        NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0", forecaster,
                      period=20.0, probe_bytes=1e6)
        # Saturate the WAN link with a long bulk transfer from t=0.
        grid.topology.transfer("utk.n1", "uiuc.n1", 1e9)
        sim.run(until=65.0)
        assert forecaster.history()
        for bandwidth in forecaster.history():
            assert bandwidth < 3.5e6  # roughly half of the 5 MB/s link

    def test_readings_bounded(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        log = []
        forecaster = Recorder(sim, "bw", log)
        NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0", forecaster,
                      period=1.0)
        sim.run(until=100.5)
        assert forecaster.n_samples > HISTORY_LEN
        assert len(forecaster.history()) == HISTORY_LEN
        assert log[-1][0] > 99.0

    def test_validation(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        with pytest.raises(ValueError):
            NetworkSensor(sim, grid.topology, "a", "b", AdaptiveForecaster(),
                          period=-1.0)
        with pytest.raises(ValueError):
            NetworkSensor(sim, grid.topology, "a", "b", AdaptiveForecaster(),
                          probe_bytes=0)


class TestNetworkWeatherService:
    def test_cpu_forecast_before_data_uses_probe(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        grid.clusters["utk"][0].add_background_load(3)
        # utk.n0 is dual core: a 4th task would get 2/4 of a core
        assert nws.cpu_forecast("utk.n0") == 0.5
        # the probe's reading is the series' first sample
        assert nws.cpu_forecaster("utk.n0").history() == [0.5]
        assert nws.cpu_forecaster("utk.n1").n_samples == 0

    def test_cpu_forecast_tracks_load(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        nws = NetworkWeatherService(sim, grid, cpu_period=5.0,
                                    deploy_network_sensors=False)
        host = grid.clusters["uiuc"][0]
        host.add_background_load(1)
        sim.run(until=120.0)
        assert nws.cpu_forecast("uiuc.n0") == pytest.approx(0.5, abs=0.05)

    def test_bandwidth_forecast_static_fallback(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        assert nws.bandwidth_forecast("utk.n0", "uiuc.n0") == pytest.approx(5e6)

    def test_bandwidth_forecast_from_probes(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        nws = NetworkWeatherService(sim, grid, net_period=15.0)
        sim.run(until=120.0)
        assert nws.bandwidth_forecast("utk.n2", "uiuc.n5") == pytest.approx(
            5e6, rel=0.1)

    def test_local_bandwidth_is_memcpy(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        assert nws.bandwidth_forecast("utk.n0", "utk.n0") == \
            grid.topology.local_copy_bw

    def test_transfer_forecast_combines_latency_and_bw(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        t = nws.transfer_forecast("utk.n0", "uiuc.n0", 5e6)
        assert t == pytest.approx(1.0 + 0.011, rel=0.02)

    def test_transfer_forecast_negative_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        with pytest.raises(ValueError):
            nws.transfer_forecast("utk.n0", "uiuc.n0", -1)

    def test_works_on_fig4_grid_with_standalone_host(self):
        sim = Simulator()
        grid = fig4_testbed(sim)
        nws = NetworkWeatherService(sim, grid, net_period=20.0)
        sim.run(until=60.0)
        bw = nws.bandwidth_forecast("ucsd.n0", "utk.n0")
        assert bw > 0
