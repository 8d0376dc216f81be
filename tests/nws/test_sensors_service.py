"""Tests for NWS sensors and the service facade."""

import pytest

from repro.sim import Simulator
from repro.microgrid import ScheduledLoad, fig3_testbed, fig4_testbed
from repro.nws import (CpuSensor, CpuSensorSweep, NetworkSensor,
                       NetworkWeatherService)
from repro.nws.forecasting import HISTORY_LEN


class TestCpuSensor:
    def test_periodic_readings(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]
        sensor = CpuSensor(sim, host, period=10.0)
        sim.run(until=55.0)
        assert len(sensor.readings) == 5
        assert all(r.value == pytest.approx(1.0) for r in sensor.readings)

    def test_sensor_sees_load(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]  # dual core
        sensor = CpuSensor(sim, host, period=10.0)
        ScheduledLoad(host=host, at=25.0, nprocs=4).install(sim)
        sim.run(until=45.0)
        before = [r.value for r in sensor.readings if r.time < 25.0]
        after = [r.value for r in sensor.readings if r.time > 25.0]
        assert all(v == pytest.approx(1.0) for v in before)
        # 4 background procs on 2 cores: a 5th task would get 2/5 core.
        assert all(v == pytest.approx(0.4) for v in after)

    def test_bad_period_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        with pytest.raises(ValueError):
            CpuSensor(sim, grid.clusters["utk"][0], period=0.0)

    def test_callback_invoked(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sensor = CpuSensor(sim, grid.clusters["utk"][0], period=5.0)
        seen = []
        sensor.on_reading(lambda m: seen.append(m.time))
        sim.run(until=16.0)
        assert seen == [5.0, 10.0, 15.0]

    def test_readings_bounded(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sensor = CpuSensor(sim, grid.clusters["utk"][0], period=1.0)
        sim.run(until=100.5)
        assert len(sensor.readings) == HISTORY_LEN
        assert sensor.latest().time == 100.0


class TestCpuSensorSweep:
    def test_sweep_samples_members_in_joining_order(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(sim, period=5.0)
        seen = []
        hosts = [grid.clusters["uiuc"][1], grid.clusters["utk"][0]]
        for host in hosts:
            sensor = CpuSensor(sim, host, period=5.0, sweep=sweep)
            sensor.on_reading(
                lambda m, name=host.name: seen.append((m.time, name)))
        assert sweep.sensors[0].host is hosts[0]
        sim.run(until=11.0)
        assert seen == [(5.0, "uiuc.n1"), (5.0, "utk.n0"),
                        (10.0, "uiuc.n1"), (10.0, "utk.n0")]

    def test_lone_sensor_is_a_sweep_of_one(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        CpuSensor(sim, grid.clusters["utk"][0], period=5.0)
        sim.run(until=1.0)
        assert len(sim._agenda) == 1

    def test_join_after_start_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(sim, period=5.0)
        CpuSensor(sim, grid.clusters["utk"][0], period=5.0, sweep=sweep)
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="before it starts"):
            CpuSensor(sim, grid.clusters["utk"][1], period=5.0, sweep=sweep)

    def test_mismatched_period_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(sim, period=5.0)
        with pytest.raises(ValueError, match="period"):
            CpuSensor(sim, grid.clusters["utk"][0], period=10.0, sweep=sweep)

    def test_other_simulator_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sweep = CpuSensorSweep(Simulator(), period=10.0)
        with pytest.raises(ValueError, match="simulators"):
            CpuSensor(sim, grid.clusters["utk"][0], sweep=sweep)

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
        sensor = NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0",
                               period=30.0)
        sim.run(until=100.0)
        assert len(sensor.bandwidth_readings) == 3
        for reading in sensor.bandwidth_readings:
            assert reading.value == pytest.approx(5e6, rel=0.05)

    def test_probe_sees_contention(self):
        sim = Simulator()
        grid = fig3_testbed(sim, internet_bw=5e6)
        sensor = NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0",
                               period=20.0, probe_bytes=1e6)
        # Saturate the WAN link with a long bulk transfer from t=0.
        grid.topology.transfer("utk.n1", "uiuc.n1", 1e9)
        sim.run(until=65.0)
        assert sensor.bandwidth_readings
        for reading in sensor.bandwidth_readings:
            assert reading.value < 3.5e6  # roughly half of the 5 MB/s link

    def test_latency_reading(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sensor = NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0",
                               period=10.0)
        sim.run(until=11.0)
        assert sensor.latency_readings[-1].value == pytest.approx(0.011, abs=0.001)

    def test_readings_bounded(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        sensor = NetworkSensor(sim, grid.topology, "utk.n0", "uiuc.n0",
                               period=1.0)
        sim.run(until=100.5)
        assert len(sensor.bandwidth_readings) == HISTORY_LEN
        assert len(sensor.latency_readings) == HISTORY_LEN
        assert sensor.bandwidth_readings[-1].time > 99.0

    def test_validation(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        with pytest.raises(ValueError):
            NetworkSensor(sim, grid.topology, "a", "b", period=-1.0)
        with pytest.raises(ValueError):
            NetworkSensor(sim, grid.topology, "a", "b", probe_bytes=0)


class TestNetworkWeatherService:
    def test_cpu_forecast_before_data_uses_probe(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
        assert nws.cpu_forecast("utk.n0") == pytest.approx(1.0)

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
