"""Differential: the CPU sensor sweep against one process per sensor.

A :class:`NetworkWeatherService` samples all of its CPU sensors from one
:class:`repro.nws.CpuSensorSweep`.  Every sensor's ``(time, value)``
readings, every forecaster's ``history()`` and ``predict()``, every
on-demand ``cpu_forecast`` answer and every kernel counter but
``events_processed`` must be ``==`` to the same scenario served by
:mod:`tests.oracles.sensors`, where each host's sensor runs its own
process.

The scenarios put load changes, host crashes and recoveries exactly on
tick instants, scheduled both before and after the service was built:
same-time events then run before or after the tick by agenda sequence
number, so a sweep that took a different place in that order would read
a different value.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.metasched_stream import (metasched_scale_grid,
                                                run_metasched)
from repro.microgrid import ScheduledLoad, fig3_testbed
from repro.nws import NetworkWeatherService
from repro.sim import Simulator
from tests.oracles.sensors import reference_cpu_sensors


def toggler(sim, host, period, action, log):
    """Flip ``host`` every ``period``: add/remove one background process
    (``action="load"``) or crash/recover it (``action="fault"``)."""
    handles = None
    while True:
        yield sim.timeout(period)
        if action == "fault":
            if host.alive:
                host.fail()
            else:
                host.recover()
        elif handles is None:
            handles = host.add_background_load(1)
        else:
            host.remove_background_load(handles)
            handles = None
        log.append((sim.now, host.name, host.availability()))


def querier(sim, nws, hosts, period, log):
    """Ask the service for CPU forecasts every ``period``."""
    while True:
        for name in hosts:
            log.append((sim.now, name, nws.cpu_forecast(name)))
        yield sim.timeout(period)


def observe(scenario, oracle):
    """Serve ``scenario`` and return everything a caller could see of
    the service's CPU side."""
    with reference_cpu_sensors() if oracle else contextlib.nullcontext():
        sim = Simulator()
        nws, log, until = scenario(sim)
        hosts = sorted(nws._cpu_sensors)
        streams = {name: [] for name in hosts}
        for name in hosts:
            nws.cpu_sensor(name).on_reading(
                lambda m, out=streams[name]: out.append((m.time, m.value)))
        sim.run(until=until)
    stats = sim.stats.snapshot()
    stats.pop("events_processed")
    return {
        "streams": streams,
        "readings": {name: [(m.time, m.value)
                            for m in nws.cpu_sensor(name).readings]
                     for name in hosts},
        "history": {name: nws.cpu_forecaster(name).history()
                    for name in hosts},
        "predict": {name: nws.cpu_forecaster(name).predict()
                    for name in hosts},
        "log": log,
        "now": sim.now,
        "stats": stats,
    }


def assert_matches_oracle(scenario):
    mine = observe(scenario, oracle=False)
    ref = observe(scenario, oracle=True)
    for key in ref:
        assert mine[key] == ref[key], key
    assert any(mine["streams"].values())
    return mine


# -- scenarios ---------------------------------------------------------------

def loads_and_faults_on_ticks(sim):
    grid = fig3_testbed(sim)
    host = grid.topology.host
    log = []
    # Started before the service: each flip runs before the same-time
    # tick, because its timeout was created before the tick's.
    sim.process(toggler(sim, host("uiuc.n6"), 5.0, "load", log))
    sim.process(toggler(sim, host("utk.n2"), 10.0, "fault", log))
    ScheduledLoad(host=host("uiuc.n0"), at=25.0, nprocs=2,
                  until=50.0).install(sim)
    nws = NetworkWeatherService(sim, grid, cpu_period=5.0, net_period=15.0)
    # Armed after it, but before the first tick's timeout exists.
    ScheduledLoad(host=host("uiuc.n1"), at=5.0, nprocs=1,
                  until=35.0).install(sim)
    sim.call_at(30.0, host("utk.n1").fail)
    sim.call_at(45.0, host("utk.n1").recover)
    # Started after it: each flip runs after the same-time tick.
    sim.process(toggler(sim, host("uiuc.n2"), 5.0, "load", log))
    sim.process(querier(sim, nws, ["utk.n0", "uiuc.n0", "utk.n1"], 10.0,
                        log))
    host("utk.n3").compute(2.0e4)
    return nws, log, 300.0


def built_mid_run(sim):
    grid = fig3_testbed(sim)
    host = grid.topology.host
    log = []
    ScheduledLoad(host=host("utk.n3"), at=2.0, nprocs=3).install(sim)
    sim.run(until=7.3)
    # Tick instants are 7.3 + 3.3 + 3.3 + ...; togglers started now
    # land on exactly those floats.
    sim.process(toggler(sim, host("uiuc.n4"), 3.3, "load", log))
    nws = NetworkWeatherService(sim, grid, cpu_period=3.3,
                                deploy_network_sensors=False)
    sim.process(toggler(sim, host("uiuc.n5"), 6.6, "fault", log))
    sim.process(querier(sim, nws, ["uiuc.n4", "uiuc.n5"], 3.3, log))
    return nws, log, 200.0


def forecast_before_first_tick(sim):
    grid = fig3_testbed(sim)
    log = []
    grid.topology.host("utk.n0").add_background_load(3)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    for name in ("utk.n0", "uiuc.n7"):
        log.append((sim.now, name, nws.cpu_forecast(name)))
    sim.run(until=4.0)
    grid.topology.host("uiuc.n7").add_background_load(1)
    for name in ("utk.n0", "uiuc.n7", "uiuc.n6"):
        log.append((sim.now, name, nws.cpu_forecast(name)))
    return nws, log, 150.0


def scale_grid_64(sim):
    grid = metasched_scale_grid(sim, 64)
    hosts = grid.all_hosts()
    rng = np.random.default_rng(0)
    log = []
    for i, h in enumerate(hosts):
        at = 10.0 * int(rng.integers(0, 40)) + (0.0 if i % 2 else 0.5)
        ScheduledLoad(host=h, at=at, nprocs=int(rng.integers(1, 4)),
                      until=at + 10.0 * int(rng.integers(1, 20))).install(sim)
    nws = NetworkWeatherService(sim, grid, cpu_period=10.0)
    for h in hosts[::9]:
        down = 10.0 * int(rng.integers(1, 30))
        sim.call_at(down, h.fail)
        sim.call_at(down + 10.0 * int(rng.integers(1, 10)), h.recover)
    sim.process(querier(sim, nws, [h.name for h in hosts[::7]], 20.0, log))
    return nws, log, 600.0


@pytest.mark.parametrize("scenario", [
    loads_and_faults_on_ticks, built_mid_run, forecast_before_first_tick,
    scale_grid_64])
def test_scenario_matches_oracle(scenario):
    assert_matches_oracle(scenario)


def test_same_time_events_are_seen_in_agenda_order():
    """The scenario is sensitive to where the sweep sits among
    same-time events."""
    seen = assert_matches_oracle(loads_and_faults_on_ticks)["streams"]
    # Armed at t=0: the 1-core hosts' loads land before the tick.
    assert (5.0, 0.5) in seen["uiuc.n1"]
    assert (25.0, 1 / 3) in seen["uiuc.n0"]
    # Flipped by a process started before the service: seen at once.
    assert seen["uiuc.n6"][:2] == [(5.0, 0.5), (10.0, 1.0)]
    # Flipped by one started after it: seen one tick late.
    assert seen["uiuc.n2"][:3] == [(5.0, 1.0), (10.0, 0.5), (15.0, 1.0)]
    # A crash at a tick instant reads zero at that tick.
    assert (30.0, 0.0) in seen["utk.n1"]


@settings(max_examples=60, deadline=None)
@given(period=st.sampled_from([1.0, 2.5, 3.3, 10.0]),
       start=st.sampled_from([0.0, 0.7, 7.3]),
       events=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 20),
                                 st.booleans(), st.booleans()),
                       max_size=12))
def test_random_tick_aligned_events_match_oracle(period, start, events):
    """Loads and faults at tick multiples (as ``call_at`` floats, which
    may or may not equal the sweep's summed tick times), armed before or
    after the service."""
    def scenario(sim):
        grid = fig3_testbed(sim)
        hosts = grid.all_hosts()
        sim.run(until=start)

        def arm(index, k, fault):
            h = hosts[index]
            at = start + k * period
            if fault:
                sim.call_at(at, lambda: h.fail() if h.alive else h.recover())
            else:
                ScheduledLoad(host=h, at=at, nprocs=1,
                              until=at + period).install(sim)

        for index, k, fault, before in events:
            if before:
                arm(index, k, fault)
        nws = NetworkWeatherService(sim, grid, cpu_period=period,
                                    deploy_network_sensors=False)
        for index, k, fault, before in events:
            if not before:
                arm(index, k, fault)
        return nws, [], start + 25 * period

    assert_matches_oracle(scenario)


def test_metasched_stream_on_64_hosts_matches_oracle():
    kwargs = dict(users=6, arrival_rate=1 / 15.0, duration=900.0, seed=1,
                  max_jobs=25, n_hosts=64)
    mine = run_metasched(**kwargs).report()
    with reference_cpu_sensors():
        ref = run_metasched(**kwargs).report()
    mine_events = mine["counters"].pop("events_processed")
    ref_events = ref["counters"].pop("events_processed")
    assert mine == ref
    assert mine["summary"]["completed"] > 0
    assert mine_events < ref_events


def test_idle_service_adds_one_agenda_entry_per_sweep():
    sim = Simulator()
    grid = fig3_testbed(sim)
    assert len(grid.all_hosts()) == 12
    nws = NetworkWeatherService(sim, grid, cpu_period=10.0,
                                deploy_network_sensors=False)
    sim.run(until=1.0)
    assert len(sim._agenda) == 1
    before = sim.stats.events_processed
    sim.run(until=101.0)
    assert sim.stats.events_processed - before == 10
    assert len(sim._agenda) == 1
    assert all(len(nws.cpu_sensor(h.name).readings) == 10
               for h in grid.all_hosts())
