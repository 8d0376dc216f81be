"""Tests for host failure injection."""

import pytest

from repro.sim import Simulator
from repro.microgrid import (
    Architecture,
    Host,
    HostFailure,
    ScheduledFailure,
    fig3_testbed,
)


def make_host(sim, mflops=100.0):
    return Host(sim, "h0", Architecture(name="t", mflops=mflops))


class TestHostFailure:
    def test_fail_kills_running_tasks(self):
        sim = Simulator()
        host = make_host(sim)
        ev = host.compute(1000.0)
        caught = []

        def proc():
            try:
                yield ev
            except HostFailure as exc:
                caught.append((sim.now, exc.host_name))

        sim.process(proc())
        sim.call_after(2.0, host.fail)
        sim.run()
        assert caught == [(2.0, "h0")]
        assert not host.alive
        assert host.failures == 1

    def test_dead_host_rejects_new_work(self):
        sim = Simulator()
        host = make_host(sim)
        host.fail()
        caught = []

        def proc():
            try:
                yield host.compute(10.0)
            except HostFailure:
                caught.append(True)

        sim.process(proc())
        sim.run()
        assert caught == [True]

    def test_availability_zero_when_dead(self):
        sim = Simulator()
        host = make_host(sim)
        host.fail()
        assert host.availability() == 0.0

    def test_recover_restores_service(self):
        sim = Simulator()
        host = make_host(sim)
        host.fail()
        host.recover()
        assert host.alive
        ev = host.compute(100.0)
        sim.run()
        assert ev.value == pytest.approx(1.0)

    def test_double_fail_and_bad_recover_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        host.fail()
        with pytest.raises(ValueError):
            host.fail()
        host.recover()
        with pytest.raises(ValueError):
            host.recover()

    def test_work_done_before_failure_is_accounted(self):
        sim = Simulator()
        host = make_host(sim, mflops=100.0)
        ev = host.compute(1000.0)
        ev.defused = True  # nothing will consume the failure
        sim.call_after(3.0, host.fail)
        sim.run()
        assert host.mflop_done == pytest.approx(300.0)

    def test_failure_does_not_break_surviving_tasks_elsewhere(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        victim = grid.clusters["utk"][0]
        survivor = grid.clusters["utk"][1]
        doomed = victim.compute(1e6)
        doomed.defused = True
        ok = survivor.compute(373.2)
        sim.call_after(0.5, victim.fail)
        sim.run(until=10.0)
        assert ok.triggered and ok.ok
        assert doomed.triggered and not doomed.ok


class TestScheduledFailure:
    def test_fails_and_recovers_on_schedule(self):
        sim = Simulator()
        host = make_host(sim)
        ScheduledFailure(host=host, at=5.0, recover_at=15.0).install(sim)
        sim.run(until=10.0)
        assert not host.alive
        sim.run(until=20.0)
        assert host.alive

    def test_bad_window_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        with pytest.raises(ValueError):
            ScheduledFailure(host=host, at=5.0, recover_at=3.0).install(sim)


class TestFailureSourceInterleaving:
    def test_overlapping_scheduled_failures_tolerated(self):
        sim = Simulator()
        host = make_host(sim)
        ScheduledFailure(host=host, at=1.0, recover_at=10.0).install(sim)
        ScheduledFailure(host=host, at=2.0, recover_at=5.0).install(sim)
        sim.run(until=20.0)
        assert host.alive
        assert host.failures == 1
