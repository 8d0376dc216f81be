"""Scheduled load racing host crashes.

``Host.fail()`` drops every task, including injected background load —
the injector's recorded handles go stale.  Before the fix a removal
armed for after the crash raised ``ValueError("unknown background load
handle")`` out of a kernel callback and aborted the entire simulation;
the soak harness's fault x burst lanes hit this immediately.
"""

from repro.microgrid.failures import ScheduledFailure
from repro.microgrid.host import Architecture, Host
from repro.microgrid.loadgen import ScheduledLoad
from repro.sim.kernel import Simulator

_ARCH = Architecture(name="test", mflops=100.0)


def _host(sim, name="h.n0"):
    return Host(sim, name, _ARCH)


class TestScheduledLoadVsCrash:
    def test_crash_between_inject_and_remove_does_not_abort(self):
        sim = Simulator()
        host = _host(sim)
        ScheduledLoad(host=host, at=10.0, nprocs=2, until=50.0).install(sim)
        ScheduledFailure(host=host, at=20.0, recover_at=30.0).install(sim)
        sim.run(until=100.0)  # pre-fix: ValueError out of the callback
        assert host.alive
        assert host.background_load() == 0

    def test_injection_on_a_dead_host_is_skipped(self):
        sim = Simulator()
        host = _host(sim)
        ScheduledFailure(host=host, at=5.0, recover_at=20.0).install(sim)
        ScheduledLoad(host=host, at=10.0, nprocs=3, until=50.0).install(sim)
        sim.run(until=15.0)
        assert host.background_load() == 0  # nothing lands on a corpse
        sim.run(until=100.0)
        assert host.background_load() == 0

    def test_crash_then_recover_then_new_injection_still_removes(self):
        sim = Simulator()
        host = _host(sim)
        ScheduledFailure(host=host, at=5.0, recover_at=8.0).install(sim)
        ScheduledLoad(host=host, at=10.0, nprocs=2, until=20.0).install(sim)
        sim.run(until=15.0)
        assert host.background_load() == 2
        sim.run(until=100.0)
        assert host.background_load() == 0

    def test_undisturbed_path_unchanged(self):
        sim = Simulator()
        host = _host(sim)
        ScheduledLoad(host=host, at=10.0, nprocs=2, until=50.0).install(sim)
        sim.run(until=20.0)
        assert host.background_load() == 2
        sim.run(until=60.0)
        assert host.background_load() == 0
