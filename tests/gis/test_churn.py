"""Directory churn: hosts leaving and joining while work is in flight.

Pins the stale-host guarantee of DESIGN.md §9.2: a host that is
unregistered from the GIS (or crashes) after jobs were admitted is
dropped from candidate sets at the next planning round, so no new
placement ever lands on it.
"""

from repro.gis.directory import GISError, GridInformationService
from repro.metasched import JobSpec, MetaScheduler
from repro.metasched.admission import AdmissionController
from repro.microgrid.cluster import Cluster
from repro.microgrid.dml import Grid
from repro.microgrid.testbed import ARCH_PII_450, fig3_testbed
from repro.nws.service import NetworkWeatherService
from repro.sim.kernel import Simulator

import pytest


def build():
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
    return sim, grid, gis, nws


def spec(name, n_hosts=2, submit=0.0, user="u0", size=4000.0):
    return JobSpec(name=name, user=user, kind="qr", submit_time=submit,
                   n_hosts=n_hosts, size=size)


class TestQueryChurn:
    def test_unregistered_host_vanishes_from_queries(self):
        _sim, _grid, gis, _nws = build()
        assert any(r.name == "uiuc.n3" for r in gis.resources())
        gis.unregister("uiuc.n3")
        assert not any(r.name == "uiuc.n3" for r in gis.resources())
        with pytest.raises(GISError):
            gis.lookup("uiuc.n3")

    def test_reregistration_restores_host(self):
        _sim, grid, gis, _nws = build()
        host = next(h for h in grid.all_hosts() if h.name == "uiuc.n3")
        gis.unregister("uiuc.n3")
        gis.register_host(host)
        assert any(r.name == "uiuc.n3" for r in gis.resources())

    def test_usable_hosts_follows_churn(self):
        sim, grid, gis, nws = build()
        adm = AdmissionController(gis, nws)
        job = spec("probe", n_hosts=2)
        assert "utk.n1" in adm.usable_hosts(job)
        gis.unregister("utk.n1")
        assert "utk.n1" not in adm.usable_hosts(job)
        # a crash (host stays registered but dead) is equally excluded
        next(h for h in grid.all_hosts() if h.name == "utk.n2").fail()
        assert "utk.n2" not in adm.usable_hosts(job)


class TestAdmissionChurn:
    def test_capacity_loss_rejects_next_submission(self):
        sim, _grid, gis, nws = build()
        adm = AdmissionController(gis, nws)
        wide = spec("wide", n_hosts=12)
        assert adm.admit(wide, 0, 0)[0]
        gis.unregister("uiuc.n0")
        assert adm.admit(wide, 0, 0) == (False, "insufficient-resources")


class TestServiceChurn:
    def _run_stream_with_churn(self, churn):
        """Serve a contended stream; ``churn(sim, grid, gis)`` schedules
        the directory mutation.  Returns (service, removed_hosts)."""
        sim, grid, gis, nws = build()
        service = MetaScheduler(sim, grid, gis, nws)
        removed = churn(sim, grid, gis)
        done = service.run_stream([
            spec("a", user="u0", n_hosts=4, submit=0.0, size=6000.0),
            spec("b", user="u1", n_hosts=4, submit=1.0, size=6000.0),
            spec("c", user="u2", n_hosts=4, submit=2.0, size=6000.0),
            spec("d", user="u3", n_hosts=4, submit=3.0, size=6000.0),
        ])
        sim.run(stop_event=done)
        return service, removed

    def test_no_placement_on_unregistered_host(self):
        def churn(sim, _grid, gis):
            # Pull four hosts out mid-stream, while jobs are queued and
            # reservations are outstanding.
            victims = ["uiuc.n4", "uiuc.n5", "uiuc.n6", "uiuc.n7"]
            sim.call_at(5.0, lambda: [gis.unregister(v) for v in victims])
            return victims

        service, removed = self._run_stream_with_churn(churn)
        assert service.audit_conflicts() == []
        for state in service.states():
            assert state.status == "completed"
            if state.started_at is not None and state.started_at >= 5.0:
                assert not set(state.hosts) & set(removed), (
                    f"{state.spec.name} was placed on a stale host")

    def test_no_placement_on_crashed_host(self):
        # Crash hosts that are idle (the first two jobs occupy utk.n0-3
        # and uiuc.n0-3), then submit more work: every post-crash
        # placement must avoid the dead nodes.
        sim, grid, gis, nws = build()
        service = MetaScheduler(sim, grid, gis, nws)
        victims = ["uiuc.n4", "uiuc.n5", "uiuc.n6", "uiuc.n7"]
        hosts = [h for h in grid.all_hosts() if h.name in victims]
        sim.call_at(5.0, lambda: [h.fail() for h in hosts])
        done = service.run_stream([
            spec("a", user="u0", n_hosts=4, submit=0.0, size=6000.0),
            spec("b", user="u1", n_hosts=4, submit=1.0, size=6000.0),
            spec("c", user="u2", n_hosts=4, submit=10.0, size=6000.0),
            spec("d", user="u3", n_hosts=4, submit=11.0, size=6000.0),
        ])
        sim.run(stop_event=done)
        assert service.audit_conflicts() == []
        for state in service.states():
            assert state.status == "completed"
            if state.started_at is not None and state.started_at >= 5.0:
                assert not set(state.hosts) & set(victims), (
                    f"{state.spec.name} was placed on a dead host")

    def test_registering_hosts_mid_stream_adds_capacity(self):
        sim, grid, gis, nws = build()
        service = MetaScheduler(sim, grid, gis, nws)

        def add_cluster():
            extra = Cluster(sim, grid.topology, "extra",
                            arch=ARCH_PII_450, n_hosts=4,
                            cores_per_host=1, link_bandwidth=125e6,
                            link_latency=1e-4, site="EXTRA")
            grid.add_cluster(extra)
            grid.topology.add_link(extra.switch,
                                   grid.clusters["utk"].switch,
                                   bandwidth=5e6, latency=0.011)
            for host in extra.hosts:
                gis.register_host(host)

        sim.call_at(5.0, add_cluster)
        done = service.run_stream([
            spec("a", n_hosts=12, submit=0.0, size=6000.0),
            spec("wide", n_hosts=14, submit=10.0, size=4000.0, user="u1"),
        ])
        sim.run(stop_event=done)
        wide = service.jobs["wide"]
        # 14 hosts only exist because the extra cluster registered.
        assert wide.status == "completed"
        assert any(h.startswith("extra.") for h in wide.hosts)
        assert service.audit_conflicts() == []
