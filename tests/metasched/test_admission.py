"""Admission control against live GIS/NWS state."""

import pytest

from repro.gis.directory import GridInformationService
from repro.metasched.admission import AdmissionController
from repro.metasched.jobs import JobSpec
from repro.microgrid.testbed import fig3_testbed, heterogeneous_testbed
from repro.nws.service import NetworkWeatherService
from repro.sim.kernel import Simulator


def spec(n_hosts=2, isa=None, user="u0"):
    return JobSpec(name="j0", user=user, kind="qr", submit_time=0.0,
                   n_hosts=n_hosts, size=1000.0, isa=isa)


def build(testbed=fig3_testbed, **kwargs):
    sim = Simulator()
    grid = testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    return sim, grid, AdmissionController(gis, nws, **kwargs)


class TestUsableHosts:
    def test_fastest_first_then_name(self):
        _sim, _grid, adm = build()
        hosts = adm.usable_hosts(spec())
        assert len(hosts) == 12
        # UTK PIII-933 nodes outrank UIUC PII-450 nodes.
        assert hosts[:4] == ["utk.n0", "utk.n1", "utk.n2", "utk.n3"]
        assert hosts[4].startswith("uiuc.")

    def test_isa_filter(self):
        _sim, _grid, adm = build(testbed=heterogeneous_testbed)
        ia64 = adm.usable_hosts(spec(isa="ia64"))
        assert ia64 and all(h.startswith("ia64.") for h in ia64)

    def test_dead_host_dropped(self):
        _sim, grid, adm = build()
        grid.clusters["utk"][0].fail()
        hosts = adm.usable_hosts(spec())
        assert grid.clusters["utk"][0].name not in hosts
        assert len(hosts) == 11

    def test_unregistered_host_dropped(self):
        _sim, grid, adm = build()
        adm.gis.unregister("uiuc.n7")
        assert "uiuc.n7" not in adm.usable_hosts(spec())


class TestAdmit:
    def test_admits_reasonable_job(self):
        _sim, _grid, adm = build()
        admitted, reason = adm.admit(spec(), 0, 0)
        assert admitted and reason == ""

    def test_queue_full(self):
        _sim, _grid, adm = build(max_queue=3)
        assert adm.admit(spec(), 3, 0) == (False, "queue-full")
        assert adm.admit(spec(), 2, 0)[0]

    def test_user_quota(self):
        _sim, _grid, adm = build(max_per_user=2)
        assert adm.admit(spec(), 5, 2) == (False, "user-quota")
        assert adm.admit(spec(), 5, 1)[0]

    def test_insufficient_resources(self):
        _sim, _grid, adm = build()
        assert adm.admit(spec(n_hosts=13), 0, 0) == \
            (False, "insufficient-resources")

    def test_overloaded_resources(self):
        sim, grid, adm = build()
        for host in grid.all_hosts():
            # availability cores / (20 * cores + 1) is below MIN_FORECAST
            host.add_background_load(nprocs=host.cores * 20)
        sim.run(until=60.0)  # let CPU sensors observe the load
        admitted, reason = adm.admit(spec(n_hosts=12), 0, 0)
        assert (admitted, reason) == (False, "resources-overloaded")

    def test_constructor_validation(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        gis = GridInformationService()
        gis.register_grid(grid)
        nws = NetworkWeatherService(sim, grid,
                                    deploy_network_sensors=False)
        with pytest.raises(ValueError):
            AdmissionController(gis, nws, max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(gis, nws, max_per_user=0)
