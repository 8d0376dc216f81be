"""Tests for the Grid Information Service and software registry."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed, heterogeneous_testbed
from repro.gis import (
    GISError,
    GridInformationService,
    ResourceRecord,
    SoftwareNotFound,
    SoftwarePackage,
    SoftwareRegistry,
)


@pytest.fixture
def gis():
    sim = Simulator()
    grid = fig3_testbed(sim)
    service = GridInformationService()
    service.register_grid(grid)
    return service


class TestDirectory:
    def test_register_grid_registers_all_hosts(self, gis):
        assert len(gis) == 12

    def test_lookup_returns_record(self, gis):
        record = gis.lookup("utk.n0")
        assert record.cluster == "utk"
        assert record.site == "UTK"
        assert record.cores == 2
        assert record.isa == "ia32"

    def test_lookup_unknown_raises(self, gis):
        with pytest.raises(GISError):
            gis.lookup("nowhere.n9")

    def test_host_resolves_live_object(self, gis):
        host = gis.host("uiuc.n3")
        assert host.name == "uiuc.n3"
        assert host.cores == 1

    def test_query_by_isa(self):
        sim = Simulator()
        grid = heterogeneous_testbed(sim)
        gis = GridInformationService()
        gis.register_grid(grid)
        assert len(gis.fastest_first(isa="ia64")) == 4
        assert len(gis.fastest_first(isa="ia32")) == 8

    def test_resources_sorted_and_stable(self, gis):
        names = [r.name for r in gis.resources()]
        assert names == sorted(names)

    def test_unregister(self, gis):
        gis.unregister("utk.n0")
        assert "utk.n0" not in gis
        with pytest.raises(GISError):
            gis.unregister("utk.n0")

    def test_record_from_standalone_host(self):
        from repro.microgrid import fig4_testbed
        sim = Simulator()
        grid = fig4_testbed(sim)
        record = ResourceRecord.from_host(grid.standalone_hosts["ucsd.n0"])
        assert record.cluster is None
        assert record.site == "ucsd.n0"


class TestSoftwareRegistry:
    def test_locate_after_install(self):
        reg = SoftwareRegistry()
        pkg = SoftwarePackage(name="scalapack", version="1.7")
        reg.install(pkg, "utk.n0")
        assert "scalapack-1.7" in reg.locate("scalapack", "utk.n0")

    def test_locate_missing_raises(self):
        reg = SoftwareRegistry()
        with pytest.raises(SoftwareNotFound):
            reg.locate("scalapack", "utk.n0")

    def test_install_everywhere(self):
        reg = SoftwareRegistry()
        reg.install_everywhere(SoftwarePackage(name="binder"),
                               ["a", "b", "c"])
        for host in ("a", "b", "c"):
            assert reg.is_installed("binder", host)

    def test_missing_reports_gaps(self):
        reg = SoftwareRegistry()
        reg.install(SoftwarePackage(name="mpi"), "a")
        assert reg.missing(["mpi", "eman"], "a") == ["eman"]
        assert reg.missing(["mpi"], "a") == []

    def test_custom_path(self):
        reg = SoftwareRegistry()
        reg.install(SoftwarePackage(name="eman"), "h", path="/opt/eman")
        assert reg.locate("eman", "h") == "/opt/eman"
