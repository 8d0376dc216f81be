"""Tests for COPs and the distributed binder."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed, heterogeneous_testbed
from repro.gis import GridInformationService, SoftwarePackage, SoftwareRegistry
from repro.cop import CompilationPackage, ConfigurableObjectProgram
from repro.binder import BINDER_PACKAGE, BinderError, DistributedBinder


def build_env(grid_fn=fig3_testbed, packages=("scalapack",)):
    sim = Simulator()
    grid = grid_fn(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    software = SoftwareRegistry()
    names = [h.name for h in grid.all_hosts()]
    software.install_everywhere(SoftwarePackage(name=BINDER_PACKAGE), names)
    for pkg in packages:
        software.install_everywhere(SoftwarePackage(name=pkg), names)
    return sim, grid, gis, software


def simple_cop(required=("scalapack",)):
    return ConfigurableObjectProgram(
        name="demo",
        package=CompilationPackage(required_packages=tuple(required)),
    )


class TestBinder:
    def test_bind_succeeds_with_software_present(self):
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        cop = simple_cop()
        ev = binder.bind(cop, ["utk.n0", "utk.n1"])
        sim.run(stop_event=ev)
        report = ev.value
        assert report.seconds > 0
        assert set(report.per_host_seconds) == {"utk.n0", "utk.n1"}

    def test_bind_missing_library_fails_fast(self):
        sim, grid, gis, software = build_env(packages=())
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        with pytest.raises(BinderError, match="scalapack"):
            binder.bind(simple_cop(), ["utk.n0"])

    def test_bind_unknown_host_fails(self):
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        with pytest.raises(BinderError, match="not registered"):
            binder.bind(simple_cop(), ["mars.n0"])

    def test_bind_empty_schedule_fails(self):
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        with pytest.raises(BinderError):
            binder.bind(simple_cop(), [])

    def test_bind_slower_on_loaded_node(self):
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        ev = binder.bind(simple_cop(), ["utk.n1"])
        sim.run(stop_event=ev)
        unloaded = ev.value.per_host_seconds["utk.n1"]

        sim2, grid2, gis2, software2 = build_env()
        grid2.clusters["utk"][1].add_background_load(4)
        binder2 = DistributedBinder(sim2, grid2.topology, gis2, software2,
                                    package_source="utk.n0")
        ev2 = binder2.bind(simple_cop(), ["utk.n1"])
        sim2.run(stop_event=ev2)
        assert ev2.value.per_host_seconds["utk.n1"] > unloaded

    def test_bind_heterogeneous_targets(self):
        """The new binder's whole point: one bind spanning ISAs (§2)."""
        sim, grid, gis, software = build_env(
            grid_fn=heterogeneous_testbed)
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="ia32.n0")
        ev = binder.bind(simple_cop(), ["ia32.n0", "ia64.n0"])
        sim.run(stop_event=ev)
        assert set(ev.value.isas.values()) == {"ia32", "ia64"}

    def test_wan_bind_costs_more_than_lan(self):
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        lan = binder.bind(simple_cop(), ["utk.n1"])
        sim.run(stop_event=lan)
        lan_seconds = lan.value.seconds

        sim2, grid2, gis2, software2 = build_env()
        binder2 = DistributedBinder(sim2, grid2.topology, gis2, software2,
                                    package_source="utk.n0")
        wan = binder2.bind(simple_cop(), ["uiuc.n0"])
        sim2.run(stop_event=wan)
        assert wan.value.seconds > lan_seconds


class TestDeadHosts:
    def test_bind_refuses_dead_host(self):
        from repro.microgrid import HostFailure
        sim, grid, gis, software = build_env()
        grid.clusters["utk"][1].fail()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n0")
        ev = binder.bind(simple_cop(), ["utk.n0", "utk.n1"])
        ev.defused = True
        sim.run(until=10.0)
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, HostFailure)

    def test_sibling_local_binders_reaped_after_failure(self):
        """Two targets die mid-bind at different points in their local
        binds.  The first failure fails the bind; the second local
        binder must be reaped, not left to fail with no waiter (which
        would abort the whole simulation)."""
        sim, grid, gis, software = build_env()
        binder = DistributedBinder(sim, grid.topology, gis, software,
                                   package_source="utk.n3")
        ev = binder.bind(simple_cop(), ["utk.n0", "uiuc.n0"])
        ev.defused = True
        sim.call_after(0.1, grid.clusters["utk"][0].fail)
        sim.call_after(0.1, grid.clusters["uiuc"][0].fail)
        sim.run(until=5000.0)  # must not raise from an orphaned sibling
        assert ev.triggered and not ev.ok
