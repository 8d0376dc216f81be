"""Tests for the GradsEnvironment assembly."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed, fig4_testbed
from repro.appmanager import DEFAULT_PACKAGES, GradsEnvironment
from repro.apps import QrBenchmark
from repro.binder import BINDER_PACKAGE
from repro.microgrid.dml import Grid


class TestEnvironmentAssembly:
    def test_all_services_wired(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid)
        assert len(env.gis) == len(grid.all_hosts())
        assert env.binder.package_source == env.submission_host
        assert env.nws.cpu_forecast("utk.n0") == pytest.approx(1.0)

    def test_default_submission_host_is_first(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid)
        assert env.submission_host == grid.all_hosts()[0].name

    def test_custom_submission_host(self):
        sim = Simulator()
        grid = fig4_testbed(sim)
        env = GradsEnvironment(sim, grid, submission_host="ucsd.n0")
        assert env.submission_host == "ucsd.n0"

    def test_empty_grid_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            GradsEnvironment(sim, Grid(sim))

    def test_default_software_preinstalled_everywhere(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid)
        for host in grid.all_hosts():
            for package in DEFAULT_PACKAGES:
                assert env.software.is_installed(package, host.name)
        assert BINDER_PACKAGE in DEFAULT_PACKAGES

    def test_custom_package_set(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid,
                               packages=(BINDER_PACKAGE, "custom-lib"))
        assert env.software.is_installed("custom-lib", "utk.n0")
        assert not env.software.is_installed("scalapack", "utk.n0")

    def test_managed_qr_returns_wired_triple(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid)
        run, monitor, rescheduler = env.managed_qr(
            QrBenchmark(n=1000),
            initial_hosts=["utk.n0", "utk.n1"])
        assert run.monitor is monitor
        assert monitor.rescheduler is not None
        assert rescheduler._apps == [run]

    def test_stable_storage_targets_submission_host(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid, submission_host="uiuc.n7")
        run, _m, _r = env.managed_qr(
            QrBenchmark(n=1000), initial_hosts=["utk.n0", "utk.n1"],
            stable_storage=True)
        assert run.srs.stable_host is not None
        assert run.srs.stable_host.name == "uiuc.n7"

    def test_without_stable_storage_checkpoints_local(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid)
        run, _m, _r = env.managed_qr(
            QrBenchmark(n=1000), initial_hosts=["utk.n0", "utk.n1"])
        assert run.srs.stable_host is None
