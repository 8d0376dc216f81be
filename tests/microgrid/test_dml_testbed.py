"""Tests for the DML parser, testbed builders and scheduled load."""

import pytest

from repro.sim import RngRegistry, Simulator
from repro.microgrid import (
    DMLError,
    ScheduledLoad,
    fig3_testbed,
    fig4_testbed,
    grads_macrogrid,
    heterogeneous_testbed,
    parse_grid,
    parse_quantity,
)


DML = """
# the fig3-style testbed, written in DML
arch pIII-933 mflops=373 isa=ia32 cache=256KB
arch pII-450  mflops=180 isa=ia32 cache=512KB
cluster utk  arch=pIII-933 hosts=4 cores=2 nic=100Mb  lat=0.1ms
cluster uiuc arch=pII-450  hosts=8 cores=1 nic=1.28Gb lat=0.05ms
host ucsd.n0 arch=pIII-933 nic=100Mb lat=0.1ms
link utk uiuc bw=40Mb lat=11ms
link ucsd.n0 utk bw=40Mb lat=30ms
"""


class TestParseQuantity:
    def test_bit_bandwidths(self):
        assert parse_quantity("100Mb", "bandwidth") == pytest.approx(12.5e6)
        assert parse_quantity("1.28Gb", "bandwidth") == pytest.approx(160e6)

    def test_byte_bandwidths(self):
        assert parse_quantity("5MB", "bandwidth") == pytest.approx(5e6)

    def test_times(self):
        assert parse_quantity("11ms", "time") == pytest.approx(0.011)
        assert parse_quantity("30us", "time") == pytest.approx(30e-6)
        assert parse_quantity("2s", "time") == pytest.approx(2.0)

    def test_sizes(self):
        assert parse_quantity("512KB", "size") == 512 * 1024
        assert parse_quantity("1GB", "size") == 1024 ** 3

    def test_bare_number_passes_through(self):
        assert parse_quantity("123.5", "time") == pytest.approx(123.5)

    def test_bad_unit_rejected(self):
        with pytest.raises(DMLError):
            parse_quantity("10parsecs", "time")

    def test_bad_number_rejected(self):
        with pytest.raises(DMLError):
            parse_quantity("fast", "bandwidth")


class TestParseGrid:
    def test_full_grid_builds(self):
        sim = Simulator()
        grid = parse_grid(DML, sim)
        assert set(grid.clusters) == {"utk", "uiuc"}
        assert len(grid.clusters["utk"]) == 4
        assert grid.clusters["utk"][0].cores == 2
        assert len(grid.clusters["uiuc"]) == 8
        assert "ucsd.n0" in grid.standalone_hosts
        assert len(grid.all_hosts()) == 13

    def test_cross_cluster_route_exists(self):
        sim = Simulator()
        grid = parse_grid(DML, sim)
        lat = grid.topology.path_latency("utk.n0", "uiuc.n3")
        assert lat == pytest.approx(0.011 + 0.0001 + 0.00005)

    def test_transfer_over_parsed_grid(self):
        sim = Simulator()
        grid = parse_grid(DML, sim)
        ev = grid.topology.transfer("utk.n0", "uiuc.n0", 5e6)
        sim.run()
        # bottleneck is the 40 Mb (5 MB/s) WAN link
        assert ev.value == pytest.approx(1.0 + 0.01115, rel=1e-3)

    def test_unknown_arch_rejected(self):
        sim = Simulator()
        with pytest.raises(DMLError, match="unknown arch"):
            parse_grid("cluster c arch=ghost hosts=2", sim)

    def test_unknown_directive_rejected(self):
        sim = Simulator()
        with pytest.raises(DMLError, match="line 1"):
            parse_grid("frobnicate x y", sim)

    def test_link_to_unknown_endpoint_rejected(self):
        sim = Simulator()
        with pytest.raises(DMLError, match="endpoint"):
            parse_grid("arch a mflops=1\ncluster c arch=a hosts=1\n"
                       "link c ghost bw=1Mb lat=1ms", sim)

    def test_missing_required_key_rejected(self):
        sim = Simulator()
        with pytest.raises(DMLError):
            parse_grid("arch a mflops=1\ncluster c arch=a", sim)

    def test_comments_and_blanks_ignored(self):
        sim = Simulator()
        grid = parse_grid("\n# nothing here\n   \n", sim)
        assert grid.all_hosts() == []


class TestTestbeds:
    def test_fig3_testbed_shape(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        assert len(grid.clusters["utk"]) == 4
        assert len(grid.clusters["uiuc"]) == 8
        # UTK nodes are dual-processor PIIIs; UIUC single PIIs.
        assert grid.clusters["utk"][0].cores == 2
        assert grid.clusters["uiuc"][0].cores == 1
        # UTK is the faster cluster per node.
        assert grid.clusters["utk"].arch.mflops > grid.clusters["uiuc"].arch.mflops

    def test_fig3_internet_is_bottleneck(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        bw = grid.topology.path_bottleneck_bw("utk.n0", "uiuc.n0")
        assert bw < 12.5e6  # slower than the 100Mb LAN

    def test_fig4_testbed_shape(self):
        sim = Simulator()
        grid = fig4_testbed(sim)
        assert len(grid.clusters["utk"]) == 3
        assert len(grid.clusters["uiuc"]) == 3
        assert "ucsd.n0" in grid.standalone_hosts
        # 30 ms UCSD latency, 11 ms UTK<->UIUC (plus tiny LAN hops).
        assert grid.topology.path_latency("ucsd.n0", "utk.n0") == pytest.approx(
            0.030, abs=0.001)
        assert grid.topology.path_latency("utk.n0", "uiuc.n0") == pytest.approx(
            0.011, abs=0.001)

    def test_macrogrid_scale(self):
        sim = Simulator()
        grid = grads_macrogrid(sim)
        assert len(grid.all_hosts()) == 10 + 12 + 12 + 12 + 12 + 24
        # every pair of sites is routable
        lat = grid.topology.path_latency("ucsd.n0", "uh.n0")
        assert lat > 0

    def test_heterogeneous_testbed_mixes_isas(self):
        sim = Simulator()
        grid = heterogeneous_testbed(sim)
        isas = {c.arch.isa for c in grid.clusters.values()}
        assert isas == {"ia32", "ia64"}


class TestLoadGenerators:
    def test_scheduled_load_injects_at_time(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]
        ScheduledLoad(host=host, at=10.0, nprocs=2).install(sim)
        assert host.background_load() == 0
        sim.run(until=11.0)
        assert host.background_load() == 2

    def test_scheduled_load_removes_at_until(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        host = grid.clusters["utk"][0]
        ScheduledLoad(host=host, at=5.0, nprocs=1, until=20.0).install(sim)
        sim.run(until=10.0)
        assert host.background_load() == 1
        sim.run(until=25.0)
        assert host.background_load() == 0

    def test_scheduled_load_bad_window_rejected(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        with pytest.raises(ValueError):
            ScheduledLoad(host=grid.clusters["utk"][0], at=10.0,
                          until=5.0).install(sim)


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(seed=42).stream("nws").random(5)
        b = RngRegistry(seed=42).stream("nws").random(5)
        assert list(a) == list(b)

    def test_streams_are_independent_of_creation_order(self):
        reg1 = RngRegistry(seed=42)
        reg1.stream("a")
        x = reg1.stream("b").random(3)
        reg2 = RngRegistry(seed=42)
        y = reg2.stream("b").random(3)
        assert list(x) == list(y)

    def test_different_names_differ(self):
        reg = RngRegistry(seed=42)
        assert list(reg.stream("a").random(3)) != list(reg.stream("b").random(3))
