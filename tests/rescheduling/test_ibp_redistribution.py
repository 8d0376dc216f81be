"""Tests for IBP depots and block-cyclic redistribution math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.microgrid import fig3_testbed
from repro.ibp import Depot, DepotError
from repro.rescheduling import partition_bytes, restore_plan


def depot_env():
    sim = Simulator()
    grid = fig3_testbed(sim)
    host = grid.clusters["utk"][0]
    depot = Depot(sim, grid.topology, host)
    return sim, grid, host, depot


class TestDepot:
    def test_local_write_uses_disk_bandwidth(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "ckpt", 30e6)  # 1 s at 30 MB/s disk
        sim.run(stop_event=ev)
        assert ev.value == pytest.approx(1.0, rel=1e-3)
        assert depot.has("ckpt")
        assert depot.used_bytes == pytest.approx(30e6)

    def test_local_read(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "ckpt", 30e6)
        sim.run(stop_event=ev)
        rd = depot.read(host.name, "ckpt")
        sim.run(stop_event=rd)
        assert rd.value == pytest.approx(1.0, rel=1e-3)

    def test_remote_read_crosses_network(self):
        """Reading a UTK checkpoint from UIUC pays the 5 MB/s WAN."""
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "ckpt", 50e6)
        sim.run(stop_event=ev)
        rd = depot.read("uiuc.n0", "ckpt")
        sim.run(stop_event=rd)
        assert rd.value >= 10.0  # 50 MB / 5 MB/s

    def test_remote_write_pays_network(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write("uiuc.n0", "up", 10e6)
        sim.run(stop_event=ev)
        assert ev.value >= 2.0  # 10 MB over the 5 MB/s WAN

    def test_partial_read_scales(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "ckpt", 50e6)
        sim.run(stop_event=ev)
        rd = depot.read_partial("uiuc.n0", "ckpt", 5e6)
        sim.run(stop_event=rd)
        assert 1.0 <= rd.value <= 2.0  # ~1 s at 5 MB/s

    def test_partial_read_too_large_rejected(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "ckpt", 1e6)
        sim.run(stop_event=ev)
        with pytest.raises(DepotError):
            depot.read_partial(host.name, "ckpt", 2e6)

    def test_missing_allocation_raises(self):
        sim, grid, host, depot = depot_env()
        with pytest.raises(DepotError):
            depot.read(host.name, "ghost")
        with pytest.raises(DepotError):
            depot.delete("ghost")

    def test_capacity_enforced(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        depot = Depot(sim, grid.topology, grid.clusters["utk"][0],
                      capacity_bytes=1e6)
        with pytest.raises(DepotError):
            depot.write("utk.n0", "big", 2e6)

    def test_delete_frees_space(self):
        sim, grid, host, depot = depot_env()
        ev = depot.write(host.name, "a", 1e6)
        sim.run(stop_event=ev)
        depot.delete("a")
        assert not depot.has("a")
        assert depot.used_bytes == 0


class TestRedistribution:
    def test_same_width_no_movement(self):
        # each new rank reads back exactly its own old partition
        for rank in range(4):
            assert restore_plan(1e6, 1e3, 4, 4, rank) == {
                rank: partition_bytes(1e6, 1e3, rank, 4)}

    def test_4_to_8_plan(self):
        # blocks 0..7: new rank k owns block k, which old rank k%4 wrote
        plans = [restore_plan(8e3, 1e3, 4, 8, rank) for rank in range(8)]
        assert plans == [{rank % 4: 1e3} for rank in range(8)]

    def test_partition_bytes_sums_to_total(self):
        total = 10_500.0
        parts = [partition_bytes(total, 1e3, r, 4) for r in range(4)]
        assert sum(parts) == pytest.approx(total)

    def test_partial_last_block(self):
        # 2.5 blocks over 2 procs: rank0 gets blocks 0 and 2(partial)
        assert partition_bytes(2500.0, 1000.0, 0, 2) == pytest.approx(1500.0)
        assert partition_bytes(2500.0, 1000.0, 1, 2) == pytest.approx(1000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_bytes(1e3, 0.0, 0, 2)
        with pytest.raises(ValueError):
            partition_bytes(-1.0, 1e2, 0, 2)
        with pytest.raises(ValueError):
            partition_bytes(1e3, 1e2, 5, 4)

    def test_restore_plan_covers_new_partition(self):
        total, block = 16e3, 1e3
        for q_rank in range(8):
            need = restore_plan(total, block, 4, 8, q_rank)
            assert sum(need.values()) == pytest.approx(
                partition_bytes(total, block, q_rank, 8))

    def test_restore_plan_validation(self):
        with pytest.raises(ValueError):
            restore_plan(1e3, 1e2, 0, 2, 0)
        with pytest.raises(ValueError):
            restore_plan(1e3, 1e2, 2, 2, 5)


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=12),
    n_blocks=st.integers(min_value=1, max_value=64),
)
def test_property_redistribution_conserves_data(p, q, n_blocks):
    """Every byte of the dataset lands on exactly one new rank."""
    block = 1000.0
    total = n_blocks * block
    covered = 0.0
    for q_rank in range(q):
        need = restore_plan(total, block, p, q, q_rank)
        covered += sum(need.values())
        # sources are valid old ranks
        assert all(0 <= src < p for src in need)
    assert covered == pytest.approx(total)


@settings(max_examples=30, deadline=None)
@given(
    n_procs=st.integers(min_value=1, max_value=16),
    n_blocks=st.integers(min_value=1, max_value=100),
)
def test_property_partitions_tile_dataset(n_procs, n_blocks):
    block = 512.0
    total = n_blocks * block - 100.0  # ragged last block
    parts = [partition_bytes(total, block, r, n_procs)
             for r in range(n_procs)]
    assert sum(parts) == pytest.approx(total)
    assert all(part >= 0 for part in parts)
