"""Tests for the SRS checkpoint library and the RSS daemon."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed
from repro.mpi import MpiJob
from repro.rescheduling import (
    RegisteredData,
    RuntimeSupportSystem,
    SRSLibrary,
)


def env():
    sim = Simulator()
    grid = fig3_testbed(sim)
    rss = RuntimeSupportSystem(sim, home_host="utk.n0")
    srs = SRSLibrary(sim, grid.topology, rss)
    return sim, grid, rss, srs


def checkpointing_body(srs, dataset, n_iters, n_procs, mflop=50.0,
                       outcomes=None):
    """An SRS-instrumented iterative rank body."""
    def body(ctx):
        progress = yield from srs.restore(ctx, dataset, n_procs)
        start = (progress or 0)
        for step in range(start, n_iters):
            yield ctx.compute(mflop)
            if srs.should_stop():
                yield from srs.checkpoint(ctx, dataset, step + 1, n_procs)
                if outcomes is not None:
                    outcomes.append(("stopped", ctx.rank, step + 1))
                return "stopped"
        if outcomes is not None:
            outcomes.append(("done", ctx.rank, n_iters))
        return "done"
    return body


class TestRss:
    def test_stop_flag_roundtrip(self):
        sim, grid, rss, srs = env()
        assert not rss.stop_requested
        rss.request_stop()
        assert rss.stop_requested
        assert rss.stop_requests == [0.0]
        rss.clear_stop()
        assert not rss.stop_requested

    def test_checkpoint_metadata(self):
        sim, grid, rss, srs = env()
        assert rss.checkpoint("A") is None
        assert rss._checkpoints == {}


class TestSrs:
    def test_registration_required(self):
        sim, grid, rss, srs = env()
        with pytest.raises(KeyError):
            srs.registered("ghost")

    def test_registered_data_validation(self):
        with pytest.raises(ValueError):
            RegisteredData(name="A", total_bytes=-1.0, block_bytes=1.0)
        with pytest.raises(ValueError):
            RegisteredData(name="A", total_bytes=1.0, block_bytes=0.0)

    def test_fresh_start_restore_returns_none(self):
        sim, grid, rss, srs = env()
        srs.register_data(RegisteredData("A", total_bytes=8e6,
                                         block_bytes=1e5))
        hosts = grid.clusters["utk"].hosts
        job = MpiJob(sim, grid.topology, hosts, name="qr")
        outcomes = []
        done = job.launch(checkpointing_body(srs, "A", 3, len(hosts),
                                             outcomes=outcomes))
        sim.run(stop_event=done)
        assert all(o[0] == "done" for o in outcomes)

    def test_stop_checkpoints_all_ranks(self):
        sim, grid, rss, srs = env()
        srs.register_data(RegisteredData("A", total_bytes=8e6,
                                         block_bytes=1e5))
        hosts = grid.clusters["utk"].hosts  # 4 hosts
        job = MpiJob(sim, grid.topology, hosts, name="qr")
        outcomes = []
        done = job.launch(checkpointing_body(srs, "A", 100, len(hosts),
                                             outcomes=outcomes))
        sim.call_after(0.5, rss.request_stop)
        sim.run(stop_event=done)
        assert all(o[0] == "stopped" for o in outcomes)
        record = rss.checkpoint("A")
        assert record is not None
        assert record.n_procs == 4
        assert len(record.locations) == 4
        total = sum(loc.nbytes for loc in record.locations.values())
        assert total == pytest.approx(8e6)
        # checkpoints are on the ranks' local disks
        for rank, loc in record.locations.items():
            assert loc.depot_host == hosts[rank].name

    def test_restart_resumes_from_progress_on_more_procs(self):
        """The full stop -> restart N-to-M cycle."""
        sim, grid, rss, srs = env()
        srs.register_data(RegisteredData("A", total_bytes=8e6,
                                         block_bytes=1e5))
        utk = grid.clusters["utk"].hosts  # 4
        uiuc = grid.clusters["uiuc"].hosts  # 8
        job1 = MpiJob(sim, grid.topology, utk, name="qr1")
        done1 = job1.launch(checkpointing_body(srs, "A", 50, len(utk)))
        sim.call_after(1.0, rss.request_stop)
        sim.run(stop_event=done1)
        stopped_at = rss.checkpoint("A").progress
        assert 0 < stopped_at < 50

        rss.clear_stop()
        outcomes = []
        job2 = MpiJob(sim, grid.topology, uiuc, name="qr2")
        done2 = job2.launch(checkpointing_body(srs, "A", 50, len(uiuc),
                                               outcomes=outcomes))
        sim.run(stop_event=done2)
        assert all(o[0] == "done" for o in outcomes)
        assert len(outcomes) == 8

    def test_restart_pays_wan_read_cost(self):
        """Restoring UTK checkpoints onto UIUC crosses the Internet;
        restoring onto the same UTK nodes stays local and is cheap."""
        data_bytes = 50e6

        def run_cycle(restart_cluster):
            sim, grid, rss, srs = env()
            srs.register_data(RegisteredData("A", total_bytes=data_bytes,
                                             block_bytes=1e5))
            utk = grid.clusters["utk"].hosts
            job1 = MpiJob(sim, grid.topology, utk, name="one")
            done1 = job1.launch(checkpointing_body(srs, "A", 500, len(utk)))
            sim.call_after(0.5, rss.request_stop)
            sim.run(stop_event=done1)
            rss.clear_stop()
            hosts2 = grid.clusters[restart_cluster].hosts
            restore_start = sim.now
            job2 = MpiJob(sim, grid.topology, hosts2, name="two")

            def restore_only(ctx):
                yield from srs.restore(ctx, "A", len(hosts2))

            done2 = job2.launch(restore_only)
            sim.run(stop_event=done2)
            return sim.now - restore_start

        local = run_cycle("utk")
        remote = run_cycle("uiuc")
        assert remote > local * 3
        assert remote >= data_bytes / 5e6 * 0.5  # WAN-dominated

    def test_checkpoint_overwrite_same_key(self):
        """Re-checkpointing at a new progress replaces the old data."""
        sim, grid, rss, srs = env()
        srs.register_data(RegisteredData("A", total_bytes=4e6,
                                         block_bytes=1e5))
        hosts = grid.clusters["utk"].hosts
        job = MpiJob(sim, grid.topology, hosts, name="qr")

        def body(ctx):
            for progress in (1, 2):
                yield ctx.compute(10.0)
                yield from srs.checkpoint(ctx, "A", progress, len(hosts))

        done = job.launch(body)
        sim.run(stop_event=done)
        assert rss.checkpoint("A").progress == 2

    def test_depot_reuse_per_host(self):
        sim, grid, rss, srs = env()
        host = grid.clusters["utk"][0]
        d1 = srs.depot_on(host)
        d2 = srs.depot_on(host)
        assert d1 is d2
