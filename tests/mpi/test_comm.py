"""Tests for the simulated MPI layer."""

import pytest

from repro.sim import Simulator
from repro.microgrid import Architecture, Host, Topology
from repro.mpi import ANY_SOURCE, MpiError, MpiJob


def make_job(n=4, bw=1e7, lat=0.001, mflops=100.0):
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=mflops)
    hosts = []
    topo.add_node("sw")
    for i in range(n):
        host = Host(sim, f"h{i}", arch)
        topo.attach_host(host)
        topo.add_link(host.name, "sw", bandwidth=bw, latency=lat / 2)
        hosts.append(host)
    job = MpiJob(sim, topo, hosts, name="test")
    return sim, job


class TestPointToPoint:
    def test_send_recv_delivers_payload(self):
        sim, job = make_job(2)
        got = []

        def body(ctx):
            if ctx.rank == 0:
                yield ctx.send(dst=1, nbytes=1000, payload={"x": 1})
            else:
                msg = yield ctx.recv(src=0)
                got.append(msg.payload)

        job.launch(body)
        sim.run()
        assert got == [{"x": 1}]

    def test_recv_before_send_blocks_until_delivery(self):
        sim, job = make_job(2, bw=1e6, lat=0.0)
        arrival = []

        def body(ctx):
            if ctx.rank == 1:
                msg = yield ctx.recv(src=0)
                arrival.append(ctx.sim.now)
            else:
                yield ctx.sim.timeout(1.0)
                yield ctx.send(dst=1, nbytes=1e6)

        job.launch(body)
        sim.run()
        # send at t=1, transfer takes 1 s at 1 MB/s
        assert arrival[0] == pytest.approx(2.0, rel=1e-3)

    def test_message_order_preserved_per_pair(self):
        sim, job = make_job(2)
        received = []

        def body(ctx):
            if ctx.rank == 0:
                yield ctx.send(dst=1, nbytes=100, payload="first")
                yield ctx.send(dst=1, nbytes=100, payload="second")
            else:
                m1 = yield ctx.recv(src=0)
                m2 = yield ctx.recv(src=0)
                received.extend([m1.payload, m2.payload])

        job.launch(body)
        sim.run()
        assert received == ["first", "second"]

    def test_tag_matching_skips_nonmatching(self):
        sim, job = make_job(2)
        got = []

        def body(ctx):
            if ctx.rank == 0:
                yield ctx.send(dst=1, nbytes=10, tag=7, payload="seven")
                yield ctx.send(dst=1, nbytes=10, tag=9, payload="nine")
            else:
                msg = yield ctx.recv(src=0, tag=9)
                got.append(msg.payload)
                msg = yield ctx.recv(src=0, tag=7)
                got.append(msg.payload)

        job.launch(body)
        sim.run()
        assert got == ["nine", "seven"]

    def test_any_source_matches(self):
        sim, job = make_job(3)
        got = []

        def body(ctx):
            if ctx.rank == 2:
                for _ in range(2):
                    msg = yield ctx.recv(src=ANY_SOURCE)
                    got.append(msg.src)
            else:
                yield ctx.sim.timeout(0.1 * (ctx.rank + 1))
                yield ctx.send(dst=2, nbytes=10)

        job.launch(body)
        sim.run()
        assert sorted(got) == [0, 1]

    def test_validation(self):
        sim, job = make_job(2)
        with pytest.raises(MpiError, match="rank 5 out of range"):
            job.world.send(0, 5, 100)
        with pytest.raises(MpiError, match="rank -1 out of range"):
            job.world.send(-1, 0, 100)
        with pytest.raises(MpiError, match="rank 2 out of range"):
            job.world.send(2, 7, 100)
        with pytest.raises(MpiError):
            job.world.send(0, 1, -1)
        with pytest.raises(MpiError):
            job.world.send(0, 1, 10, tag=-3)
        with pytest.raises(MpiError):
            job.rank_host(9)

    def test_empty_host_list_rejected(self):
        sim = Simulator()
        topo = Topology(sim)
        with pytest.raises(MpiError):
            MpiJob(sim, topo, [])

    def test_double_launch_rejected(self):
        sim, job = make_job(2)

        def body(ctx):
            yield ctx.sim.timeout(0.0)

        job.launch(body)
        with pytest.raises(MpiError):
            job.launch(body)


class TestCompute:
    def test_compute_runs_on_mapped_host(self):
        sim, job = make_job(2, mflops=100.0)
        times = {}

        def body(ctx):
            yield ctx.compute(100.0 * (ctx.rank + 1))
            times[ctx.rank] = ctx.sim.now

        job.launch(body)
        sim.run()
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(2.0)


class TestCollectives:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
    def test_barrier_synchronizes(self, size):
        sim, job = make_job(size)
        releases = []

        def body(ctx):
            # stagger arrivals; all must leave at (or after) the latest
            yield ctx.sim.timeout(float(ctx.rank))
            yield from ctx.comm.barrier(ctx.rank)
            releases.append(ctx.sim.now)

        job.launch(body)
        sim.run()
        latest_arrival = size - 1
        assert all(t >= latest_arrival for t in releases)

    @pytest.mark.parametrize("size,root", [(2, 0), (4, 0), (5, 2), (8, 7)])
    def test_bcast_delivers_to_all(self, size, root):
        sim, job = make_job(size)
        got = {}

        def body(ctx):
            payload = "data" if ctx.rank == root else None
            value = yield from ctx.comm.bcast(ctx.rank, root, nbytes=1e4,
                                              payload=payload)
            got[ctx.rank] = value

        job.launch(body)
        sim.run()
        assert got == {r: "data" for r in range(size)}

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_allgather_everyone_has_everything(self, size):
        sim, job = make_job(size)
        got = {}

        def body(ctx):
            values = yield from ctx.comm.allgather(ctx.rank, nbytes=100,
                                                   payload=ctx.rank ** 2)
            got[ctx.rank] = values

        job.launch(body)
        sim.run()
        expected = [r ** 2 for r in range(size)]
        assert all(got[r] == expected for r in range(size))

    def test_allreduce_sums(self):
        sim, job = make_job(4)
        got = {}

        def body(ctx):
            total = yield from ctx.comm.allreduce(ctx.rank, nbytes=8,
                                                  value=float(ctx.rank + 1))
            got[ctx.rank] = total

        job.launch(body)
        sim.run()
        assert all(v == pytest.approx(10.0) for v in got.values())

    def test_sequential_collectives_dont_cross_talk(self):
        sim, job = make_job(3)
        got = {}

        def body(ctx):
            a = yield from ctx.comm.bcast(ctx.rank, 0, nbytes=10,
                                          payload="A" if ctx.rank == 0 else None)
            b = yield from ctx.comm.bcast(ctx.rank, 1, nbytes=10,
                                          payload="B" if ctx.rank == 1 else None)
            got[ctx.rank] = (a, b)

        job.launch(body)
        sim.run()
        assert all(v == ("A", "B") for v in got.values())

    def test_job_finished_event(self):
        sim, job = make_job(3)

        def body(ctx):
            yield ctx.compute(100.0)

        finished = job.launch(body)
        sim.run()
        assert finished.triggered and finished.ok

    def test_iteration_reporting(self):
        sim, job = make_job(2)
        reports = []
        job.on_iteration(lambda r, i, s: reports.append((r, i, s)))

        def body(ctx):
            for it in range(3):
                start = ctx.sim.now
                yield ctx.compute(10.0)
                ctx.report_iteration(it, ctx.sim.now - start)

        job.launch(body)
        sim.run()
        assert len(reports) == 6


class TestDeathWatch:
    """Ranks must die with their host even when blocked on
    communication rather than compute (the mid-checkpoint hang)."""

    def test_rank_blocked_on_recv_dies_with_host(self):
        from repro.microgrid import HostFailure
        sim, job = make_job(2)
        died = []

        def body(ctx):
            if ctx.rank == 1:
                try:
                    yield ctx.recv(src=0)  # nothing is ever sent
                except HostFailure as exc:
                    died.append((ctx.sim.now, exc.host_name))
            else:
                yield ctx.sim.timeout(10.0)

        job.launch(body)
        victim = job._rank_hosts[1]
        sim.call_after(2.0, victim.fail)
        sim.run()
        assert died == [(2.0, "h1")]

    def test_rank_blocked_on_transfer_dies_with_host(self):
        from repro.microgrid import HostFailure
        sim, job = make_job(2, bw=1e3)  # 1e6 bytes take ~1000 s
        died = []

        def body(ctx):
            if ctx.rank == 0:
                try:
                    yield ctx.send(dst=1, nbytes=1e6)
                except HostFailure:
                    died.append(ctx.sim.now)
            else:
                yield ctx.sim.timeout(1.0)

        job.launch(body)
        victim = job._rank_hosts[0]
        sim.call_after(5.0, victim.fail)
        sim.run(until=2000.0)
        assert died == [5.0]

    def test_rank_blocked_on_barrier_dies_with_host(self):
        from repro.microgrid import HostFailure
        sim, job = make_job(2)
        died = []

        def body(ctx):
            if ctx.rank == 0:
                try:
                    yield from ctx.comm.barrier(ctx.rank)
                except HostFailure:
                    died.append(ctx.sim.now)
            else:
                yield ctx.sim.timeout(100.0)

        job.launch(body)
        victim = job._rank_hosts[0]
        sim.call_after(3.0, victim.fail)
        sim.run(until=200.0)
        assert died == [3.0]

    def test_survivor_ranks_unaffected(self):
        from repro.microgrid import HostFailure
        sim, job = make_job(3)
        outcome = {}

        def body(ctx):
            try:
                yield ctx.sim.timeout(1.0 if ctx.rank == 0 else 20.0)
                outcome[ctx.rank] = "finished"
            except HostFailure:
                outcome[ctx.rank] = "died"

        job.launch(body)
        victim = job._rank_hosts[1]
        sim.call_after(5.0, victim.fail)
        sim.run(until=100.0)
        assert outcome == {0: "finished", 1: "died", 2: "finished"}
