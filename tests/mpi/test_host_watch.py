"""An MPI job watches its hosts' crashes only while its ranks run.

Reproducer: every job that ever ran on a host used to leave its
``_on_host_fail`` listener there, so a host's listener list grew with
the number of jobs it had served, and each listener kept its finished
job (ranks, communicator, mailboxes) alive.
"""

from repro.microgrid import Architecture, Host, HostFailure, Topology
from repro.mpi import MpiJob
from repro.sim import Process, Simulator


def make_hosts(n=3):
    sim = Simulator()
    topo = Topology(sim)
    arch = Architecture(name="t", mflops=100.0)
    topo.add_node("sw")
    hosts = []
    for i in range(n):
        host = Host(sim, f"h{i}", arch)
        topo.attach_host(host)
        topo.add_link(host.name, "sw", bandwidth=1e7, latency=1e-4)
        hosts.append(host)
    return sim, topo, hosts


def compute_body(mflop=100.0):
    def body(ctx):
        yield ctx.compute(mflop)
        if ctx.comm.size > 1:
            yield from ctx.comm.barrier(ctx.rank)
    return body


def record_throws(monkeypatch):
    thrown = []
    original = Process.throw

    def throw(proc, exc):
        thrown.append(proc.name)
        original(proc, exc)

    monkeypatch.setattr(Process, "throw", throw)
    return thrown


def test_finished_jobs_leave_no_listener_and_a_later_crash_throws_nowhere(
        monkeypatch):
    thrown = record_throws(monkeypatch)
    sim, topo, hosts = make_hosts()
    for k in range(5):
        job = MpiJob(sim, topo, hosts, name=f"job{k}")
        done = job.launch(compute_body())
        assert [len(h._fail_listeners) for h in hosts] == [1, 1, 1]
        sim.run(stop_event=done)
        assert [len(h._fail_listeners) for h in hosts] == [0, 0, 0]
    hosts[0].fail()
    sim.run()
    assert thrown == []


def test_a_crash_still_kills_the_rank_of_a_running_job(monkeypatch):
    thrown = record_throws(monkeypatch)
    sim, topo, hosts = make_hosts(2)
    job = MpiJob(sim, topo, hosts, name="victim")
    outcomes = []

    def body(ctx):
        try:
            yield ctx.sim.timeout(10.0) if ctx.rank == 0 else ctx.recv(src=0)
        except HostFailure:
            outcomes.append(ctx.rank)

    job.launch(body)
    sim.call_after(1.0, hosts[1].fail)
    sim.run()
    # rank 1 blocked on a recv has nothing on its CPU: only the watch
    # reaches it; once both ranks ended the watches are gone
    assert thrown == ["victim:r1"]
    assert outcomes == [1]
    assert [len(h._fail_listeners) for h in hosts] == [0, 0]


def test_a_host_swapped_in_is_watched_then_released():
    sim, topo, hosts = make_hosts(3)
    job = MpiJob(sim, topo, hosts[:2], name="swap")
    seen = []

    def body(ctx):
        yield ctx.compute(50.0)
        if ctx.rank == 1:
            ctx.job.set_rank_host(1, hosts[2])
            seen.append([len(h._fail_listeners) for h in hosts])
        yield ctx.compute(50.0)

    done = job.launch(body)
    sim.run(stop_event=done)
    assert seen == [[1, 1, 1]]
    assert [len(h._fail_listeners) for h in hosts] == [0, 0, 0]


def test_close_releases_the_watches_of_a_job_still_running():
    sim, topo, hosts = make_hosts(2)
    job = MpiJob(sim, topo, hosts, name="unfinished")
    job.launch(compute_body(mflop=1e6))
    sim.run(until=1.0)
    assert [len(h._fail_listeners) for h in hosts] == [1, 1]
    sim.close()
    assert [len(h._fail_listeners) for h in hosts] == [0, 0]
