"""Tests for the processor-sharing host model."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.microgrid import Architecture, CacheLevel, Host


def make_host(sim, mflops=100.0, cores=1):
    arch = Architecture(name="test", mflops=mflops)
    return Host(sim, "h0", arch, cores=cores)


def test_single_task_runs_at_full_speed():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    ev = host.compute(500.0)  # 500 Mflop at 100 Mflop/s -> 5 s
    sim.run()
    assert ev.triggered
    assert ev.value == pytest.approx(5.0)
    assert sim.now == pytest.approx(5.0)


def test_two_tasks_share_one_core():
    sim = Simulator()
    host = make_host(sim, mflops=100.0, cores=1)
    a = host.compute(100.0)
    b = host.compute(100.0)
    sim.run()
    # Equal tasks sharing one core both finish at 2x the solo time.
    assert a.value == pytest.approx(2.0)
    assert b.value == pytest.approx(2.0)


def test_two_tasks_on_two_cores_dont_interfere():
    sim = Simulator()
    host = make_host(sim, mflops=100.0, cores=2)
    a = host.compute(100.0)
    b = host.compute(100.0)
    sim.run()
    assert a.value == pytest.approx(1.0)
    assert b.value == pytest.approx(1.0)


def test_share_is_capped_at_one_core():
    """One task on a dual-core host must not run at 2x speed."""
    sim = Simulator()
    host = make_host(sim, mflops=100.0, cores=2)
    ev = host.compute(100.0)
    sim.run()
    assert ev.value == pytest.approx(1.0)


def test_staggered_arrival_slows_first_task():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    done = {}

    def submit_b():
        ev = host.compute(50.0)
        ev.add_callback(lambda e: done.setdefault("b", sim.now))

    a = host.compute(100.0)
    a.add_callback(lambda e: done.setdefault("a", sim.now))
    sim.call_after(0.5, submit_b)
    sim.run()
    # a runs alone for 0.5 s (50 Mflop done), then shares: both have
    # 50 Mflop left at 50 Mflop/s each -> both finish at t=1.5.
    assert done["a"] == pytest.approx(1.5)
    assert done["b"] == pytest.approx(1.5)


def test_background_load_halves_rate():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    host.add_background_load(1)
    ev = host.compute(100.0)
    sim.run(until=100.0)
    assert ev.value == pytest.approx(2.0)


def test_background_load_injection_mid_task():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    ev = host.compute(100.0)  # alone: would end at t=1
    sim.call_after(0.5, lambda: host.add_background_load(1))
    sim.run(until=100.0)
    # 50 Mflop done by 0.5, then 50 Mflop/s -> one more second.
    assert ev.value == pytest.approx(1.5)


def test_background_load_removal_restores_rate():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    handles = host.add_background_load(1)
    ev = host.compute(100.0)
    sim.call_after(1.0, lambda: host.remove_background_load(handles))
    sim.run(until=100.0)
    # 50 Mflop at half speed in [0,1], then full speed: 0.5 s more.
    assert ev.value == pytest.approx(1.5)


def test_remove_unknown_load_handle_rejected():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(ValueError):
        host.remove_background_load([object()])


def test_availability_reflects_contention():
    sim = Simulator()
    host = make_host(sim, cores=1)
    assert host.availability() == pytest.approx(1.0)
    host.add_background_load(1)
    assert host.availability() == pytest.approx(0.5)
    host.add_background_load(2)
    assert host.availability() == pytest.approx(0.25)


def test_availability_multicore():
    sim = Simulator()
    host = make_host(sim, cores=2)
    host.add_background_load(1)
    assert host.availability() == pytest.approx(1.0)
    host.add_background_load(2)
    assert host.availability() == pytest.approx(0.5)


def test_estimate_seconds_matches_actual_when_static():
    sim = Simulator()
    host = make_host(sim, mflops=250.0)
    host.add_background_load(1)
    predicted = 1000.0 / (host.speed * host.availability())
    ev = host.compute(1000.0)
    sim.run(until=1e6)
    assert ev.value == pytest.approx(predicted)


def test_zero_work_completes_immediately():
    sim = Simulator()
    host = make_host(sim)
    ev = host.compute(0.0)
    sim.run()
    assert ev.value == pytest.approx(0.0)
    assert sim.now == 0.0


def test_negative_work_rejected():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(ValueError):
        host.compute(-1.0)


def test_mflop_accounting():
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    host.compute(300.0)
    host.compute(200.0)
    sim.run()
    assert host.mflop_done == pytest.approx(500.0)


def test_bad_architecture_rejected():
    with pytest.raises(ValueError):
        Architecture(name="bad", mflops=0.0)
    with pytest.raises(ValueError):
        CacheLevel(size=0)
    with pytest.raises(ValueError):
        CacheLevel(size=1024, miss_penalty=-1.0)


def test_host_needs_a_core():
    sim = Simulator()
    with pytest.raises(ValueError):
        Host(sim, "h", Architecture(name="a", mflops=1.0), cores=0)


@settings(max_examples=30, deadline=None)
@given(
    works=st.lists(st.floats(min_value=1.0, max_value=1e4),
                   min_size=1, max_size=8),
    cores=st.integers(min_value=1, max_value=4),
)
def test_property_total_time_conserves_work(works, cores):
    """Processor sharing conserves work: total Mflop delivered over the
    run equals the Mflop submitted, and the makespan is bounded by the
    serial and ideally-parallel extremes."""
    sim = Simulator()
    host = make_host(sim, mflops=100.0, cores=cores)
    events = [host.compute(w) for w in works]
    sim.run()
    assert all(ev.triggered for ev in events)
    assert host.mflop_done == pytest.approx(sum(works), rel=1e-6)
    lower = max(works) / 100.0  # no task can beat solo speed
    upper = sum(works) / 100.0 + 1e-9  # can't be slower than serial on 1 core
    assert sim.now >= lower - 1e-9
    assert sim.now <= upper * (1.0 if cores == 1 else 1.0) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    works=st.lists(st.floats(min_value=1.0, max_value=1e3),
                   min_size=2, max_size=6))
def test_property_equal_tasks_finish_together(works):
    """Identical tasks submitted together must finish simultaneously."""
    sim = Simulator()
    host = make_host(sim, mflops=50.0)
    size = works[0]
    events = [host.compute(size) for _ in works]
    sim.run()
    times = {round(ev.value, 6) for ev in events}
    assert len(times) == 1


@settings(max_examples=25, deadline=None)
@given(
    first=st.floats(min_value=10.0, max_value=500.0),
    second=st.floats(min_value=10.0, max_value=500.0),
)
def test_property_smaller_task_never_finishes_later(first, second):
    """Under PS with simultaneous arrival, ordering by size is preserved."""
    sim = Simulator()
    host = make_host(sim, mflops=100.0)
    a = host.compute(first)
    b = host.compute(second)
    sim.run()
    if first < second:
        assert a.value <= b.value + 1e-9
    elif second < first:
        assert b.value <= a.value + 1e-9
