"""Tests for the core Tracer: filtering, ring buffer, binding."""

import pytest

from repro.sim import Simulator
from repro.trace import CATEGORIES, Instant, Span, Tracer


def bound_tracer(**kwargs):
    sim = Simulator()
    return Tracer(**kwargs).bind(sim), sim


class TestConstruction:
    def test_defaults_enable_every_category(self):
        tracer = Tracer()
        assert tracer.active == frozenset(CATEGORIES)

    def test_category_subset(self):
        tracer = Tracer(categories=["network", "contract"])
        assert tracer.active == frozenset({"network", "contract"})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(categories=["network", "bogus"])

    def test_disabled_tracer_has_empty_active_set(self):
        tracer = Tracer(categories=())
        assert tracer.active == frozenset()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestBinding:
    def test_bind_sets_sim_trace(self):
        sim = Simulator()
        tracer = Tracer()
        assert tracer.bind(sim) is tracer
        assert sim.trace is tracer

    def test_unbound_now_raises(self):
        with pytest.raises(RuntimeError, match="not bound"):
            Tracer().now

    def test_rebinding_bumps_run_index(self):
        tracer, _sim = bound_tracer()
        tracer.instant("meta", "first")
        assert tracer.records[-1].run == 0
        tracer.bind(Simulator())
        tracer.instant("meta", "second")
        assert tracer.records[-1].run == 1

    def test_rebinding_same_sim_keeps_run_index(self):
        tracer, sim = bound_tracer()
        tracer.bind(sim)
        assert tracer.run == 0


class TestRecording:
    def test_instant_stamps_sim_time(self):
        tracer, sim = bound_tracer()
        sim.call_at(3.5, lambda: tracer.instant("meta", "mark", x=1))
        sim.run()
        (record,) = tracer.select("meta")
        assert isinstance(record, Instant)
        assert record.ts == 3.5
        assert record.name == "mark"
        assert record.args == {"x": 1}

    def test_complete_records_span(self):
        tracer, _sim = bound_tracer()
        tracer.complete("scheduler", "task:a", ts=1.0, dur=2.5, host="h0")
        (record,) = tracer.records
        assert isinstance(record, Span)
        assert (record.ts, record.dur) == (1.0, 2.5)
        assert record.args == {"host": "h0"}

    def test_inactive_category_is_filtered(self):
        tracer, _sim = bound_tracer(categories=["network"])
        tracer.instant("meta", "mark")
        tracer.complete("scheduler", "task:a", ts=0.0, dur=1.0)
        tracer.instant("network", "flow-add")
        assert len(tracer) == 1
        assert tracer.records[0].cat == "network"

    def test_disabled_tracer_records_nothing(self):
        tracer, _sim = bound_tracer(categories=())
        tracer.instant("meta", "mark")
        tracer.complete("network", "flow", ts=0.0, dur=1.0)
        assert len(tracer) == 0

    def test_select_by_category(self):
        tracer, _sim = bound_tracer()
        tracer.instant("meta", "a")
        tracer.instant("network", "b")
        tracer.instant("meta", "c")
        assert [r.name for r in tracer.select("meta")] == ["a", "c"]


class TestRingBuffer:
    def test_oldest_records_dropped_at_capacity(self):
        tracer, _sim = bound_tracer(capacity=3)
        for i in range(5):
            tracer.instant("meta", f"m{i}")
        assert len(tracer) == 3
        assert [r.name for r in tracer.records] == ["m2", "m3", "m4"]
        assert tracer.dropped == 2

    def test_clear_resets_buffer_and_counter(self):
        tracer, _sim = bound_tracer(capacity=2)
        for i in range(4):
            tracer.instant("meta", f"m{i}")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestKernelHook:
    def test_kernel_events_traced_during_run(self):
        tracer, sim = bound_tracer()
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run()
        kernel = tracer.select("kernel")
        assert len(kernel) == 2
        assert [r.ts for r in kernel] == [1.0, 2.0]

    def test_untraced_sim_defaults_to_none(self):
        sim = Simulator()
        assert sim.trace is None

    def test_kernel_category_filterable(self):
        tracer, sim = bound_tracer(categories=["meta"])
        sim.call_at(1.0, lambda: None)
        sim.run()
        assert tracer.select("kernel") == []

    def test_record_keys_are_comparable(self):
        tracer, sim = bound_tracer()
        tracer.instant("meta", "a", x=1)
        tracer.complete("meta", "b", ts=0.0, dur=1.0)
        keys = [r.key() for r in tracer.records]
        assert keys[0] != keys[1]
        assert keys[0] == Instant(0.0, "meta", "a", {"x": 1}, 0).key()
