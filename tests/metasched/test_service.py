"""End-to-end tests for the multi-tenant submission service."""

import pytest

from repro.gis.directory import GridInformationService
from repro.metasched import JobSpec, MetaScheduler, generate_stream
from repro.microgrid.testbed import fig3_testbed
from repro.nws.service import NetworkWeatherService
from repro.rescheduling import Rescheduler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.trace import Tracer


def build_service(tracer=None, **kwargs):
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    return sim, grid, MetaScheduler(sim, grid, gis, nws, **kwargs)


def spec(name, user="u0", kind="qr", submit=0.0, n_hosts=2, size=4000.0,
         **kwargs):
    return JobSpec(name=name, user=user, kind=kind, submit_time=submit,
                   n_hosts=n_hosts, size=size, **kwargs)


def run_stream(sim, service, specs):
    done = service.run_stream(specs)
    sim.run(stop_event=done)
    return service.states()


class TestSingleJob:
    def test_completes_and_accounts(self):
        sim, _grid, service = build_service()
        states = run_stream(sim, service, [spec("j0")])
        (state,) = states
        assert state.status == "completed"
        assert state.started_at == 0.0
        assert state.finished_at == sim.now
        assert len(state.hosts) == 2
        assert service.audit_conflicts() == []
        stats = sim.stats
        assert stats.meta_submitted == 1
        assert stats.meta_started == 1
        assert stats.meta_completed == 1
        assert stats.meta_rejected == 0
        assert stats.meta_cpu_seconds > 0.0
        assert service.queue.usage["u0"] == pytest.approx(
            stats.meta_cpu_seconds)

    def test_duplicate_name_rejected(self):
        sim, _grid, service = build_service()
        service.submit(spec("j0"))
        with pytest.raises(ValueError):
            service.submit(spec("j0"))


class TestContention:
    def test_oversubscribed_stream_serializes_without_conflicts(self):
        sim, _grid, service = build_service()
        # Three 12-host jobs submitted together: only one can hold the
        # testbed at a time.
        states = run_stream(sim, service, [
            spec("a", user="u0", n_hosts=12, submit=0.0),
            spec("b", user="u1", n_hosts=12, submit=1.0),
            spec("c", user="u2", n_hosts=12, submit=2.0),
        ])
        assert [s.status for s in states] == ["completed"] * 3
        assert service.audit_conflicts() == []
        # strictly serialized: each next job starts after the previous
        # one finished
        by_start = sorted(states, key=lambda s: s.started_at)
        for earlier, later in zip(by_start, by_start[1:]):
            assert later.started_at >= earlier.finished_at
        assert sim.stats.meta_queue_wait_seconds > 0.0
        assert sim.stats.meta_reservations > 0

    def test_small_job_backfills_around_blocked_head(self):
        sim, _grid, service = build_service()
        # "big" holds 10 of 12 hosts; "wide" needs all 12 and must wait;
        # "tiny" fits on the 2 idle hosts and jumps the queue.
        states = run_stream(sim, service, [
            spec("big", user="u0", n_hosts=10, size=9000.0, submit=0.0),
            spec("wide", user="u1", n_hosts=12, size=4000.0, submit=1.0),
            spec("tiny", user="u2", n_hosts=2, size=2000.0, submit=2.0),
        ])
        big, wide, tiny = states
        assert [s.status for s in states] == ["completed"] * 3
        assert tiny.backfilled
        assert tiny.started_at < wide.started_at
        assert wide.started_at >= big.finished_at
        assert sim.stats.meta_backfilled == 1
        assert service.audit_conflicts() == []

    def test_generated_stream_is_conflict_free(self):
        sim, _grid, service = build_service()
        specs = generate_stream(4, 1 / 90.0, 2400.0, RngRegistry(11))
        states = run_stream(sim, service, specs)
        assert all(s.status == "completed" for s in states)
        assert service.audit_conflicts() == []
        assert sim.stats.meta_completed == len(specs)


class TestAdmission:
    def test_queue_cap_rejects(self):
        sim, _grid, service = build_service(max_queue=1)
        states = run_stream(sim, service, [
            spec("a", user="u0", n_hosts=12, submit=0.0),
            spec("b", user="u1", n_hosts=12, submit=1.0),
            spec("c", user="u2", n_hosts=12, submit=2.0),
        ])
        statuses = {s.spec.name: s.status for s in states}
        assert statuses["a"] == "completed"
        assert statuses["b"] == "completed"
        assert statuses["c"] == "rejected"
        assert states[2].reject_reason == "queue-full"
        assert sim.stats.meta_rejected == 1

    def test_per_user_quota_rejects(self):
        sim, _grid, service = build_service(max_per_user=1)
        states = run_stream(sim, service, [
            spec("a", user="u0", n_hosts=12, submit=0.0),
            spec("b", user="u0", n_hosts=12, submit=1.0),
            spec("c", user="u0", n_hosts=12, submit=2.0),
        ])
        reasons = [s.reject_reason for s in states]
        assert reasons.count("user-quota") == 1

    def test_impossible_job_rejected_up_front(self):
        sim, _grid, service = build_service()
        states = run_stream(sim, service, [spec("huge", n_hosts=13)])
        assert states[0].status == "rejected"
        assert states[0].reject_reason == "insufficient-resources"


class TestTraceLane:
    def test_lifecycle_instants_and_spans(self):
        tracer = Tracer(categories=["metasched"])
        sim, _grid, service = build_service(tracer=tracer, max_queue=2)
        run_stream(sim, service, [
            spec("big", user="u0", n_hosts=10, size=9000.0, submit=0.0),
            spec("wide", user="u1", n_hosts=12, size=4000.0, submit=1.0),
            spec("tiny", user="u2", n_hosts=2, size=2000.0, submit=2.0),
            spec("late", user="u3", n_hosts=13, submit=3.0),  # rejected
        ])
        records = tracer.select("metasched")
        names = {r.name for r in records}
        assert {"submit", "admit", "queue", "reserve", "backfill",
                "start", "complete", "reject"} <= names
        spans = [r for r in records if r.name.startswith("job:")]
        assert {s.name for s in spans} == {"job:big", "job:wide",
                                           "job:tiny"}
        assert all(s.dur > 0 for s in spans)

    def test_untraced_run_is_clean(self):
        sim, _grid, service = build_service()
        states = run_stream(sim, service, [spec("j0")])
        assert states[0].status == "completed"


class TestReschedulerIntegration:
    def test_without_reservations_no_exclusion(self):
        sim, _grid, service = build_service()
        service.book.reserve_block("tenant", ["uiuc.n0"], 0.0, 1e6)
        seen = {}

        class App:
            def current_hosts(self):
                return ["utk.n0"]

            def propose_hosts(self, exclude=()):
                seen["exclude"] = sorted(exclude)
                raise RuntimeError("stop here")

        resched = Rescheduler(sim, service.gis, service.nws)
        assert resched.evaluate(App()) is None
        assert "uiuc.n0" not in seen["exclude"]


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        from repro.experiments.metasched_stream import run_metasched

        a = run_metasched(users=3, arrival_rate=1 / 150.0, duration=1500.0,
                          seed=5)
        b = run_metasched(users=3, arrival_rate=1 / 150.0, duration=1500.0,
                          seed=5)
        assert a.to_json() == b.to_json()
        assert a.report()["schema_version"] == 1

    def test_different_seeds_differ(self):
        from repro.experiments.metasched_stream import run_metasched

        a = run_metasched(users=3, arrival_rate=1 / 150.0, duration=1500.0,
                          seed=5)
        b = run_metasched(users=3, arrival_rate=1 / 150.0, duration=1500.0,
                          seed=6)
        assert a.to_json() != b.to_json()
