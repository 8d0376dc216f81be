"""Unit tests for the cost/benefit rescheduler."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.contracts import MigrationRequest
from repro.rescheduling import MigrationEvaluation, Rescheduler


class FakeApp:
    """A scriptable MigratableApp for unit-testing decisions."""

    def __init__(self, sim, name="fake", remaining_current=100.0,
                 remaining_new=40.0, cost=10.0):
        self.sim = sim
        self.name = name
        self.remaining = {"current": remaining_current, "new": remaining_new}
        self.cost = cost
        self.migrated_to = None
        self._finished = None

    def current_hosts(self):
        return ["utk.n0", "utk.n1"]

    def propose_hosts(self, exclude=()):
        return ["uiuc.n0", "uiuc.n1"]

    def predicted_remaining_seconds(self, host_names):
        return (self.remaining["current"]
                if host_names[0].startswith("utk.")
                else self.remaining["new"])

    def migration_cost_estimate(self, new_hosts):
        return self.cost

    def migrate(self, new_hosts):
        self.migrated_to = list(new_hosts)
        ev = self.sim.event()
        self.sim.call_after(1.0, lambda: ev.succeed(new_hosts))
        return ev

    @property
    def finished(self):
        return self._finished


def env():
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
    return sim, gis, nws


def request(sim):
    return MigrationRequest(time=sim.now, phase=0, ratio=3.0,
                            average_ratio=3.0, severity=0.8)


class TestEvaluation:
    def test_benefit_math(self):
        evaluation = MigrationEvaluation(
            time=0.0, current_hosts=("a",), new_hosts=("b",),
            remaining_current=100.0, remaining_new=40.0,
            migration_cost=25.0, app_cost_estimate=25.0)
        assert evaluation.benefit == pytest.approx(35.0)
        assert evaluation.profitable

    def test_unprofitable(self):
        evaluation = MigrationEvaluation(
            time=0.0, current_hosts=("a",), new_hosts=("b",),
            remaining_current=50.0, remaining_new=40.0,
            migration_cost=25.0, app_cost_estimate=25.0)
        assert evaluation.benefit == pytest.approx(-15.0)
        assert not evaluation.profitable

    def test_worst_case_overrides_app_estimate(self):
        sim, gis, nws = env()
        app = FakeApp(sim, cost=10.0)
        resched = Rescheduler(sim, gis, nws,
                              worst_case_migration_seconds=900.0)
        evaluation = resched.evaluate(app)
        assert evaluation.migration_cost == 900.0
        assert evaluation.app_cost_estimate == 10.0

    def test_none_worst_case_uses_app_estimate(self):
        sim, gis, nws = env()
        app = FakeApp(sim, cost=10.0)
        resched = Rescheduler(sim, gis, nws,
                              worst_case_migration_seconds=None)
        assert resched.evaluate(app).migration_cost == 10.0

    def test_no_candidates_returns_none(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        app.propose_hosts = lambda exclude=(): (_ for _ in ()).throw(
            RuntimeError("nothing"))
        resched = Rescheduler(sim, gis, nws)
        assert resched.evaluate(app) is None

    def test_same_hosts_returns_none(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        app.propose_hosts = lambda exclude=(): app.current_hosts()
        resched = Rescheduler(sim, gis, nws)
        assert resched.evaluate(app) is None


class TestModes:
    def test_invalid_mode_rejected(self):
        sim, gis, nws = env()
        with pytest.raises(ValueError):
            Rescheduler(sim, gis, nws, mode="sideways")

    def test_default_mode_migrates_when_profitable(self):
        sim, gis, nws = env()
        app = FakeApp(sim, remaining_current=100.0, remaining_new=40.0,
                      cost=10.0)
        resched = Rescheduler(sim, gis, nws, mode="default",
                              worst_case_migration_seconds=None)
        assert resched.handle_request(app, request(sim)) is True
        assert app.migrated_to == ["uiuc.n0", "uiuc.n1"]

    def test_default_mode_declines_when_unprofitable(self):
        sim, gis, nws = env()
        app = FakeApp(sim, remaining_current=45.0, remaining_new=40.0,
                      cost=10.0)
        resched = Rescheduler(sim, gis, nws, mode="default",
                              worst_case_migration_seconds=None)
        assert resched.handle_request(app, request(sim)) is False
        assert app.migrated_to is None
        assert resched.decisions[-1].migrated is False

    def test_force_stay_never_migrates(self):
        sim, gis, nws = env()
        app = FakeApp(sim, remaining_current=1e6, remaining_new=1.0)
        resched = Rescheduler(sim, gis, nws, mode="force-stay",
                              worst_case_migration_seconds=None)
        assert resched.handle_request(app, request(sim)) is False

    def test_force_migrate_always_migrates(self):
        sim, gis, nws = env()
        app = FakeApp(sim, remaining_current=1.0, remaining_new=1e6)
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        assert resched.handle_request(app, request(sim)) is True

    def test_inflight_migration_not_duplicated(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        assert resched.handle_request(app, request(sim)) is True
        n_decisions = len(resched.decisions)
        # second request while migrating: acknowledged, not re-decided
        assert resched.handle_request(app, request(sim)) is True
        assert len(resched.decisions) == n_decisions

    def test_decision_records_trigger(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        resched = Rescheduler(sim, gis, nws, mode="default",
                              worst_case_migration_seconds=None)
        resched.handle_request(app, request(sim))
        assert resched.decisions[0].trigger == "request"
        assert resched.decisions[0].app == "fake"


class TestFailureHardening:
    def test_constructor_validation(self):
        sim, gis, nws = env()
        with pytest.raises(ValueError):
            Rescheduler(sim, gis, nws, migration_timeout_seconds=0.0)
        with pytest.raises(ValueError):
            Rescheduler(sim, gis, nws, blacklist_seconds=-1.0)

    def test_sync_migrate_exception_abandons_and_blacklists(self):
        """app.migrate() raising must not leave the app in _inflight."""
        sim, gis, nws = env()
        app = FakeApp(sim)

        def bad_migrate(new_hosts):
            raise RuntimeError("binder exploded")

        app.migrate = bad_migrate
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        assert resched.handle_request(app, request(sim)) is False
        assert resched._inflight == {}
        assert resched.aborted_migrations == 1
        assert resched.decisions[-1].trigger == "migration-failed"
        assert resched.decisions[-1].migrated is False
        assert resched.blacklisted_hosts() == ["uiuc.n0", "uiuc.n1"]

    def test_failed_migration_event_abandons(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        failing = sim.event()
        app.migrate = lambda new_hosts: failing
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        assert resched.handle_request(app, request(sim)) is True
        assert "fake" in resched._inflight
        sim.call_after(1.0, lambda: failing.fail(RuntimeError("host died")))
        sim.run(until=5.0)
        assert resched._inflight == {}
        assert resched.aborted_migrations == 1
        assert resched.decisions[-1].trigger == "migration-failed"
        # a later request can start a fresh attempt
        app.migrate = FakeApp.migrate.__get__(app)
        assert resched.handle_request(app, request(sim)) is True

    def test_migration_timeout_abandons_and_blacklists(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        stuck = sim.event()  # the migration event is simply lost
        app.migrate = lambda new_hosts: stuck
        resched = Rescheduler(sim, gis, nws, mode="force-migrate",
                              migration_timeout_seconds=10.0)
        assert resched.handle_request(app, request(sim)) is True
        sim.run(until=20.0)
        assert resched._inflight == {}
        assert resched.aborted_migrations == 1
        assert resched.decisions[-1].trigger == "migration-timeout"
        assert resched.blacklisted_hosts() == ["uiuc.n0", "uiuc.n1"]

    def test_late_event_after_timeout_is_ignored(self):
        """The token guard: an event surfacing after the timeout
        abandoned its attempt must not corrupt newer state."""
        sim, gis, nws = env()
        app = FakeApp(sim)
        stuck = sim.event()
        app.migrate = lambda new_hosts: stuck
        resched = Rescheduler(sim, gis, nws, mode="force-migrate",
                              migration_timeout_seconds=10.0)
        assert resched.handle_request(app, request(sim)) is True
        sim.call_after(30.0, lambda: stuck.succeed(["uiuc.n0"]))
        sim.run(until=40.0)
        assert resched.aborted_migrations == 1
        assert resched._inflight == {}

    def test_timely_migration_cancels_timeout(self):
        sim, gis, nws = env()
        app = FakeApp(sim)  # FakeApp migrations succeed after 1 s
        resched = Rescheduler(sim, gis, nws, mode="force-migrate",
                              migration_timeout_seconds=10.0)
        assert resched.handle_request(app, request(sim)) is True
        sim.run(until=20.0)
        assert resched.aborted_migrations == 0
        assert resched._inflight == {}
        assert resched.blacklisted_hosts() == []

    def test_blacklist_expires(self):
        sim, gis, nws = env()
        app = FakeApp(sim)

        def bad_migrate(new_hosts):
            raise RuntimeError("boom")

        app.migrate = bad_migrate
        resched = Rescheduler(sim, gis, nws, mode="force-migrate",
                              blacklist_seconds=50.0)
        resched.handle_request(app, request(sim))
        assert resched.blacklisted_hosts() == ["uiuc.n0", "uiuc.n1"]
        sim.run(until=60.0)
        assert resched.blacklisted_hosts() == []

    def test_evaluate_excludes_blacklisted_hosts(self):
        sim, gis, nws = env()
        app = FakeApp(sim)
        excludes = []

        def propose(exclude=()):
            excludes.append(sorted(exclude))
            return ["uiuc.n0", "uiuc.n1"]

        def bad_migrate(new_hosts):
            raise RuntimeError("boom")

        app.propose_hosts = propose
        app.migrate = bad_migrate
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        resched.handle_request(app, request(sim))
        resched.handle_request(app, request(sim))
        assert "uiuc.n0" not in excludes[0]
        assert {"uiuc.n0", "uiuc.n1"} <= set(excludes[1])


class TestOpportunistic:
    def test_period_validation(self):
        sim, gis, nws = env()
        resched = Rescheduler(sim, gis, nws)
        with pytest.raises(ValueError):
            resched.start_opportunistic(period=0.0)

    def test_migrates_after_other_app_finishes(self):
        sim, gis, nws = env()
        finished_app = FakeApp(sim, name="short")
        finished_app._finished = sim.event()
        running_app = FakeApp(sim, name="long", remaining_current=500.0,
                              remaining_new=100.0, cost=10.0)
        running_app._finished = sim.event()
        resched = Rescheduler(sim, gis, nws, mode="default",
                              worst_case_migration_seconds=None)
        resched.manage(finished_app)
        resched.manage(running_app)
        resched.start_opportunistic(period=10.0)
        sim.call_after(15.0, lambda: finished_app._finished.succeed())
        sim.run(until=50.0)
        assert running_app.migrated_to is not None
        assert any(d.trigger == "opportunistic" for d in resched.decisions)

    def test_no_action_without_completions(self):
        sim, gis, nws = env()
        running_app = FakeApp(sim, name="long", remaining_current=500.0,
                              remaining_new=100.0)
        running_app._finished = sim.event()
        resched = Rescheduler(sim, gis, nws, mode="default",
                              worst_case_migration_seconds=None)
        resched.manage(running_app)
        resched.start_opportunistic(period=10.0)
        sim.run(until=100.0)
        assert running_app.migrated_to is None
        assert resched.decisions == []

    def test_finished_apps_not_migrated(self):
        sim, gis, nws = env()
        app_a = FakeApp(sim, name="a")
        app_a._finished = sim.event()
        app_b = FakeApp(sim, name="b")
        app_b._finished = sim.event()
        resched = Rescheduler(sim, gis, nws, mode="force-migrate")
        resched.manage(app_a)
        resched.manage(app_b)
        resched.start_opportunistic(period=5.0)
        sim.call_after(7.0, lambda: app_a._finished.succeed())
        sim.call_after(7.0, lambda: app_b._finished.succeed())
        sim.run(until=30.0)
        assert app_a.migrated_to is None
        assert app_b.migrated_to is None
