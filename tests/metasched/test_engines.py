"""Planner vs reference-oracle equivalence (DESIGN.md §9.6).

The production planner must be *observationally identical* to the
linear-scan oracle in ``tests/oracles/metasched.py``: same job
outcomes, same claim histories, byte-identical same-seed reports.
Both rebuild the plan every round, so the ``meta_plan_*`` counters of
rounds, kept and rebuilt reservations and wakes match too; only window
probes and estimate memo hits (how the planner searches, excluded from
reports) may differ.
"""

import random

import pytest

from repro.experiments.metasched_stream import run_metasched
from repro.gis.directory import GridInformationService
from repro.metasched import JobSpec, MetaScheduler, generate_stream
from repro.metasched.jobs import build_workflow
from repro.metasched.reservations import (CLAIMED, RELEASED, RESERVED,
                                         ReservationBook,
                                         ReservationConflict)
from repro.metasched.service import JobState
from repro.microgrid.testbed import fig3_testbed
from repro.nws.service import NetworkWeatherService
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from tests.oracles.metasched import (ReferenceMetaScheduler,
                                     reference_find_window,
                                     reference_planner)


def build_service(service_cls=MetaScheduler, **kwargs):
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    return sim, service_cls(sim, grid, gis, nws, **kwargs)


def serve(service_cls, specs, **kwargs):
    sim, service = build_service(service_cls, **kwargs)
    done = service.run_stream(specs)
    sim.run(stop_event=done)
    return sim, service


def spec(name, user="u0", kind="qr", submit=0.0, n_hosts=2, size=4000.0):
    return JobSpec(name=name, user=user, kind=kind, submit_time=submit,
                   n_hosts=n_hosts, size=size)


#: a contended stream: enough arrival pressure that reservations,
#: backfills and deep queues all occur on the 12-host testbed
CONTENDED = dict(users=6, arrival_rate=1 / 40.0, duration=2400.0, seed=2,
                 max_jobs=40)


#: planner counters the oracle must reproduce exactly
SHARED_PLAN_COUNTERS = ("meta_plan_rounds", "meta_plan_kept",
                        "meta_plan_rebuilt", "meta_plan_wakes")


def assert_same_plan_counters(fast, ref):
    """Equal shared ``meta_plan_*`` counters in two counter dicts."""
    for name in SHARED_PLAN_COUNTERS:
        assert fast[name] == ref[name], name


def run_reference(**kwargs):
    """``run_metasched`` served by the linear-scan oracle."""
    with reference_planner():
        return run_metasched(**kwargs)


class TestByteIdenticalReports:
    def test_fig3_stream(self):
        fast = run_metasched(**CONTENDED)
        ref = run_reference(**CONTENDED)
        assert fast.to_json() == ref.to_json()
        assert_same_plan_counters(fast.counters, ref.counters)
        assert fast.conflicts == []

    def test_scale_grid_stream(self):
        kwargs = dict(users=6, arrival_rate=1 / 20.0, duration=1200.0,
                      seed=3, max_jobs=30, n_hosts=16)
        fast = run_metasched(**kwargs)
        ref = run_reference(**kwargs)
        assert fast.to_json() == ref.to_json()
        assert_same_plan_counters(fast.counters, ref.counters)
        assert fast.summary()["completed"] > 0

    @pytest.mark.parametrize("kwargs", [
        dict(users=4, arrival_rate=0.02, duration=1800.0, seed=0),
        dict(users=6, arrival_rate=0.05, duration=1200.0, seed=3,
             n_hosts=32),
    ], ids=["fig3-testbed", "32-host-grid"])
    def test_cli_stream_configs(self, kwargs):
        # the `repro metasched run` configurations CI serves
        fast = run_metasched(**kwargs)
        ref = run_reference(**kwargs)
        assert fast.to_json() == ref.to_json()
        assert_same_plan_counters(fast.counters, ref.counters)
        assert fast.conflicts == []

    def test_report_excludes_engine_counters(self):
        result = run_metasched(users=2,
                               arrival_rate=1 / 200.0, duration=600.0,
                               seed=0, max_jobs=4)
        # full snapshot keeps them; the deterministic report drops them
        assert any(k.startswith("meta_plan_") for k in result.counters)
        assert not any(k.startswith("meta_plan_")
                       for k in result.report()["counters"])
        assert "engine" not in result.report()["params"]


class TestOutcomeEquivalence:
    def test_job_outcomes_and_claim_histories_identical(self):
        specs = generate_stream(5, 1 / 50.0, 2000.0, RngRegistry(4),
                                max_jobs=30)
        sim_f, fast = serve(MetaScheduler, specs)
        sim_r, ref = serve(ReferenceMetaScheduler, specs)
        assert_same_plan_counters(sim_f.stats.snapshot(),
                                  sim_r.stats.snapshot())
        for a, b in zip(fast.states(), ref.states()):
            assert a.spec.name == b.spec.name
            assert a.status == b.status
            assert a.started_at == b.started_at
            assert a.finished_at == b.finished_at
            assert a.hosts == b.hosts
            assert a.backfilled == b.backfilled
        for host in fast.book.hosts():
            assert (fast.book.calendar(host).claim_history
                    == ref.book.calendar(host).claim_history)
        assert fast.audit_conflicts() == []
        assert ref.audit_conflicts() == []

    def test_event_counts_and_wakes_match(self):
        specs = generate_stream(4, 1 / 60.0, 1800.0, RngRegistry(8),
                                max_jobs=20)
        sim_f, _fast = serve(MetaScheduler, specs)
        sim_r, _ref = serve(ReferenceMetaScheduler, specs)
        # shared rounds and wake logic: same plans, same arms, same
        # kernel agenda, same clock
        assert_same_plan_counters(sim_f.stats.snapshot(),
                                  sim_r.stats.snapshot())
        assert (sim_f.stats.events_processed
                == sim_r.stats.events_processed)
        assert sim_f.now == sim_r.now


class RoundCarryRecorder(ReferenceMetaScheduler):
    """The oracle, recording every planned reservation that survives
    one of its planning rounds unreleased."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.carried = []
        self._seen = []         # holds the objects so ids stay unique

    def _round(self):
        before = {id(r) for state in self.jobs.values()
                  for r in state.planned}
        super()._round()
        for state in self.jobs.values():
            for resv in state.planned:
                self._seen.append(resv)
                if id(resv) in before:
                    self.carried.append(resv)


class TestFastEngineMechanics:
    def test_delta_replan_keeps_and_memoizes(self):
        # The planner rebuilds every round; "kept" counts a rebuilt
        # booking that repeats the job's previous (start, hosts).
        fast = run_metasched(**CONTENDED)
        counters = fast.counters
        assert counters["meta_plan_rounds"] > 0
        assert counters["meta_plan_kept"] > 0
        assert counters["meta_plan_rebuilt"] > 0
        # every booking either repeats the job's previous plan (kept)
        # or moves it (a traced reservation)
        assert (counters["meta_plan_kept"] + counters["meta_reservations"]
                == counters["meta_plan_rebuilt"])
        assert counters["meta_plan_window_probes"] > 0
        assert counters["meta_plan_estimate_memo_hits"] > 0

    def test_reference_engine_never_keeps(self):
        # The oracle carries no reservation across a round: each round
        # releases its whole plan and books afresh, so its kept count
        # is only repeated bookings, and it has no estimate memo.
        specs = generate_stream(6, 1 / 40.0, 2400.0, RngRegistry(2),
                                max_jobs=40)
        sim, ref = serve(RoundCarryRecorder, specs)
        counters = sim.stats.snapshot()
        assert counters["meta_plan_rebuilt"] > 0
        assert counters["meta_plan_kept"] > 0
        assert ref.carried == []
        assert counters["meta_plan_estimate_memo_hits"] == 0


class TestWakeScheduling:
    """Regression for the stale-``_next_wake`` re-arm bug: the planner
    now tracks armed-but-unfired wake instants, so a wake that has
    fired can never suppress — or force — a later arm decision."""

    def _service_with_queued(self, names):
        sim, service = build_service()
        for i, name in enumerate(names):
            s = spec(name, user=f"u{i}")
            service.jobs[name] = JobState(spec=s,
                                          workflow=build_workflow(s))
            service.queue.push(s)
        return sim, service

    def test_pending_wake_suppresses_duplicate_arm(self):
        sim, service = self._service_with_queued(["r1"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 1
        assert service._pending_wakes == [200.0]
        # same earliest again: the pending wake already covers it
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 1

    def test_earlier_plan_gets_its_own_wake(self):
        sim, service = self._service_with_queued(["r1", "r2"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        service.jobs["r2"].planned = service.book.reserve_block(
            "r2", ["utk.n1"], 100.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 2
        assert service._pending_wakes == [100.0, 200.0]

    def test_fired_wake_does_not_force_rearm(self):
        sim, service = self._service_with_queued(["r1", "r2"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        service.jobs["r2"].planned = service.book.reserve_block(
            "r2", ["utk.n1"], 100.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 2
        # isolate the arm/forget mechanics from planning side effects
        service._round = lambda: None
        service._wake(100.0)  # the 100 s wake fires and forgets itself
        assert service._pending_wakes == [200.0]
        # r2's plan was handled; r1's wake at 200 is still pending.
        # The old planner kept the stale fired instant and re-armed
        # unconditionally here; now the pending wake covers earliest.
        service.jobs["r2"].planned = []
        service._schedule_wake(150.0)
        assert sim.stats.meta_plan_wakes == 2  # no third arm

    def test_wakes_fire_rounds_end_to_end(self):
        # Two serialized 12-host jobs: the second starts off a round
        # triggered by completion or wake — either way the stream
        # drains and at least one wake was armed for the reservation.
        sim, service = build_service()
        done = service.run_stream([
            spec("a", user="u0", n_hosts=12, submit=0.0),
            spec("b", user="u1", n_hosts=12, submit=1.0),
        ])
        sim.run(stop_event=done)
        assert [s.status for s in service.states()] == ["completed"] * 2
        assert sim.stats.meta_plan_wakes >= 1
        # no stale past instants linger; anything left is a future wake
        # whose firing the stop event simply preempted
        assert all(w > sim.now - 1e-9 for w in service._pending_wakes)


class TestWindowSearchEquivalence:
    """Property test: the merged-sweep window search must agree with
    the pre-overhaul nested-loop oracle on randomized calendars."""

    def _random_book(self, rng, n_hosts=6, n_resv=25):
        hosts = [f"h{i}" for i in range(n_hosts)]
        book = ReservationBook(hosts)
        for k in range(n_resv):
            host = rng.choice(hosts)
            start = rng.randrange(0, 500) * 1.0
            end = start + rng.randrange(1, 120)
            try:
                resv = book.calendar(host).reserve(f"j{k}", start, end)
            except Exception:
                continue
            roll = rng.random()
            if roll < 0.4:
                book.calendar(host).claim(resv, start)
            elif roll < 0.5:
                book.calendar(host).release(resv, start + 1.0)
        return book, hosts

    def test_matches_reference_on_random_calendars(self):
        for seed in range(12):
            rng = random.Random(seed)
            book, hosts = self._random_book(rng)
            for trial in range(20):
                n = rng.randrange(1, len(hosts) + 1)
                duration = rng.randrange(5, 200) * 1.0
                now = rng.randrange(0, 600) * 1.0
                order = hosts[:]
                rng.shuffle(order)
                got = book.find_window(n, duration, now, order, now)
                want = reference_find_window(book, n, duration, now, order,
                                             now)
                assert got == want, (seed, trial, n, duration, now, order)

    def test_free_now_is_the_immediate_probe(self):
        for seed in range(8):
            rng = random.Random(1000 + seed)
            book, hosts = self._random_book(rng)
            for trial in range(20):
                n = rng.randrange(1, len(hosts) + 1)
                duration = rng.randrange(5, 200) * 1.0
                now = rng.randrange(0, 600) * 1.0
                order = hosts[:]
                rng.shuffle(order)
                free = book.free_now(n, duration, order, now)
                window = reference_find_window(book, n, duration, now,
                                               order, now)
                if free is not None:
                    assert window == (now, free)
                elif window is not None:
                    assert window[0] > now


class TestCandidateViewPatching:
    """Differential test for the book's candidate views: edits between
    two calls at the same ``now`` (reserved, rolled-back, claimed and
    released blocks) must be patched into the view that later calls
    read.  Every ``find_window`` answer is checked against the linear
    oracle, and every ``free_now`` answer against the oracle's first
    probe."""

    HOSTS = [f"h{i}" for i in range(7)]

    def _ask(self, book, rng, orders, now, seen):
        order = rng.choice(orders)
        cands = tuple(order) if rng.random() < 0.5 else list(order)
        n = rng.randrange(1, len(order) + 1)
        duration = rng.randrange(5, 200) * 1.0
        not_before = now + rng.choice([0.0, 0.0, rng.randrange(1, 150)])
        got = book.find_window(n, duration, not_before, cands, now)
        want = reference_find_window(book, n, duration, not_before,
                                     list(order), now)
        assert got == want, (n, duration, not_before, now, cands)
        seen["later not_before"] += not_before > now
        seen["overrun host"] += any(
            resv.state == CLAIMED and resv.end <= now + 1e-9
            for host in order for resv in book.calendar(host).active())
        free = book.free_now(n, duration, cands, now)
        first = reference_find_window(book, n, duration, now, list(order),
                                      now)
        if free is None:
            assert first is None or first[0] > now, (n, duration, now)
        else:
            assert first == (now, free), (n, duration, now)

    def _edit(self, book, rng, blocks, now, k):
        live = [b for b in blocks if any(r.state != RELEASED for r in b)]
        claimable = [b for b in live
                     if all(r.state == RESERVED and r.start <= now
                            for r in b)]
        roll = rng.random()
        if roll < 0.25 and claimable:
            # a block starting in the past may already be overrunning
            book.claim_block(rng.choice(claimable), now)
        elif roll < 0.45 and live:
            block = rng.choice(live)
            book.release_block(block, now)
            blocks.remove(block)
        else:
            hosts = rng.sample(self.HOSTS, rng.randrange(1, 4))
            start = now + rng.randrange(-120, 300)
            end = start + rng.randrange(1, 150)
            try:
                blocks.append(book.reserve_block(f"e{k}", hosts, start, end))
            except ReservationConflict:
                pass  # rolled back: the calendars must read as before

    def test_patched_views_match_the_oracle(self):
        seen = {"later not_before": 0, "overrun host": 0}
        for seed in range(10):
            rng = random.Random(7000 + seed)
            book = ReservationBook(self.HOSTS)
            blocks = []
            now = 0.0
            for k in range(20):
                self._edit(book, rng, blocks, now, k)
            orders = [self.HOSTS[:], self.HOSTS[:]]
            for rnd in range(8):
                # two rounds in three repeat ``now``; candidate orders
                # mostly carry over from round to round
                now += rng.choice([0.0, 0.0, rng.randrange(1, 120)])
                rng.shuffle(rng.choice(orders))
                for step in range(10):
                    self._ask(book, rng, orders, now, seen)
                    self._edit(book, rng, blocks, now, 100 * rnd + step)
        assert min(seen.values()) > 50, seen
