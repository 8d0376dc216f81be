"""Planner vs reference-oracle equivalence (DESIGN.md §9.6).

The production planner must be *observationally identical* to the
linear-scan oracle in ``tests/oracles/metasched.py``: same job
outcomes, same claim histories, byte-identical same-seed reports.
Both rebuild the plan every round, so the ``meta_plan_*`` counters of
rounds, kept and rebuilt reservations and wakes match too; only window
probes and estimate memo hits (how the planner searches, excluded from
reports) may differ.
"""

import collections
import random

import pytest

from repro.experiments.metasched_stream import (MetaschedResult,
                                               metasched_scale_grid,
                                               run_metasched)
from repro.gis.directory import GridInformationService
from repro.metasched import JobSpec, MetaScheduler, generate_stream
from repro.metasched.jobs import build_workflow
from repro.metasched.reservations import (CLAIMED, RELEASED, RESERVED,
                                         ReservationBook,
                                         ReservationConflict)
from repro.metasched.service import RESERVE_DEPTH, JobState
from repro.microgrid.testbed import fig3_testbed
from repro.nws.service import NetworkWeatherService
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from tests.oracles.metasched import (ReferenceMetaScheduler,
                                     reference_find_window,
                                     reference_free_until,
                                     reference_planner)


def build_service(service_cls=MetaScheduler, **kwargs):
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
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
        for host in sorted(fast.book._calendars):
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
    fired can never suppress — or force — a later arm decision.  A
    round arms at the earliest start it booked."""

    def test_pending_wake_suppresses_duplicate_arm(self):
        sim, service = build_service()
        service._arm_wake(200.0)
        assert sim.stats.meta_plan_wakes == 1
        assert service._pending_wakes == [200.0]
        # same earliest again: the pending wake already covers it
        service._arm_wake(200.0)
        assert sim.stats.meta_plan_wakes == 1

    def test_earlier_plan_gets_its_own_wake(self):
        sim, service = build_service()
        service._arm_wake(200.0)
        service._arm_wake(100.0)
        assert sim.stats.meta_plan_wakes == 2
        assert service._pending_wakes == [100.0, 200.0]

    def test_fired_wake_does_not_force_rearm(self):
        sim, service = build_service()
        service._arm_wake(200.0)
        service._arm_wake(100.0)
        assert sim.stats.meta_plan_wakes == 2
        # isolate the arm/forget mechanics from planning side effects
        service._round = lambda: None
        service._wake(100.0)  # the 100 s wake fires and forgets itself
        assert service._pending_wakes == [200.0]
        # The old planner kept the stale fired instant and re-armed
        # unconditionally when the 200 s plan was next the earliest;
        # now the pending wake covers it.
        service._arm_wake(200.0)
        assert sim.stats.meta_plan_wakes == 2  # no third arm

    def test_oracle_arms_at_the_earliest_queued_plan(self):
        # the oracle finds the earliest plan by scanning the queue
        sim, service = build_service(ReferenceMetaScheduler)
        for i, (name, start) in enumerate([("r1", 200.0), ("r2", 100.0)]):
            s = spec(name, user=f"u{i}")
            service.jobs[name] = JobState(spec=s,
                                          workflow=build_workflow(s))
            service.queue.push(s)
            service.jobs[name].planned = service.book.reserve_block(
                name, [f"utk.n{i}"], start, 300.0)
        service._schedule_wake()
        assert service._pending_wakes == [100.0]
        assert sim.stats.meta_plan_wakes == 1

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
    """Differential test for the book's claims views and overlay: edits
    between two calls at the same ``now`` (reserved, rolled-back,
    claimed and released blocks) must show in the answers of later
    calls.  Every ``find_window`` answer is checked against the linear
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
            for host in order for resv in book.calendar(host)._active)
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


class TestClaimsViewAcrossRounds:
    """Differential test for the claims views kept across ``now``
    changes: ``find_window``, ``free_now`` and ``free_until`` against
    the linear oracle and a brute-force ``n``-th largest free-until, on
    seeded random calendars where ``now`` mostly advances and sometimes
    moves back, claims start overrunning between two rounds with no
    edit, claimed and un-claimed reservations share hosts (with ends a
    sub-``_EPS`` apart across the two), blocks are rolled back and the
    candidate tuples churn."""

    HOSTS = [f"h{i}" for i in range(8)]

    def _tuple(self, rng):
        hosts = rng.sample(self.HOSTS, rng.randrange(2, len(self.HOSTS) + 1))
        return tuple(hosts)

    def _edit(self, book, rng, blocks, now, k, seen):
        live = [b for b in blocks if any(r.state != RELEASED for r in b)]
        claimable = [b for b in live
                     if all(r.state == RESERVED and r.start <= now
                            for r in b)]
        ends = [r.end for b in live for r in b if r.state != RELEASED]
        roll = rng.random()
        if roll < 0.25 and claimable:
            book.claim_block(rng.choice(claimable), now)
            return
        if roll < 0.4 and live:
            block = rng.choice(live)
            book.release_block(block, now)
            blocks.remove(block)
            return
        hosts = rng.sample(self.HOSTS, rng.randrange(1, 4))
        if roll < 0.55 and ends:
            # end a sub-eps away from a live end, maybe on another host
            end = rng.choice(ends) + rng.choice([-4e-10, 0.0, 4e-10])
            start = end - rng.randrange(1, 80)
        else:
            # short claims that start in the past overrun soon
            start = now + rng.randrange(-60, 250)
            end = start + rng.randrange(1, 120)
        try:
            blocks.append(book.reserve_block(f"e{k}", hosts, start, end))
        except ReservationConflict:
            seen["rolled back"] += len(hosts) > 1

    def _ask(self, book, rng, cands, now, last_now, seen):
        key_known = cands in book._views
        seen["view at a later now"] += key_known and now > last_now
        seen["view at an earlier now"] += key_known and now < last_now
        live = [r for host in cands for r in book.calendar(host)._active]
        seen["overrun since last round"] += any(
            r.state == CLAIMED and last_now + 1e-9 < r.end <= now + 1e-9
            for r in live)
        claimed = [r.end for r in live if r.state == CLAIMED]
        planned = [r.end for r in live if r.state == RESERVED]
        seen["eps-close ends"] += any(0 < abs(a - b) <= 1e-9
                                      for a in claimed for b in planned)
        seen["mixed host"] += any(
            {r.state for r in book.calendar(host)._active}
            == {CLAIMED, RESERVED} for host in cands)
        n = rng.randrange(1, len(cands) + 1)
        duration = rng.randrange(5, 200) * 1.0
        not_before = now + rng.choice([0.0, 0.0, rng.randrange(1, 150)])
        got = book.find_window(n, duration, not_before, cands, now)
        want = reference_find_window(book, n, duration, not_before,
                                     list(cands), now)
        assert got == want, (n, duration, not_before, now, cands)
        free = book.free_now(n, duration, cands, now)
        first = reference_find_window(book, n, duration, now, list(cands),
                                      now)
        if free is None:
            assert first is None or first[0] > now, (n, duration, now)
        else:
            assert first == (now, free), (n, duration, now)
        assert (book.free_until(n, cands, now)
                == reference_free_until(book, n, cands, now)), (n, now)

    def test_views_kept_across_rounds_match_the_oracle(self):
        seen = collections.Counter()
        for seed in range(12):
            rng = random.Random(9100 + seed)
            book = ReservationBook(self.HOSTS)
            blocks = []
            now = last_now = 0.0
            for k in range(12):
                self._edit(book, rng, blocks, now, k, seen)
            tuples = [tuple(self.HOSTS), self._tuple(rng)]
            for rnd in range(25):
                step = rng.choice([0.0, 5.0, rng.randrange(1, 90),
                                   -rng.randrange(1, 60)])
                now = max(now + step, 0.0)
                if rng.random() < 0.3:
                    # churn: a new candidate tuple replaces an old one
                    tuples[rng.randrange(len(tuples))] = self._tuple(rng)
                    seen["tuple churn"] += 1
                for step in range(6):
                    self._ask(book, rng, rng.choice(tuples), now, last_now,
                              seen)
                    self._edit(book, rng, blocks, now, 100 * rnd + step, seen)
                last_now = now
            # a view stays only while calls keep asking for it
            assert len(book._views) <= 2 * len(tuples)
        assert min(seen.values()) >= 5, seen
        assert len(seen) == 7, seen


class TailRecorder(MetaScheduler):
    """The planner, recording each tail test (``now``, verdict, the
    hosts its candidate tuple held) and each rebuild of an ISA's
    estimate groups after its candidate tuple changed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tail_tests = []
        self.rebuilds = []

    def _tail_may_start(self, now):
        verdict = super()._tail_may_start(now)
        self.tail_tests.append(
            (now, verdict, min(len(e.cand) for e in self._index.values())))
        return verdict

    def _refresh_index(self):
        before = {isa: entry.cand for isa, entry in self._index.items()}
        cands = super()._refresh_index()
        for isa, cand in before.items():
            if isa in self._index and self._index[isa].cand != cand:
                self.rebuilds.append((self.sim.now, len(cand),
                                      len(self._index[isa].cand)))
        return cands


class TestTailFilter:
    """Jobs behind ``RESERVE_DEPTH`` future reservations: one test per
    (ISA, host count) group decides whether the tail is probed at all,
    and the outcome matches the oracle's full window searches."""

    def _serve(self, service_cls):
        # "a" holds 11 of the 12 hosts for about 560 s; r0..r3 each
        # need all 12, so they book back-to-back windows after it.  The
        # 12th host is free until r0's start: "short" fits that gap and
        # backfills, "long" does not and waits behind the reservations.
        # "long" queues first, so "short" joins a group whose longest
        # estimate does not fit.
        sim, service = build_service(service_cls)
        specs = [spec("a", n_hosts=11, size=6000.0, submit=0.0)]
        specs += [spec(f"r{i}", n_hosts=12, submit=1.0 + i)
                  for i in range(RESERVE_DEPTH)]
        specs += [spec("long", n_hosts=1, size=15000.0, submit=5.0),
                  spec("short", n_hosts=1, size=500.0, submit=6.0)]
        done = service.run_stream(specs)
        sim.run(until=10.0)
        snapshot = {state.spec.name: (state.status, state.started_at,
                                      state.hosts, state.backfilled)
                    for state in service.states()}
        sim.run(stop_event=done)
        return service, snapshot

    def test_short_job_backfills_long_job_waits(self):
        fast, snapshot = self._serve(TailRecorder)
        ref, ref_snapshot = self._serve(ReferenceMetaScheduler)
        assert snapshot == ref_snapshot
        status, started_at, hosts, backfilled = snapshot["short"]
        assert (status, started_at, len(hosts), backfilled) == (
            "completed", 6.0, 1, True)
        assert snapshot["long"] == ("queued", None, (), False)
        assert all(snapshot[f"r{i}"][0] == "queued"
                   for i in range(RESERVE_DEPTH))
        # the tail test skipped "long" alone and passed with "short"
        verdicts = {now: verdict for now, verdict, _n in fast.tail_tests}
        assert verdicts[5.0] is False and verdicts[6.0] is True
        for a, b in zip(fast.states(), ref.states()):
            assert a.row() == b.row()

    def test_state_is_bounded_after_the_stream(self):
        fast, _snapshot = self._serve(MetaScheduler)
        assert all(state.status == "completed" for state in fast.states())
        assert fast._index == {}
        assert fast._planned == []
        assert fast._fresh == []
        assert all(state.estimate is None for state in fast.states())


#: host crashes and repairs (instant, host, action) while the deep
#: stream below has a tail behind the reservations
CHURN = [(300.0, "c0.n1", "fail"), (700.0, "c2.n3", "fail"),
         (900.0, "c1.n0", "fail"), (1300.0, "c0.n1", "recover"),
         (1600.0, "c2.n3", "recover"), (2200.0, "c1.n0", "recover")]


def serve_churn(service_cls, jobs=160, seed=4):
    """A saturated 16-user stream on the 64-host grid, with CHURN."""
    sim = Simulator()
    grid = metasched_scale_grid(sim, 64)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, cpu_period=60.0)
    service = service_cls(sim, grid, gis, nws)
    hosts = {host.name: host for host in grid.all_hosts()}
    for when, name, action in CHURN:
        sim.call_at(when, getattr(hosts[name], action))
    specs = generate_stream(16, 1 / 12.0, 12000.0, RngRegistry(seed),
                            max_jobs=jobs)
    sim.run(stop_event=service.run_stream(specs))
    result = MetaschedResult(
        users=16, arrival_rate=1 / 12.0, duration=12000.0, seed=seed,
        max_jobs=jobs, finished_at=sim.now, n_hosts=64,
        jobs=[state.row() for state in service.states()],
        counters=sim.stats.snapshot(), conflicts=service.audit_conflicts())
    return result, service


class TestDeepQueueChurn:
    """A deep queue on the 64-host grid while hosts crash and recover:
    the tail filter and the estimate index, rebuilt when the candidate
    tuple changes, must decide exactly as the oracle does."""

    def test_matches_oracle_under_host_churn(self):
        fast, planner = serve_churn(TailRecorder)
        ref, oracle = serve_churn(ReferenceMetaScheduler)
        assert fast.to_json() == ref.to_json()
        diagnostic = ("meta_plan_window_probes",
                      "meta_plan_estimate_memo_hits")
        for name, value in ref.counters.items():
            if name not in diagnostic:
                assert fast.counters[name] == value, name
        for host in sorted(planner.book._calendars):
            assert (planner.book.calendar(host).claim_history
                    == oracle.book.calendar(host).claim_history)
        assert fast.conflicts == []
        summary = fast.summary()
        assert summary["completed"] > 100 and summary["failed"] > 0
        # the filter skipped tails and passed one, also with a host down
        verdicts = [verdict for _now, verdict, _n in planner.tail_tests]
        assert verdicts.count(False) > 100 and True in verdicts
        assert any(verdict and n < 64
                   for _now, verdict, n in planner.tail_tests)
        # crashes shrank and repairs grew an indexed ISA's candidates
        assert any(after < before for _now, before, after
                   in planner.rebuilds)
        assert any(after > before for _now, before, after
                   in planner.rebuilds)
        assert planner._index == {} and planner._planned == []

    def test_book_state_is_bounded_after_churn(self):
        # Crashes and repairs change the candidate tuples; the views of
        # the tuples no longer asked for are dropped with their dirty
        # sets once ``now`` moves on.
        asked = []

        class Recorder(MetaScheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                view = self.book._view

                def record(candidates, now):
                    asked.append(tuple(candidates))
                    return view(candidates, now)
                self.book._view = record

        _result, planner = serve_churn(Recorder)
        book = planner.book
        assert len(set(asked)) > len(book._views) >= 1
        # only views asked at the book's last two instants remain ...
        assert all(view.asked >= book._epoch - 1
                   for view in book._views.values())
        # ... and only their dirty sets are left for calendars to mark
        assert len(book._dirty) == len(book._views)
        assert all(dirty is view.dirty for dirty, view
                   in zip(book._dirty, book._views.values()))
        assert all(len(key) == 64 for key in book._views)
