"""Reservation calendar invariants (DESIGN.md §9.3, §9.6)."""

import pytest

from repro.metasched.reservations import (
    HostCalendar,
    Reservation,
    ReservationBook,
    ReservationConflict,
    _busy,
)
from tests.oracles.metasched import (
    _dedup_times,
    busy_during_reference,
    reference_find_window,
)


class TestReservation:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Reservation("j", "h", 10.0, 10.0)

    def test_overlap_is_half_open(self):
        resv = Reservation("j", "h", 10.0, 20.0)
        assert resv.overlaps(15.0, 25.0)
        assert not resv.overlaps(20.0, 30.0)  # touching is not overlap
        assert not resv.overlaps(0.0, 10.0)


class TestHostCalendar:
    def test_reserve_refuses_overlap(self):
        cal = HostCalendar("h")
        cal.reserve("a", 0.0, 100.0)
        with pytest.raises(ReservationConflict):
            cal.reserve("b", 50.0, 150.0)
        cal.reserve("b", 100.0, 150.0)  # abutting is fine

    def test_claim_refuses_backdate_over_live_claim(self):
        # Backdating b's claim to 30 s would overlap a's live claim on
        # [0, 40): claim must refuse it and leave the calendar as it was.
        cal = HostCalendar("h")
        a = cal.reserve("a", 0.0, 40.0)
        cal.claim(a, 0.0)
        b = cal.reserve("b", 50.0, 100.0)
        with pytest.raises(ValueError):
            cal.claim(b, 30.0)
        assert (b.start, b.end, b.state) == (50.0, 100.0, "reserved")
        assert cal._active == [a, b]
        assert list(cal.unclaimed) == [b]
        # the refused claim is still claimable once it starts
        cal.release(a, 40.0)
        cal.claim(b, 50.0)
        cal.release(b, 100.0)
        assert cal.claim_history == [("a", 0.0, 40.0), ("b", 50.0, 100.0)]
        assert cal.audit() == []

    def test_claim_requires_reserved_state(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 10.0)
        cal.claim(resv, 0.0)
        with pytest.raises(ValueError):
            cal.claim(resv, 1.0)

    def test_release_truncates_claims_into_history(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        cal.release(resv, 60.0)
        assert cal.claim_history == [("a", 0.0, 60.0)]
        assert cal._active == []

    def test_release_of_unstarted_reservation_leaves_no_history(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 50.0, 100.0)
        cal.release(resv, 10.0)
        assert cal.claim_history == []

    def test_overdue_claim_blocks_until_grace_horizon(self):
        book = ReservationBook(["h"])
        cal = book.calendar("h")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        # The job overran its estimate: at t=200 the claim still blocks,
        # but only until now + GRACE_SECONDS (30 s).
        assert busy_during_reference(cal, 200.0, 210.0, now=200.0)
        assert not busy_during_reference(cal, 231.0, 240.0, now=200.0)
        assert book.find_window(1, 10.0, 200.0, ["h"],
                                200.0) == (230.0, ["h"])

    def test_audit_catches_manufactured_overlap(self):
        cal = HostCalendar("h")
        cal.claim_history.append(("a", 0.0, 60.0))
        cal.claim_history.append(("b", 50.0, 90.0))
        problems = cal.audit()
        assert len(problems) == 1
        assert "overlap" in problems[0]

    def test_audit_clean_on_abutting_claims(self):
        cal = HostCalendar("h")
        cal.claim_history.append(("a", 0.0, 60.0))
        cal.claim_history.append(("b", 60.0, 90.0))
        assert cal.audit() == []


class TestReservationBook:
    def test_reserve_block_rolls_back_on_conflict(self):
        book = ReservationBook(["h1", "h2", "h3"])
        book.reserve_block("a", ["h2"], 0.0, 100.0)
        with pytest.raises(ReservationConflict):
            book.reserve_block("b", ["h1", "h2"], 50.0, 150.0)
        # the partial h1 booking was rolled back
        assert book.calendar("h1")._active == []

    def test_find_window_immediate_when_free(self):
        book = ReservationBook(["h1", "h2"])
        start, hosts = book.find_window(2, 60.0, 10.0, ["h1", "h2"], 10.0)
        assert start == 10.0
        assert hosts == ["h1", "h2"]

    def test_find_window_waits_for_earliest_gap(self):
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h2"], 0.0, 200.0)
        start, hosts = book.find_window(1, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert (start, hosts) == (100.0, ["h1"])
        start, hosts = book.find_window(2, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert (start, hosts) == (200.0, ["h1", "h2"])

    def test_find_window_fits_backfill_gap(self):
        book = ReservationBook(["h1"])
        book.reserve_block("head", ["h1"], 100.0, 200.0)
        # A 50 s job fits in [0, 100) without touching the reservation...
        start, hosts = book.find_window(1, 50.0, 0.0, ["h1"], 0.0)
        assert (start, hosts) == (0.0, ["h1"])
        # ...but a 150 s job must wait until the reservation ends.
        start, hosts = book.find_window(1, 150.0, 0.0, ["h1"], 0.0)
        assert start == 200.0

    def test_find_window_respects_preference_order(self):
        book = ReservationBook(["h1", "h2"])
        start, hosts = book.find_window(1, 10.0, 0.0, ["h2", "h1"], 0.0)
        assert hosts == ["h2"]

    def test_find_window_impossible_host_count(self):
        book = ReservationBook(["h1"])
        assert book.find_window(2, 10.0, 0.0, ["h1"], 0.0) is None

    def test_audit_aggregates_hosts(self):
        book = ReservationBook(["h1", "h2"])
        book.calendar("h2").claim_history.extend(
            [("a", 0.0, 60.0), ("b", 30.0, 90.0)])
        problems = book.audit()
        assert len(problems) == 1
        assert problems[0].startswith("h2:")


class TestCandidateTimeDedup:
    """Eps-close floats are one candidate start, not several."""

    def test_dedup_collapses_within_eps(self):
        times = [100.0, 100.0 + 5e-10, 0.0, 100.0 - 3e-10, 200.0]
        assert _dedup_times(times) == [0.0, 100.0 - 3e-10, 200.0]

    def test_dedup_keeps_distinct_instants(self):
        assert _dedup_times([3.0, 1.0, 2.0]) == [1.0, 2.0, 3.0]

    def test_find_window_merges_eps_close_reservation_ends(self):
        # Two hosts whose reservations end a sub-eps apart: the sweep
        # must treat that as ONE candidate start, as the oracle does.
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h2"], 0.0, 100.0 + 5e-10)
        got = book.find_window(2, 50.0, 0.0, ["h1", "h2"], 0.0)
        want = reference_find_window(book, 2, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert got == want
        start, hosts = got
        assert hosts == ["h1", "h2"]
        assert abs(start - 100.0) < 1e-9


class TestOverrunHorizons:
    """Overrunning claims and the grace horizon (DESIGN.md §9.3)."""

    def test_horizon_times_mixes_grace_and_real_ends(self):
        book = ReservationBook(["h"])
        cal = book.calendar("h")
        running = cal.reserve("running", 0.0, 100.0)
        cal.claim(running, 0.0)
        cal.reserve("future", 400.0, 500.0)
        # At t=200 the claim has overrun: its effective end is
        # now + GRACE_SECONDS, while the untouched booking keeps its
        # real end.  Both are candidate window starts.
        assert book.find_window(1, 100.0, 200.0, ["h"],
                                200.0) == (230.0, ["h"])
        assert book.find_window(1, 200.0, 200.0, ["h"],
                                200.0) == (500.0, ["h"])
        # Before the estimate elapsed, both ends are the real ones.
        assert book.find_window(1, 100.0, 50.0, ["h"],
                                50.0) == (100.0, ["h"])
        assert book.find_window(1, 350.0, 50.0, ["h"],
                                50.0) == (500.0, ["h"])

    def test_has_overrun_is_per_host(self):
        book = ReservationBook(["h1", "h2"])
        resv = book.calendar("h1").reserve("a", 0.0, 100.0)
        book.calendar("h1").claim(resv, 0.0)
        # at 150 the claim has overrun: h1 is held until the grace
        # horizon, h2 is untouched
        assert book.free_now(1, 10.0, ["h1"], 150.0) is None
        assert book.find_window(1, 10.0, 150.0, ["h1"],
                                150.0) == (180.0, ["h1"])
        assert book.free_now(1, 10.0, ["h2"], 150.0) == ["h2"]
        # at 50 it has not: h1 frees at the claim's own end
        assert book.find_window(1, 10.0, 50.0, ["h1"],
                                50.0) == (100.0, ["h1"])

    def test_release_clears_overrun(self):
        book = ReservationBook(["h1"])
        cal = book.calendar("h1")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        assert book.find_window(1, 10.0, 150.0, ["h1"],
                                150.0) == (180.0, ["h1"])
        cal.release(resv, 150.0)
        assert book.free_now(1, 10.0, ["h1"], 150.0) == ["h1"]
        assert book.find_window(1, 10.0, 150.0, ["h1"],
                                150.0) == (150.0, ["h1"])

    def test_free_now_skips_overrunning_host(self):
        book = ReservationBook(["h1", "h2"])
        resv = book.calendar("h1").reserve("a", 0.0, 100.0)
        book.calendar("h1").claim(resv, 0.0)
        # h1's job is still running at t=150; only h2 is free now.
        assert book.free_now(1, 60.0, ["h1", "h2"], 150.0) == ["h2"]
        assert book.free_now(2, 60.0, ["h1", "h2"], 150.0) is None

    def test_probe_reads_the_grace_horizon(self):
        # the window probe's own test, without the bound that keeps
        # hosts with an overrunning first claim from reaching it
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        now = 150.0
        probe = dict(overrun=now + 1e-9, horizon=now + 30.0)
        for start, busy in ((150.0, True), (175.0, True), (180.0, False)):
            live, thr = start + 1e-9, start + 10.0 - 1e-9
            assert _busy(cal._active, live, thr, **probe) is busy, start

    def test_cursor_matches_oracle_on_non_monotone_ends(self):
        # At 150 the claim on [0, 100) has overrun and reads 180, while
        # the booking behind it still ends at 170: the host's effective
        # ends do not ascend.  reserve() checks nominal ends, so the
        # booking is allowed.
        book = ReservationBook(["h"])
        cal = book.calendar("h")
        running = cal.reserve("running", 0.0, 100.0)
        cal.claim(running, 0.0)
        cal.reserve("behind", 160.0, 170.0)
        for t in map(float, range(150, 201)):
            for duration in (5.0, 25.0, 60.0):
                got = book.find_window(1, duration, t, ["h"], 150.0)
                want = reference_find_window(book, 1, duration, t, ["h"],
                                             150.0)
                assert got == want, (t, duration)
                # free_now probes start = now, so it is asked at now = t
                free = book.free_now(1, duration, ["h"], t)
                first = reference_find_window(book, 1, duration, t, ["h"], t)
                if free is None:
                    assert first is None or first[0] > t, (t, duration)
                else:
                    assert first == (t, free), (t, duration)


class TestIncrementalInternals:
    """The §9.6 fast-path bookkeeping the planner relies on."""

    def test_free_now_tracks_every_mutation(self):
        # free_now reads each host's gap from the book's candidate view
        # at ``now``; every mutation kind must be patched into it.
        book = ReservationBook(["h1", "h2"])
        hosts = ("h1", "h2")
        now = 150.0
        assert book.free_now(2, 50.0, hosts, now) == ["h1", "h2"]
        blocker = book.reserve_block("b", ["h2"], 160.0, 400.0)
        assert book.free_now(2, 50.0, hosts, now) is None
        assert book.free_now(1, 50.0, hosts, now) == ["h1"]
        book.release_block(blocker, now)
        assert book.free_now(2, 50.0, hosts, now) == ["h1", "h2"]
        # a past un-started reservation does not block...
        running = book.reserve_block("a", ["h1"], 0.0, 100.0)
        assert book.free_now(2, 50.0, hosts, now) == ["h1", "h2"]
        # ...but once claimed, its job is overrunning and holds h1
        book.claim_block(running, 0.0)
        assert book.free_now(2, 50.0, hosts, now) is None
        assert book.free_now(1, 50.0, hosts, now) == ["h2"]
        book.release_block(running, now)
        assert book.free_now(2, 50.0, hosts, now) == ["h1", "h2"]
        # the sweep's cursor passes intervals that ended before its start
        for job, start in (("p", 0.0), ("q", 20.0), ("r", 40.0)):
            book.reserve_block(job, ["h1"], start, start + 10.0)
        assert book.find_window(1, 10.0, 15.0, ["h1"],
                                15.0) == (30.0, ["h1"])

    def test_lazily_created_calendar_shares_version_cell(self):
        book = ReservationBook()
        cal = book.calendar("new-host")
        assert book.free_now(1, 10.0, ("new-host",), 0.0) == ["new-host"]
        # booked through the calendar itself, not the book
        cal.reserve("a", 0.0, 10.0)
        assert book.free_now(1, 10.0, ("new-host",), 0.0) is None

    def test_free_now_after_rolled_back_block(self):
        # A rollback inserts then releases; free_now must see the
        # calendars as if the block had never been attempted.
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h2"], 0.0, 100.0)
        assert book.free_now(1, 50.0, ("h1", "h2"), 0.0) == ["h1"]
        with pytest.raises(ReservationConflict):
            book.reserve_block("b", ["h1", "h2"], 0.0, 150.0)
        assert book.free_now(1, 50.0, ("h1", "h2"), 0.0) == ["h1"]
        assert book.free_now(2, 50.0, ("h1", "h2"), 0.0) is None
        assert book.free_now(1, 50.0, ("h1", "h2"), 100.0) == ["h1"]
        assert book.free_now(2, 50.0, ("h1", "h2"), 100.0) == ["h1", "h2"]
