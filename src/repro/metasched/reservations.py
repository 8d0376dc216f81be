"""Per-host advance-reservation calendars.

Each host owns a :class:`HostCalendar` of non-overlapping time
intervals; a :class:`ReservationBook` aggregates the calendars of a
whole testbed and answers the planning questions the metascheduler
asks: "when is the earliest window in which ``n`` hosts are free for
``duration`` seconds?" and "which ``n`` hosts are free for it right
now?".

Invariants (DESIGN.md §9):

* intervals of unreleased reservations on one host never overlap —
  :meth:`HostCalendar.reserve` refuses conflicting inserts, and
  :meth:`ReservationBook.reserve_block` rolls back partial blocks;
* a **claim** records actual occupancy: it starts when the job starts
  and is truncated to the release instant when the job ends, so the
  claim history is exactly the execution timeline.  ``audit()`` proves
  no two claims ever overlapped on any host;
* a claimed reservation whose estimated ``end`` has passed while the
  job is still running occupies its hosts until released — planners
  see an *effective* end pushed :data:`GRACE_SECONDS` past "now",
  which bounds how often an overrun forces a re-plan.

The planning hot path (DESIGN.md §9.6): a calendar keeps its
reservations bisect-sorted by start, so a conflict check or an insert
costs O(log R) neighbour comparisons.  The book keeps one *candidate
view* per candidate tuple for the current ``now``: each host's
effective ends (overrunning claims pushed :data:`GRACE_SECONDS` past
now), one sorted multiset of all of them, and the instant each host
stays free until from now with its ascending copy.  When the book's
edit counter moves, the view patches only the hosts whose own edit
counter moved (bisect out their old entries, insort the new ones), so
the many calls of one planning round share one set-up.
:meth:`ReservationBook.find_window` answers a start at ``now`` from the
free-until instants, then sweeps the multiset in ascending order,
skipping instants within ``_EPS`` of the last start, and tests each
host with a per-host cursor that only advances.  The free-until
instants are that cursor's stops at ``now``, so :meth:`free_now` and
the planner's tail test (:meth:`ReservationBook.free_until`) ask the
same question with one comparison.  The linear window search the
equivalence tests check :meth:`ReservationBook.find_window` against
lives in ``tests/oracles/metasched.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from ..sim.stats import KernelStats

__all__ = ["Reservation", "ReservationConflict", "HostCalendar",
           "ReservationBook"]

#: slack when comparing simulated times (floats accumulated over events)
_EPS = 1e-9

#: how far past "now" an overrunning claim is taken to block its host:
#: the planner re-checks at that horizon instead of busy-waiting
GRACE_SECONDS = 30.0

#: reservation lifecycle states
RESERVED = "reserved"
CLAIMED = "claimed"
RELEASED = "released"


class ReservationConflict(RuntimeError):
    """Raised when an insert would overlap an existing reservation."""


class Reservation:
    """One job's booking of one host over ``[start, end)``."""

    __slots__ = ("job", "host", "start", "end", "state")

    def __init__(self, job: str, host: str, start: float, end: float) -> None:
        if end <= start:
            raise ValueError(f"empty reservation [{start}, {end})")
        self.job = job
        self.host = host
        self.start = float(start)
        self.end = float(end)
        self.state = RESERVED

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end - _EPS and start < self.end - _EPS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Reservation {self.job}@{self.host} "
                f"[{self.start:.1f}, {self.end:.1f}) {self.state}>")


class HostCalendar:
    """Non-overlapping reservations for a single host, sorted by start."""

    def __init__(self, host: str) -> None:
        self.host = host
        #: live (reserved or claimed) reservations, sorted by start
        self._active: List[Reservation] = []
        #: parallel array of starts — the bisect index over ``_active``
        self._starts: List[float] = []
        #: monotone edit counter; any mutation bumps it (view patching)
        self.mutations = 0
        #: shared with the owning book (see ReservationBook.calendar): one
        #: book-wide edit counter that tells its views something changed
        self.version_cell = [0]
        #: released claims, as (job, start, release_time) — the audit log
        self.claim_history: List[Tuple[str, float, float]] = []

    # -- queries -----------------------------------------------------------
    def active(self) -> List[Reservation]:
        return list(self._active)

    def _effective_ends(self, now: float) -> List[float]:
        """Effective end per live reservation, in start order.

        An overrunning claim (still running past its estimate) blocks
        until ``now + GRACE_SECONDS``.
        """
        horizon = now + GRACE_SECONDS
        return [horizon if resv.state == CLAIMED and resv.end <= now + _EPS
                else resv.end for resv in self._active]

    # -- mutation ----------------------------------------------------------
    def _index_of(self, resv: Reservation) -> int:
        """Position of ``resv`` in the sorted arrays (identity match)."""
        i = bisect_left(self._starts, resv.start)
        while i < len(self._active):
            if self._active[i] is resv:
                return i
            if self._starts[i] > resv.start:
                break
            i += 1
        raise ValueError("reservation does not belong to this calendar")

    def reserve(self, job: str, start: float, end: float) -> Reservation:
        """Book ``[start, end)``; raises :class:`ReservationConflict`.

        Non-overlap means only the bisect neighbours can conflict, so
        the check is O(log R) instead of a scan of every reservation.
        """
        start = float(start)
        end = float(end)
        if end <= start:
            raise ValueError(f"empty reservation [{start}, {end})")
        i = bisect_right(self._starts, start)
        if i > 0 and self._active[i - 1].overlaps(start, end):
            raise ReservationConflict(
                f"{self.host}: [{start:.1f}, {end:.1f}) for {job} "
                f"overlaps {self._active[i - 1]!r}")
        if i < len(self._active) and self._active[i].overlaps(start, end):
            raise ReservationConflict(
                f"{self.host}: [{start:.1f}, {end:.1f}) for {job} "
                f"overlaps {self._active[i]!r}")
        resv = Reservation(job, self.host, start, end)
        self._active.insert(i, resv)
        self._starts.insert(i, start)
        self.mutations += 1
        self.version_cell[0] += 1
        return resv

    def claim(self, resv: Reservation, now: float) -> None:
        """Mark a reservation as actually occupied from ``now`` on.

        Refuses a claim before the reservation's start: backdating it
        would occupy time no conflict check has cleared.
        """
        if resv.state != RESERVED:
            raise ValueError(f"cannot claim a {resv.state} reservation")
        if now < resv.start - _EPS:
            raise ValueError(
                f"cannot claim {resv!r} at {now:.3f}, before it starts")
        self._index_of(resv)
        resv.state = CLAIMED
        self.mutations += 1
        self.version_cell[0] += 1

    def release(self, resv: Reservation, now: float) -> None:
        """End a reservation.  Claims are truncated/extended to the
        actual release instant and logged for the overlap audit;
        un-started reservations are simply cancelled."""
        if resv.state == RELEASED:
            raise ValueError("reservation already released")
        i = self._index_of(resv)
        del self._active[i]
        del self._starts[i]
        if resv.state == CLAIMED:
            resv.end = max(now, resv.start + _EPS)
            self.claim_history.append((resv.job, resv.start, resv.end))
        resv.state = RELEASED
        self.mutations += 1
        self.version_cell[0] += 1

    def audit(self) -> List[str]:
        """Overlap violations among all claims, past and present."""
        intervals = list(self.claim_history)
        intervals.extend((r.job, r.start, math.inf)
                         for r in self._active if r.state == CLAIMED)
        intervals.sort(key=lambda item: (item[1], item[2], item[0]))
        problems = []
        for (job_a, start_a, end_a), (job_b, start_b, end_b) in zip(
                intervals, intervals[1:]):
            if start_b < end_a - _EPS:
                problems.append(
                    f"{self.host}: claims overlap — {job_a} "
                    f"[{start_a:.3f}, {end_a:.3f}) and {job_b} "
                    f"[{start_b:.3f}, {end_b:.3f})")
        return problems


class _CandidateView:
    """The availability profile of one candidate tuple at one ``now``,
    in candidate order.

    ``starts`` are the calendars' own start arrays (edited in place),
    ``ends`` each host's effective ends, ``times`` one sorted multiset
    of every host's effective ends, ``free_until`` the instant each
    host stays free until from now and ``sorted_free_until`` its
    ascending copy.  ``muts`` holds the calendar edit counters the
    entries were computed at.

    A host's effective ends need not ascend: an overrunning claim's end
    reads ``now + GRACE_SECONDS``, later than the ends of bookings
    behind it.  The first reservation whose effective end is past an
    instant still has the smallest start of every reservation that can
    block a window opening there, so one cursor per host stays exact.
    """

    __slots__ = ("cals", "starts", "ends", "muts", "times", "free_until",
                 "sorted_free_until", "version")

    def __init__(self, cals: List[HostCalendar], now: float,
                 version: int) -> None:
        self.cals = cals
        self.starts = [cal._starts for cal in cals]
        self.ends = [cal._effective_ends(now) for cal in cals]
        self.muts = [cal.mutations for cal in cals]
        self.times = sorted(t for ends in self.ends for t in ends)
        self.free_until = [self._free_until(i, now)
                           for i in range(len(cals))]
        self.sorted_free_until = sorted(self.free_until)
        self.version = version

    def _free_until(self, i: int, now: float) -> float:
        """Start of host ``i``'s first reservation still live at
        ``now`` (``inf`` if none): the reservation the sweep's cursor
        stops at for ``start = now``.  At most ``now + _EPS`` while one
        holds the host, overrunning claims included."""
        live = now + _EPS
        for start, end in zip(self.starts[i], self.ends[i]):
            if end > live:
                return start
        return math.inf

    def first_free(self, n_hosts: int, threshold: float,
                   candidates: Sequence[str]
                   ) -> Tuple[Optional[List[str]], int]:
        """The first ``n_hosts`` candidates free until at least
        ``threshold``, or ``None`` when fewer are, with the number of
        probes it took.  The ascending copy rejects in one comparison."""
        if self.sorted_free_until[-n_hosts] < threshold:
            return None, 1
        probes = 0
        free: List[str] = []
        for host, until in zip(candidates, self.free_until):
            probes += 1
            if until >= threshold:
                free.append(host)
                if len(free) == n_hosts:
                    break
        return free, probes

    def patch(self, now: float, version: int) -> None:
        """Recompute the hosts whose calendar changed since the view
        last looked, moving their entries in the sorted lists."""
        times, until, sorted_until = (self.times, self.free_until,
                                      self.sorted_free_until)
        for i, cal in enumerate(self.cals):
            if cal.mutations == self.muts[i]:
                continue
            self.muts[i] = cal.mutations
            for t in self.ends[i]:
                del times[bisect_left(times, t)]
            self.ends[i] = cal._effective_ends(now)
            for t in self.ends[i]:
                insort(times, t)
            del sorted_until[bisect_left(sorted_until, until[i])]
            until[i] = self._free_until(i, now)
            insort(sorted_until, until[i])
        self.version = version


class ReservationBook:
    """The calendars of every host the metascheduler may book."""

    def __init__(self, hosts: Iterable[str] = ()) -> None:
        #: one shared edit counter: every calendar mutation bumps it, so
        #: a view whose recorded value still matches is up to date
        self._vcell = [0]
        self._calendars: Dict[str, HostCalendar] = {}
        for name in hosts:
            self.calendar(name)
        #: optional :class:`~repro.sim.stats.KernelStats` sink for the
        #: ``meta_plan_window_probes`` counter (set by the service)
        self.stats: Optional[KernelStats] = None
        #: one view per candidate tuple, all for ``_view_now``
        self._views: Dict[Tuple[str, ...], _CandidateView] = {}
        self._view_now = math.nan

    def calendar(self, host: str) -> HostCalendar:
        cal = self._calendars.get(host)
        if cal is None:
            cal = self._calendars[host] = HostCalendar(host)
            cal.version_cell = self._vcell
        return cal

    def hosts(self) -> List[str]:
        return sorted(self._calendars)

    # -- block operations --------------------------------------------------
    def reserve_block(self, job: str, hosts: Sequence[str], start: float,
                      end: float) -> List[Reservation]:
        """Reserve ``[start, end)`` on every host, atomically."""
        made: List[Reservation] = []
        try:
            for host in hosts:
                made.append(self.calendar(host).reserve(job, start, end))
        except ReservationConflict:
            for resv in made:
                self.calendar(resv.host).release(resv, start)
            raise
        return made

    def claim_block(self, reservations: Sequence[Reservation],
                    now: float) -> None:
        for resv in reservations:
            self.calendar(resv.host).claim(resv, now)

    def release_block(self, reservations: Sequence[Reservation],
                      now: float) -> None:
        for resv in reservations:
            if resv.state != RELEASED:
                self.calendar(resv.host).release(resv, now)

    # -- planning ----------------------------------------------------------
    def _view(self, candidates: Sequence[str], now: float) -> _CandidateView:
        """The up-to-date view of ``candidates`` at ``now``."""
        if now != self._view_now:  # simlint: ignore[SL005] — exact cache-key match, not a tolerance decision
            self._views = {}
            self._view_now = now
        key = candidates if type(candidates) is tuple else tuple(candidates)
        version = self._vcell[0]
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = _CandidateView(
                [self.calendar(host) for host in key], now, version)
        elif view.version != version:
            view.patch(now, version)
        return view

    def find_window(self, n_hosts: int, duration: float, not_before: float,
                    candidates: Sequence[str], now: float
                    ) -> Optional[Tuple[float, List[str]]]:
        """Earliest ``(start, hosts)`` where ``n_hosts`` of the candidate
        list (tried in the given preference order) are simultaneously
        free for ``duration`` seconds.  ``None`` when no finite window
        exists (never happens while calendars hold finite intervals).

        Candidate starts are ``not_before`` and every later effective
        end in the view, ascending, with instants within ``_EPS`` of
        the previous start skipped.  When ``not_before`` is ``now`` the
        first start is answered from the view's free-until instants,
        exactly as :meth:`free_now` answers it, so a backlogged book
        rejects it in one comparison.  The result is identical to the
        linear-scan oracle in ``tests/oracles/metasched.py`` — the
        equivalence suite asserts it.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        view = self._view(candidates, now)
        # Monotone pointer sweep: starts ascend, so a per-host cursor
        # to the first reservation whose effective end is past the
        # start only advances, and each (start, host) probe is O(1)
        # amortized.  Starts are sorted, so that reservation blocks
        # the window iff any live one does (see _CandidateView).
        times, starts_arrs, ends_arrs = view.times, view.starts, view.ends
        ptrs = [0] * len(candidates)
        k = probes = 0
        start = not_before
        # the free-until instants are the cursor's stops at start = now
        at_now = not_before == now  # simlint: ignore[SL005] — the caller passes its own now; only that exact instant has precomputed stops
        free: Optional[List[str]]
        try:
            while True:
                end = start + duration
                if at_now:
                    at_now = False
                    free, probes = view.first_free(n_hosts, end - _EPS,
                                                   candidates)
                    if free is not None:
                        return start, free
                else:
                    free = []
                    for i, host in enumerate(candidates):
                        probes += 1
                        ends = ends_arrs[i]
                        p = ptrs[i]
                        while p < len(ends) and ends[p] <= start + _EPS:
                            p += 1
                        ptrs[i] = p
                        starts = starts_arrs[i]
                        if p < len(starts) and starts[p] < end - _EPS:
                            continue
                        free.append(host)
                        if len(free) == n_hosts:
                            return start, free
                k = bisect_right(times, start + _EPS, k)
                if k == len(times):
                    return None
                start = times[k]
                k += 1
        finally:
            if self.stats is not None:
                self.stats.meta_plan_window_probes += probes

    def free_now(self, n_hosts: int, duration: float,
                 candidates: Sequence[str],
                 now: float) -> Optional[List[str]]:
        """First ``n_hosts`` candidates (preference order) free for
        ``[now, now + duration)``, or ``None`` if fewer are free.

        Exactly the first iteration of the :meth:`find_window` sweep
        (the ``start = not_before = now`` probe): when a job's only
        observable decision is "start immediately or stay blocked" —
        a backfill candidate behind a full reservation depth — this
        answers it without sweeping any later windows.  A host is free
        when its free-until instant is at least ``now + duration -
        _EPS``, the cursor's own test; the view's ascending copy
        answers the common backlogged case — "no n-host window exists
        right now" — in one comparison.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        free, probes = self._view(candidates, now).first_free(
            n_hosts, now + duration - _EPS, candidates)
        if self.stats is not None:
            self.stats.meta_plan_window_probes += probes
        return free

    def free_until(self, n_hosts: int, candidates: Sequence[str],
                   now: float) -> float:
        """The latest instant until which ``n_hosts`` of the candidates
        are all free from ``now`` (``inf`` when they stay free):
        ``free_now(n_hosts, duration, candidates, now)`` finds hosts
        iff ``now + duration - _EPS`` is at most this."""
        return self._view(candidates, now).sorted_free_until[-n_hosts]

    def audit(self) -> List[str]:
        """All claim-overlap violations across every host (must be [])."""
        problems: List[str] = []
        for name in sorted(self._calendars):
            problems.extend(self._calendars[name].audit())
        return problems
