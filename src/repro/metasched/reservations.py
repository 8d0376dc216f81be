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
costs O(log R) neighbour comparisons.  The book reads a host's live
reservations in two parts:

* **Claims**, through one *claims view* per candidate tuple, kept
  across rounds: one sorted multiset of every candidate's real claim
  ends, and ascending ``(value, index)`` lists of each host's
  free-until instant (its first claim's start) and its first claim's
  real end.  Nothing in it depends on ``now``: a claim whose real end
  is at most ``now + _EPS`` has overrun, and the queries read the
  grace horizon for it.  A calendar marks its host dirty in every view
  when a claim is made or released, and the view re-reads its dirty
  hosts when next asked.  A view no call asked for since the previous
  change of ``now`` is dropped, so host churn cannot pile views up.
* **Un-claimed reservations** (the round's plan: at most
  ``RESERVE_DEPTH`` blocks) as an *overlay*: one insertion-ordered
  dict shared by the book's calendars, which the queries read where
  they need it.  Booking or cancelling a plan touches no view.

:meth:`ReservationBook.find_window` sweeps candidate starts in
ascending order: ``not_before``, then the merge of the claims multiset
with the overlay's ends (and the grace horizon once a claim has
overrun), skipping instants within ``_EPS`` of the last start.  Every
live claim's effective end is past ``now + _EPS``, so at a start a
host can be free only if its first claim starts at or after the
window's end or ends by its start.  Two bisects count those hosts; a
start where fewer than ``n`` pass is skipped, and only they are
probed, in candidate order, by a scan of their live reservations that
stops at the first one starting past the window.
:meth:`ReservationBook.free_now` is that probe at ``now``, and
:meth:`ReservationBook.free_until` the ``n``-th largest free-until
instant, each overlay host's lowered to its first live un-claimed
start.  That is exact: a host's free-until instant is the start of its
first live reservation whose effective end is past ``now + _EPS``,
and the earlier of the two parts' firsts is that reservation.  The
linear window search the equivalence tests check
:meth:`ReservationBook.find_window` against lives in
``tests/oracles/metasched.py``.
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
        #: un-claimed live reservations, in booking order; the owning
        #: book shares one dict among its calendars (its overlay)
        self.unclaimed: Dict[Reservation, None] = {}
        #: the owning book's views' dirty sets: a claim made or released
        #: marks this host in each (see ReservationBook.calendar)
        self.dirty_sets: List[Dict[str, None]] = []
        #: released claims, as (job, start, release_time) — the audit log
        self.claim_history: List[Tuple[str, float, float]] = []

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

    def _claims_changed(self) -> None:
        for dirty in self.dirty_sets:
            dirty[self.host] = None

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
        self.unclaimed[resv] = None
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
        del self.unclaimed[resv]
        resv.state = CLAIMED
        self._claims_changed()

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
            self._claims_changed()
        else:
            del self.unclaimed[resv]
        resv.state = RELEASED

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


def _busy(active: List[Reservation], live: float, thr: float,
          overrun: float, horizon: float) -> bool:
    """Is a live reservation in ``active`` (sorted by start) in the way
    of ``[start, end)``, given ``live = start + _EPS`` and ``thr = end -
    _EPS``?  A claim ending by ``overrun`` (``now + _EPS``) has overrun
    and ends at ``horizon``.  The scan stops at the first reservation
    starting at or after ``thr``: every later one does too."""
    for resv in active:
        if resv.start >= thr:
            return False
        end = resv.end
        if end <= overrun and resv.state == CLAIMED:
            end = horizon
        if end > live:
            return True
    return False


class _ClaimsView:
    """The live claims of one candidate tuple, in candidate order.

    ``ends[i]`` are host ``i``'s real claim ends and ``times`` one
    sorted multiset of every candidate's.  ``by_until`` and
    ``by_first_end`` hold ``(value, i)`` in ascending order for each
    host's free-until instant (its first claim's start) and its first
    claim's real end, ``keys[i]`` host ``i``'s two entries; a host
    without claims reads ``inf`` in both.  ``dirty`` names the hosts
    whose claims changed since the view last read them, and ``asked``
    is the book epoch of the view's last use.

    Nothing here depends on ``now``: a claim whose real end is at most
    ``now + _EPS`` has overrun, and the probes read the grace horizon
    ``now + GRACE_SECONDS`` as its effective end.
    """

    __slots__ = ("cals", "index", "ends", "keys", "times", "by_until",
                 "by_first_end", "dirty", "asked")

    def __init__(self, cals: List[HostCalendar], asked: int) -> None:
        self.cals = cals
        self.index = {cal.host: i for i, cal in enumerate(cals)}
        self.dirty: Dict[str, None] = {}
        self.asked = asked
        reads = [self._read(i) for i in range(len(cals))]
        self.ends = [ends for ends, _keys in reads]
        self.keys = [keys for _ends, keys in reads]
        self.times = sorted(t for ends in self.ends for t in ends)
        self.by_until = sorted(until for until, _end in self.keys)
        self.by_first_end = sorted(end for _until, end in self.keys)

    def _read(self, i: int) -> Tuple[List[float], Tuple[Tuple[float, int],
                                                        Tuple[float, int]]]:
        """Host ``i``'s real claim ends, in start order, and its keys."""
        claims = [resv for resv in self.cals[i]._active
                  if resv.state == CLAIMED]
        if not claims:
            return [], ((math.inf, i), (math.inf, i))
        return ([resv.end for resv in claims],
                ((claims[0].start, i), (claims[0].end, i)))

    def until(self, i: int) -> float:
        """Host ``i``'s free-until instant over its claims."""
        return self.keys[i][0][0]

    def refresh(self) -> None:
        """Re-read the dirty hosts, moving their sorted-list entries."""
        times, index = self.times, self.index
        for host in self.dirty:
            i = index.get(host)
            if i is None:
                continue
            ends, keys = self._read(i)
            for t in self.ends[i]:
                del times[bisect_left(times, t)]
            for t in ends:
                insort(times, t)
            for entries, old, new in zip((self.by_until, self.by_first_end),
                                         self.keys[i], keys):
                del entries[bisect_left(entries, old)]
                insort(entries, new)
            self.ends[i], self.keys[i] = ends, keys
        self.dirty.clear()

    def free_at(self, start: float, duration: float, n_hosts: int,
                now: float) -> Tuple[Optional[List[int]], int]:
        """The first ``n_hosts`` candidate indices free over ``[start,
        start + duration)``, or ``None`` when fewer are, with the number
        of probes it took (``start`` is at least ``now``).

        A host is busy iff one of its live reservations ends, at its
        effective end, after ``start + _EPS`` and starts before
        ``start + duration - _EPS``.  Every live claim's effective end
        is past ``now + _EPS``, so its first claim is in the way unless
        it starts at or after that window end (its free-until instant)
        or ends by ``start + _EPS``.  Two bisects count the hosts
        passing either test; a start where fewer than ``n_hosts`` do is
        rejected, and only they are probed, in candidate order, by a
        scan of their live reservations that stops at the first one
        starting past the window.
        """
        thr = start + duration - _EPS
        live = start + _EPS
        overrun = now + _EPS
        horizon = now + GRACE_SECONDS
        by_until, by_first_end = self.by_until, self.by_first_end
        lo = bisect_left(by_until, (thr,))
        hi = bisect_right(by_first_end, (live, math.inf))
        # an overrunning first claim ends at the horizon
        first = 0 if horizon <= live else bisect_right(
            by_first_end, (overrun, math.inf), 0, hi)
        if len(by_until) - lo + hi - first < n_hosts:
            return None, 1
        pick = {i for _until, i in by_until[lo:]}
        pick.update(i for _end, i in by_first_end[first:hi])
        cals = self.cals
        free: List[int] = []
        probes = 0
        for i in sorted(pick):
            probes += 1
            if not _busy(cals[i]._active, live, thr, overrun, horizon):
                free.append(i)
                if len(free) == n_hosts:
                    return free, probes
        return None, probes


class ReservationBook:
    """The calendars of every host the metascheduler may book."""

    def __init__(self, hosts: Iterable[str] = ()) -> None:
        #: every calendar's un-claimed reservations (the overlay)
        self._unclaimed: Dict[Reservation, None] = {}
        #: each view's dirty set, shared with every calendar
        self._dirty: List[Dict[str, None]] = []
        self._calendars: Dict[str, HostCalendar] = {}
        for name in hosts:
            self.calendar(name)
        #: optional :class:`~repro.sim.stats.KernelStats` sink for the
        #: ``meta_plan_window_probes`` counter (set by the service)
        self.stats: Optional[KernelStats] = None
        #: one claims view per candidate tuple; ``_epoch`` counts the
        #: changes of the ``now`` the book was last asked at
        self._views: Dict[Tuple[str, ...], _ClaimsView] = {}
        self._view_now = math.nan
        self._epoch = 0

    def calendar(self, host: str) -> HostCalendar:
        cal = self._calendars.get(host)
        if cal is None:
            cal = self._calendars[host] = HostCalendar(host)
            cal.unclaimed = self._unclaimed
            cal.dirty_sets = self._dirty
        return cal

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
    def _view(self, candidates: Sequence[str], now: float) -> _ClaimsView:
        """The up-to-date claims view of ``candidates`` (distinct
        hosts).  When ``now`` changes, the views no call asked for
        since the previous change are dropped with their dirty sets."""
        if now != self._view_now:  # simlint: ignore[SL005] — exact cache-key match, not a tolerance decision
            epoch = self._epoch
            self._views = {key: view for key, view in self._views.items()
                           if view.asked == epoch}
            self._dirty[:] = [view.dirty for view in self._views.values()]
            self._view_now = now
            self._epoch += 1
        key = candidates if type(candidates) is tuple else tuple(candidates)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = _ClaimsView(
                [self.calendar(host) for host in key], self._epoch)
            self._dirty.append(view.dirty)
        else:
            if view.dirty:
                view.refresh()
            view.asked = self._epoch
        return view

    def _planned_ends(self, view: _ClaimsView, now: float) -> List[float]:
        """The sweep's second sorted list of candidate starts: the ends
        of the un-claimed reservations on ``view``'s candidates, plus
        the grace horizon when one of its claims has overrun.  The
        view's multiset keeps an overrun claim's real end, at most
        ``now + _EPS``: the sweep never starts there, as every start it
        skips past is at least ``now``."""
        index = view.index
        ends = [resv.end for resv in self._unclaimed if resv.host in index]
        if view.times and view.times[0] <= now + _EPS:
            ends.append(now + GRACE_SECONDS)
        ends.sort()
        return ends

    def find_window(self, n_hosts: int, duration: float, not_before: float,
                    candidates: Sequence[str], now: float
                    ) -> Optional[Tuple[float, List[str]]]:
        """Earliest ``(start, hosts)`` at or after ``not_before`` (which
        is at least ``now``) where ``n_hosts`` of the candidate list
        (tried in the given preference order) are simultaneously free
        for ``duration`` seconds.  ``None`` when no finite window
        exists (never happens while calendars hold finite intervals).

        Candidate starts are ``not_before`` and every later effective
        end of a live reservation on a candidate, ascending, with
        instants within ``_EPS`` of the previous start skipped: the
        claims view's multiset and :meth:`_planned_ends`, merged.  The
        result is identical to the linear-scan oracle in
        ``tests/oracles/metasched.py`` — the equivalence suite asserts
        it.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        if not_before < now:
            raise ValueError(
                f"window search from {not_before} before now ({now})")
        view = self._view(candidates, now)
        times = view.times
        planned_ends: Optional[List[float]] = None
        k = j = probes = 0
        start = not_before
        try:
            while True:
                free, n = view.free_at(start, duration, n_hosts, now)
                probes += n
                if free is not None:
                    return start, [candidates[i] for i in free]
                if planned_ends is None:
                    planned_ends = self._planned_ends(view, now)
                # the next start is the first end past start + _EPS in
                # either sorted list; both cursors only advance
                live = start + _EPS
                k = bisect_right(times, live, k)
                j = bisect_right(planned_ends, live, j)
                if j < len(planned_ends) and (
                        k == len(times) or planned_ends[j] < times[k]):
                    start = planned_ends[j]
                elif k < len(times):
                    start = times[k]
                else:
                    return None
        finally:
            if self.stats is not None:
                self.stats.meta_plan_window_probes += probes

    def free_now(self, n_hosts: int, duration: float,
                 candidates: Sequence[str],
                 now: float) -> Optional[List[str]]:
        """First ``n_hosts`` candidates (preference order) free for
        ``[now, now + duration)``, or ``None`` if fewer are free.

        Exactly the first probe of the :meth:`find_window` sweep (the
        ``start = not_before = now`` probe): when a job's only
        observable decision is "start immediately or stay blocked" —
        a backfill candidate behind a full reservation depth — this
        answers it without sweeping any later windows.  The bound on
        free-until instants answers the common backlogged case — "no
        n-host window exists right now" — in one bisect.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        free, probes = self._view(candidates, now).free_at(
            now, duration, n_hosts, now)
        if self.stats is not None:
            self.stats.meta_plan_window_probes += probes
        return None if free is None else [candidates[i] for i in free]

    def free_until(self, n_hosts: int, candidates: Sequence[str],
                   now: float) -> float:
        """The latest instant until which ``n_hosts`` of the candidates
        are all free from ``now`` (``inf`` when they stay free):
        ``free_now(n_hosts, duration, candidates, now)`` finds hosts
        iff ``now + duration - _EPS`` is at most this.

        A host's free-until instant is the start of its first live
        reservation whose effective end is past ``now + _EPS``.  Every
        live claim's is, so that is its first claim's start (the view's
        ``by_until``), lowered to its first such un-claimed start when
        that is earlier, and the answer is the ``n``-th largest of
        those.  Lowering can move the view's own ``n``-th largest,
        ``bound``, only through an un-claimed reservation that starts
        before it, so without one ``bound`` is the answer."""
        view = self._view(candidates, now)
        by_until = view.by_until
        bound = by_until[-n_hosts][0]
        live = now + _EPS
        index = view.index
        if not any(resv.start < bound and resv.end > live
                   and resv.host in index for resv in self._unclaimed):
            return bound
        lowered: Dict[int, float] = {}
        for resv in self._unclaimed:
            i = index.get(resv.host)
            if (i is not None and resv.end > live
                    and resv.start < lowered.get(i, view.until(i))):
                lowered[i] = resv.start
        values = [until for until, i in by_until if i not in lowered]
        values.extend(lowered.values())
        values.sort()
        return values[-n_hosts]

    def audit(self) -> List[str]:
        """All claim-overlap violations across every host (must be [])."""
        problems: List[str] = []
        for name in sorted(self._calendars):
            problems.extend(self._calendars[name].audit())
        return problems
