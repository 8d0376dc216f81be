"""Reference oracle for the metascheduler's planner.

:class:`ReferenceMetaScheduler` is the pre-overhaul planner: like the
production planner it cancels every un-started reservation each round
and rebuilds the plan from scratch, but it finds those reservations,
and the earliest of them for the wake, by scanning the whole queue,
and every job gets a full :func:`reference_find_window` linear-scan
window search, with no estimate index and no "free now?" probe or
tail filter behind the reservation depth.
That search re-checks every candidate start on every host with
:func:`busy_during_reference`, a linear scan of the host's live
reservations that reads an overrunning claim's grace horizon itself,
where :meth:`ReservationBook.find_window` advances one cursor per
host.
The equivalence tests assert that the production planner
(:class:`repro.metasched.MetaScheduler`) makes the same decisions:
same job outcomes, same claim histories, byte-identical same-seed
reports, and the same ``meta_plan_*`` counters except window probes
and estimate memo hits.

:func:`reference_planner` swaps the oracle in for a block by rebinding
the ``MetaScheduler`` name the metasched stream driver and the soak
runner build their service from, so the product carries no planner
parameter.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.experiments import metasched_stream
from repro.metasched import MetaScheduler
from repro.metasched.service import RESERVE_DEPTH
from repro.metasched.reservations import (
    _EPS,
    CLAIMED,
    GRACE_SECONDS,
    HostCalendar,
    ReservationBook,
)
from repro.soak import runner as soak_runner

__all__ = ["ReferenceMetaScheduler", "busy_during_reference",
           "reference_find_window", "reference_planner"]


def _dedup_times(times: List[float]) -> List[float]:
    """Sort and collapse instants within ``_EPS`` of each other.

    Floats that differ by accumulated event noise are one candidate
    start, not several.  Greedy in ascending order, like the skip
    rule of :meth:`ReservationBook.find_window`'s sweep.
    """
    times.sort()
    out = [times[0]]
    for t in times[1:]:
        if t > out[-1] + _EPS:
            out.append(t)
    return out


def busy_during_reference(calendar: HostCalendar, start: float,
                          end: float, now: float) -> bool:
    """Is any live reservation in the way of ``[start, end)``?

    A claimed reservation that has outlived its estimate (the job is
    still running past ``end``) blocks for :data:`GRACE_SECONDS`
    more: the planner re-checks then instead of busy-waiting.  A
    linear scan of every live reservation on the calendar.
    """
    for resv in calendar._active:
        r_end = resv.end
        if resv.state == CLAIMED and r_end <= now + _EPS:
            r_end = now + GRACE_SECONDS
        if resv.start < end - _EPS and start < r_end - _EPS:
            return True
    return False


def reference_find_window(book: ReservationBook, n_hosts: int,
                          duration: float, not_before: float,
                          candidates: Sequence[str], now: float
                          ) -> Optional[Tuple[float, List[str]]]:
    """The pre-overhaul window search: every candidate start is
    re-checked against every host calendar with the linear
    :func:`busy_during_reference` scan.  Kept as the byte-equivalent oracle for
    :meth:`ReservationBook.find_window` (same candidate-time dedup fix
    applied — eps-close floats are one start, not several)."""
    if n_hosts < 1 or n_hosts > len(candidates):
        return None
    times = [not_before]
    for host in candidates:
        for t in book.calendar(host)._effective_ends(now):
            if t > not_before + _EPS:
                times.append(t)
    for start in _dedup_times(times):
        free = [host for host in candidates
                if not busy_during_reference(
                    book.calendar(host), start, start + duration, now)]
        if len(free) >= n_hosts:
            return start, free[:n_hosts]
    return None


class ReferenceMetaScheduler(MetaScheduler):
    """The metascheduler with the cancel-all / rebuild-all planner."""

    def _round(self) -> None:
        now = self.sim.now
        self.sim.stats.meta_plan_rounds += 1
        self._fresh = []  # the oracle keeps no estimate index
        ordered = self.queue.ordered(now)
        for spec in ordered:
            state = self.jobs[spec.name]
            if state.planned:
                self.book.release_block(state.planned, now)
                state.planned = []
        blocked = False
        reservations_made = 0
        for spec in ordered:
            state = self.jobs[spec.name]
            candidates = self.admission.usable_hosts(spec)
            if len(candidates) < spec.n_hosts:
                blocked = True
                continue
            est = self._estimate_seconds(spec, candidates)
            window = reference_find_window(
                self.book, spec.n_hosts, est, now, candidates, now)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
            else:
                blocked = True
                if reservations_made < RESERVE_DEPTH:
                    state.planned = self.book.reserve_block(
                        spec.name, hosts, start, start + est)
                    reservations_made += 1
                    self._note_plan(state, start, hosts, est)
        self._schedule_wake()

    def _schedule_wake(self) -> None:
        """Arm the wake at the earliest planned start, found by a scan
        of every queued job's plan."""
        earliest = math.inf
        for spec in self.queue.specs():
            planned = self.jobs[spec.name].planned
            if planned and planned[0].start < earliest:
                earliest = planned[0].start
        if earliest < math.inf:
            self._arm_wake(earliest)


@contextlib.contextmanager
def reference_planner() -> Iterator[None]:
    """Serve every ``run_metasched`` / ``run_scenario`` call inside the
    block with :class:`ReferenceMetaScheduler`."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (metasched_stream, soak_runner):
            patch.setattr(module, "MetaScheduler", ReferenceMetaScheduler)
        yield
