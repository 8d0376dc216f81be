"""Reference oracle for the metascheduler's planner.

:class:`ReferenceMetaScheduler` is the pre-overhaul cancel-all /
rebuild-all planner: every round cancels every un-started reservation
and rebuilds the plan from scratch with :func:`reference_find_window`,
the linear-scan window search.  The equivalence tests assert that the
production delta re-planner (:class:`repro.metasched.MetaScheduler`)
makes the same decisions: same job outcomes, same claim histories,
byte-identical same-seed reports.

:func:`reference_planner` swaps the oracle in for a block by rebinding
the ``MetaScheduler`` name the metasched stream driver and the soak
runner build their service from, so the product carries no planner
parameter.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest

from repro.experiments import metasched_stream
from repro.metasched import MetaScheduler
from repro.metasched.reservations import _EPS, ReservationBook, _dedup_times
from repro.soak import runner as soak_runner

__all__ = ["ReferenceMetaScheduler", "reference_find_window",
           "reference_planner"]


def reference_find_window(book: ReservationBook, n_hosts: int,
                          duration: float, not_before: float,
                          candidates: Sequence[str], now: float,
                          grace: float = 30.0
                          ) -> Optional[Tuple[float, List[str]]]:
    """The pre-overhaul window search: every candidate start is
    re-checked against every host calendar with the linear busy
    scan.  Kept as the byte-equivalent oracle for
    :meth:`ReservationBook.find_window` (same candidate-time dedup fix
    applied — eps-close floats are one start, not several)."""
    if n_hosts < 1 or n_hosts > len(candidates):
        return None
    times = [not_before]
    for host in candidates:
        for t in book.calendar(host).horizon_times(now, grace):
            if t > not_before + _EPS:
                times.append(t)
    for start in _dedup_times(times):
        free = [host for host in candidates
                if not book.calendar(host).busy_during_reference(
                    start, start + duration, now, grace)]
        if len(free) >= n_hosts:
            return start, free[:n_hosts]
    return None


class ReferenceMetaScheduler(MetaScheduler):
    """The metascheduler with the cancel-all / rebuild-all planner."""

    def _round(self) -> None:
        now = self.sim.now
        self.sim.stats.meta_plan_rounds += 1
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
                self.book, spec.n_hosts, est, now, candidates, now,
                self.grace_seconds)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
            else:
                blocked = True
                if reservations_made < self.reserve_depth:
                    state.planned = self.book.reserve_block(
                        spec.name, hosts, start, start + est)
                    reservations_made += 1
                    self.sim.stats.meta_plan_rebuilt += 1
                    self._note_plan(state, start, hosts, est)
        self._schedule_wake(now)


@contextlib.contextmanager
def reference_planner() -> Iterator[None]:
    """Serve every ``run_metasched`` / ``run_scenario`` call inside the
    block with :class:`ReferenceMetaScheduler`."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (metasched_stream, soak_runner):
            patch.setattr(module, "MetaScheduler", ReferenceMetaScheduler)
        yield
