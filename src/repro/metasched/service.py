"""The metascheduler: a multi-tenant grid submission service.

The front door for a stream of heterogeneous jobs competing for one
testbed.  Lifecycle per submission::

    submit -> admission control -> fair-share queue -> plan
           -> (advance reservation | immediate start | backfill)
           -> place via the GrADS workflow scheduler -> execute
           -> release + fair-share charge

Planning is a *rolling re-plan*: at every scheduling round (triggered
by a submission, a completion, or a reservation's start time arriving)
the un-started plan is brought up to date in fair-share order against
live GIS/NWS state, while claims (running jobs) are immutable.  The
head of the queue gets an advance reservation at the earliest window
the calendars allow; lower-priority jobs may *backfill* — start
immediately — only when their estimated run fits without delaying any
reservation ahead of them.  Claims therefore never overlap by
construction, and :meth:`MetaScheduler.audit_conflicts` re-proves it
from the recorded claim history.

The planner rebuilds the plan every round (DESIGN.md §9.6): it
releases the reservations it booked last round and re-plans the queue
in fair-share order.  Candidate sets are resolved once per ISA per
round, and each queued job keeps its estimate with the candidate
prefix that sized it.  Jobs behind a full reservation depth (the
*tail*) can only start now or stay blocked; an index of the queued
jobs' estimates per (ISA, host count) answers "can any of them start?"
with one comparison per group, and only a yes sends the tail through
its per-job "free now?" probes.  So a round costs its reservation
depth, not its backlog.  The test suite checks every decision against
a linear-scan oracle planner (``tests/oracles/metasched.py``).

Everything the service does lands in the ``metasched`` trace lane
(submit/queue/admit/reserve/backfill/start/complete/reject instants
and one span per executed job) and in the always-on ``meta_*``
counters of :class:`~repro.sim.stats.KernelStats`; the ``meta_plan_*``
family (rounds, reservations booked and how many of them repeat the
job's previous plan, window probes, estimate memo hits, scheduled
wakes) exposes what the planner did.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..gis.directory import GridInformationService
from ..microgrid.dml import Grid
from ..nws.service import NetworkWeatherService
from ..scheduler.executor import WorkflowExecutor
from ..scheduler.scheduler import GradsWorkflowScheduler
from ..scheduler.workflow import Workflow
from ..sim.events import Event
from ..sim.kernel import Simulator
from .admission import AdmissionController
from .jobs import JobSpec, build_workflow
from .queueing import FairShareQueue
from .reservations import _EPS, Reservation, ReservationBook

__all__ = ["MetaScheduler", "JobState"]

#: advance reservations booked per planning round; jobs behind them
#: only get a "free now?" probe (backfill)
RESERVE_DEPTH = 4

#: multiplier on the model runtime when sizing a reservation, so an
#: estimate rarely undershoots and overruns its booking
SAFETY_FACTOR = 2.0

#: terminal job states
_TERMINAL = ("rejected", "completed", "failed")


@dataclass
class JobState:
    """Everything the service tracks about one submission."""

    spec: JobSpec
    workflow: Workflow
    status: str = "queued"
    reject_reason: str = ""
    error: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    hosts: Tuple[str, ...] = ()
    backfilled: bool = False
    est_seconds: float = 0.0
    #: claims held while running
    claims: List[Reservation] = field(default_factory=list)
    #: the current advance reservation (planning only; released and
    #: re-booked every round)
    planned: List[Reservation] = field(default_factory=list)
    #: last booked plan, to keep re-plans from spamming the trace
    last_plan: Optional[Tuple[float, Tuple[str, ...]]] = None
    #: (candidate prefix, estimated seconds) while queued; set iff the
    #: estimate is in its ISA's index (see MetaScheduler._estimate)
    estimate: Optional[Tuple[Tuple[str, ...], float]] = None

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.spec.submit_time

    def row(self) -> dict:
        """The job's line in the metasched and soak reports."""
        spec = self.spec
        return {
            "name": spec.name, "user": spec.user, "kind": spec.kind,
            "submit_time": spec.submit_time, "n_hosts": spec.n_hosts,
            "size": spec.size, "status": self.status,
            "reject_reason": self.reject_reason, "error": self.error,
            "started_at": self.started_at, "finished_at": self.finished_at,
            "queue_wait": self.queue_wait, "hosts": list(self.hosts),
            "backfilled": self.backfilled,
        }


class _IsaIndex:
    """The queued jobs of one ISA and their estimates by host count.

    ``ests[n]`` is the sorted multiset of the estimates of the jobs
    that need ``n`` hosts, sized on ``cand``; a job that needs more
    hosts than ``cand`` holds cannot start and has no entry.
    """

    __slots__ = ("cand", "jobs", "ests")

    def __init__(self, cand: Tuple[str, ...]) -> None:
        self.cand = cand
        self.jobs: Dict[str, JobState] = {}
        self.ests: Dict[int, List[float]] = {}


class MetaScheduler:
    """Queueing + admission control + reservations over one grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 gis: GridInformationService, nws: NetworkWeatherService,
                 max_queue: Optional[int] = None,
                 max_per_user: Optional[int] = None) -> None:
        self.sim = sim
        self.grid = grid
        self.gis = gis
        self.nws = nws
        host_names = sorted(h.name for h in grid.all_hosts())
        if not host_names:
            raise ValueError("grid has no hosts")
        self.submission_host = host_names[0]
        self.admission = AdmissionController(
            gis, nws, max_queue=max_queue, max_per_user=max_per_user)
        self.queue = FairShareQueue()
        self.book = ReservationBook(host_names)
        self.book.stats = sim.stats
        self.scheduler = GradsWorkflowScheduler(gis, nws)
        self.executor = WorkflowExecutor(sim, grid.topology, gis)
        self.jobs: Dict[str, JobState] = {}
        self.job_order: List[str] = []
        self._expected: Optional[int] = None
        self._done_event: Optional[Event] = None
        self._n_terminal = 0
        #: start instants of armed-but-unfired wake callbacks, sorted
        self._pending_wakes: List[float] = []
        #: queued jobs by ISA, with their estimates (the tail filter)
        self._index: Dict[Optional[str], _IsaIndex] = {}
        #: admitted jobs no round has indexed yet
        self._fresh: List[JobState] = []
        #: the jobs the last round booked reservations for
        self._planned: List[JobState] = []

    # -- tracing ------------------------------------------------------------
    def _instant(self, name: str, **args) -> None:
        trace = self.sim.trace
        if trace is not None and "metasched" in trace.active:
            trace.instant("metasched", name, **args)

    # -- submission --------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobState:
        """Accept or reject one job at the current simulated time."""
        if spec.name in self.jobs:
            raise ValueError(f"duplicate job name {spec.name!r}")
        state = JobState(spec=spec, workflow=build_workflow(spec))
        self.jobs[spec.name] = state
        self.job_order.append(spec.name)
        stats = self.sim.stats
        stats.meta_submitted += 1
        self._instant("submit", job=spec.name, user=spec.user,
                      kind=spec.kind, n_hosts=spec.n_hosts)
        admitted, reason = self.admission.admit(
            spec, len(self.queue), self.queue.user_queued(spec.user))
        if not admitted:
            state.status = "rejected"
            state.reject_reason = reason
            stats.meta_rejected += 1
            self._n_terminal += 1
            self._instant("reject", job=spec.name, reason=reason)
            self._check_all_done()
            return state
        self._instant("admit", job=spec.name)
        self.queue.push(spec)
        self._fresh.append(state)
        self._instant("queue", job=spec.name, depth=len(self.queue))
        self._round()
        return state

    def run_stream(self, specs: Sequence[JobSpec]) -> Event:
        """Submit each spec at its arrival time; the returned event
        triggers once every job has reached a terminal state."""
        ordered = sorted(specs, key=lambda s: (s.submit_time, s.name))
        self._expected = len(ordered)
        self._done_event = self.sim.event("metasched:done")
        if not ordered:
            self._done_event.succeed(0)
            return self._done_event
        self.sim.process(self._feeder(ordered), name="metasched:arrivals")
        return self._done_event

    def _feeder(self, ordered: Sequence[JobSpec]):
        for spec in ordered:
            delay = spec.submit_time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.submit(spec)

    # -- planning rounds ----------------------------------------------------
    def _round(self) -> None:
        """Rebuild the un-started plan against live resource state:
        release the reservations the last round booked, then re-plan
        the queue in fair-share order.

        Jobs are planned from the top until :data:`RESERVE_DEPTH`
        reservations are booked.  Behind them every job can only start
        now (a backfill) or stay blocked, and none of that tail can
        start unless, for some (ISA, host count) group, the hosts stay
        free past ``now`` plus the group's shortest estimate.  Within
        the tail the book only loses free time until a job starts, so
        when no group passes that one comparison the whole tail is
        skipped; otherwise each tail job gets its ``free_now`` probe."""
        now = self.sim.now
        self.sim.stats.meta_plan_rounds += 1
        ordered = self.queue.ordered(now)
        book = self.book
        for state in self._planned:
            book.release_block(state.planned, now)
            state.planned = []
        self._planned = []
        cands = self._refresh_index()
        jobs = self.jobs
        blocked = False
        earliest = math.inf
        tail = len(ordered)
        for pos, spec in enumerate(ordered):
            if len(self._planned) >= RESERVE_DEPTH:
                tail = pos
                break
            state = jobs[spec.name]
            cand = cands[spec.isa]
            if len(cand) < spec.n_hosts:
                blocked = True
                continue
            est = self._estimate(state, cand)
            window = book.find_window(spec.n_hosts, est, now, cand, now)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
            else:
                blocked = True
                state.planned = book.reserve_block(
                    spec.name, hosts, start, start + est)
                self._planned.append(state)
                earliest = min(earliest, start)
                self._note_plan(state, start, hosts, est)
        if tail < len(ordered) and self._tail_may_start(now):
            for spec in ordered[tail:]:
                state = jobs[spec.name]
                cand = cands[spec.isa]
                if len(cand) < spec.n_hosts:
                    continue
                est = self._estimate(state, cand)
                free = book.free_now(spec.n_hosts, est, cand, now)
                if free is not None:
                    # behind the reservations: always a backfill
                    self._start_job(state, free, est, backfilled=True)
        if earliest < math.inf:
            self._arm_wake(earliest)

    def _refresh_index(self) -> Dict[Optional[str], Tuple[str, ...]]:
        """This round's candidate tuple per queued ISA, with the
        estimate index brought up to date: an ISA whose candidates
        changed (host churn) has its groups rebuilt, and the jobs
        admitted since the last round join theirs."""
        index = self._index
        usable = self.admission.usable_hosts
        cands: Dict[Optional[str], Tuple[str, ...]] = {}
        for isa, entry in index.items():
            cand = tuple(usable(next(iter(entry.jobs.values())).spec))
            cands[isa] = cand
            if cand != entry.cand:
                entry.cand = cand
                entry.ests = {}
                for state in entry.jobs.values():
                    self._add_estimate(entry, state)
        for state in self._fresh:
            isa = state.spec.isa
            entry = index.get(isa)
            if entry is None:
                cand = cands[isa] = tuple(usable(state.spec))
                entry = index[isa] = _IsaIndex(cand)
            entry.jobs[state.spec.name] = state
            self._add_estimate(entry, state)
        self._fresh = []
        return cands

    def _add_estimate(self, entry: _IsaIndex, state: JobState) -> None:
        n_hosts = state.spec.n_hosts
        if len(entry.cand) < n_hosts:
            state.estimate = None
            return
        est = self._estimate(state, entry.cand)
        insort(entry.ests.setdefault(n_hosts, []), est)

    def _unindex(self, state: JobState) -> None:
        """Drop a job that leaves the queue from the estimate index."""
        spec = state.spec
        entry = self._index.get(spec.isa)
        if entry is None or entry.jobs.pop(spec.name, None) is None:
            return  # never indexed (a planner that keeps no index)
        if state.estimate is not None:
            ests = entry.ests[spec.n_hosts]
            del ests[bisect_left(ests, state.estimate[1])]
            if not ests:
                del entry.ests[spec.n_hosts]
            state.estimate = None
        if not entry.jobs:
            del self._index[spec.isa]

    def _tail_may_start(self, now: float) -> bool:
        """Can any queued job start at ``now``?  A job needing ``n``
        hosts for ``est`` seconds can iff ``n`` candidates stay free
        until ``now + est - _EPS``, so each group's shortest estimate
        decides for the whole group."""
        book = self.book
        for entry in self._index.values():
            for n_hosts, ests in entry.ests.items():
                if (book.free_until(n_hosts, entry.cand, now)
                        >= now + ests[0] - _EPS):
                    return True
        return False

    def _note_plan(self, state: JobState, start: float,
                   hosts: Sequence[str], est: float) -> None:
        """Count a booked reservation as rebuilt, and as kept when it
        repeats the job's previous plan; count/trace it as a
        reservation only when the plan actually moved."""
        stats = self.sim.stats
        stats.meta_plan_rebuilt += 1
        plan = (start, tuple(hosts))
        if plan == state.last_plan:
            stats.meta_plan_kept += 1
        else:
            state.last_plan = plan
            stats.meta_reservations += 1
            self._instant("reserve", job=state.spec.name,
                          start=start, end=start + est,
                          hosts=",".join(hosts))

    def _arm_wake(self, earliest: float) -> None:
        """Arm a wake at ``earliest``, the round's earliest planned
        start, unless a pending wake at or before it will already
        trigger a round (which would re-arm for anything still planned
        then).  Fired wakes remove themselves from the pending list,
        so a stale past instant can never force a redundant re-arm."""
        pending = self._pending_wakes
        if pending and pending[0] <= earliest + _EPS:
            return
        insort(pending, earliest)
        self.sim.stats.meta_plan_wakes += 1
        self.sim.call_at(earliest, lambda when=earliest: self._wake(when))

    def _wake(self, when: float) -> None:
        pending = self._pending_wakes
        i = bisect_left(pending, when)
        if i < len(pending) and pending[i] == when:  # simlint: ignore[SL005] — removes the exact float armed earlier, no arithmetic in between
            del pending[i]
        self._round()

    def _estimate(self, state: JobState,
                  candidates: Tuple[str, ...]) -> float:
        """:meth:`_estimate_seconds`, kept with the job: the estimate
        is a pure function of the job and the candidate prefix that
        sizes it, so it is recomputed only when that prefix changes."""
        prefix = candidates[:state.spec.n_hosts]
        kept = state.estimate
        if kept is not None and kept[0] == prefix:
            self.sim.stats.meta_plan_estimate_memo_hits += 1
            return kept[1]
        est = self._estimate_seconds(state.spec, candidates)
        state.estimate = (prefix, est)
        return est

    def _estimate_seconds(self, spec: JobSpec,
                          candidates: Sequence[str]) -> float:
        """Pessimistic runtime bound used to size reservations."""
        records = [self.gis.lookup(name)
                   for name in candidates[:spec.n_hosts]]
        speed = min(record.mflops for record in records)
        workflow = self.jobs[spec.name].workflow
        total = workflow.total_mflop()
        critical = workflow.critical_path_mflop()
        parallel = max(total - critical, 0.0) / (speed * spec.n_hosts)
        return SAFETY_FACTOR * (critical / speed + parallel) + 10.0

    # -- execution ---------------------------------------------------------
    def _start_job(self, state: JobState, hosts: Sequence[str], est: float,
                   backfilled: bool) -> None:
        spec = state.spec
        now = self.sim.now
        self.queue.remove(spec.name)
        self._unindex(state)
        if state.planned:  # safety net; planning releases before starting
            self.book.release_block(state.planned, now)
            state.planned = []
        state.claims = self.book.reserve_block(
            spec.name, hosts, now, now + est)
        self.book.claim_block(state.claims, now)
        state.status = "running"
        state.started_at = now
        state.hosts = tuple(hosts)
        state.est_seconds = est
        state.backfilled = backfilled
        stats = self.sim.stats
        stats.meta_started += 1
        wait = now - spec.submit_time
        stats.meta_queue_wait_seconds += wait
        if backfilled:
            stats.meta_backfilled += 1
            self._instant("backfill", job=spec.name,
                          hosts=",".join(hosts))
        self._instant("start", job=spec.name, user=spec.user,
                      kind=spec.kind, hosts=",".join(hosts),
                      queue_wait=wait)
        entry = [component.name
                 for component in state.workflow.components()
                 if not state.workflow.predecessors(component.name)]
        data_sources = {name: [self.submission_host] for name in entry}
        try:
            result = self.scheduler.schedule(
                state.workflow, data_sources=data_sources,
                resources=[self.gis.lookup(name) for name in hosts])
            event = self.executor.execute(state.workflow, result.best)
        except Exception as exc:
            self._finish(state, ok=False,
                         error=f"{type(exc).__name__}: {exc}")
            return
        event.add_callback(
            lambda ev, s=state: self._on_job_event(s, ev))

    def _on_job_event(self, state: JobState, event: Event) -> None:
        if event.ok:
            self._finish(state, ok=True)
        else:
            event.defused = True
            self._finish(state, ok=False,
                         error=f"{type(event.value).__name__}: "
                               f"{event.value}")
        self._round()

    def _finish(self, state: JobState, ok: bool, error: str = "") -> None:
        now = self.sim.now
        self.book.release_block(state.claims, now)
        state.finished_at = now
        state.status = "completed" if ok else "failed"
        state.error = error
        self._n_terminal += 1
        elapsed = now - (state.started_at if state.started_at is not None
                         else now)
        cpu_seconds = elapsed * len(state.hosts)
        self.queue.charge(state.spec.user, cpu_seconds)
        stats = self.sim.stats
        stats.meta_cpu_seconds += cpu_seconds
        if ok:
            stats.meta_completed += 1
        trace = self.sim.trace
        if trace is not None and "metasched" in trace.active:
            trace.instant("metasched", "complete", job=state.spec.name,
                          ok=ok, elapsed=elapsed)
            if state.started_at is not None:
                trace.complete("metasched", f"job:{state.spec.name}",
                               ts=state.started_at, dur=elapsed,
                               user=state.spec.user, kind=state.spec.kind,
                               hosts=",".join(state.hosts),
                               backfilled=state.backfilled)
        self._check_all_done()

    # -- bookkeeping -------------------------------------------------------
    def _check_all_done(self) -> None:
        """O(1): a maintained terminal counter replaces the per-call
        scan over every job state."""
        if self._done_event is None or self._done_event.triggered:
            return
        if self._expected is None:
            return
        if (len(self.jobs) >= self._expected
                and self._n_terminal == len(self.jobs)):
            self._done_event.succeed(self._n_terminal)

    def audit_conflicts(self) -> List[str]:
        """Claim-overlap violations across all hosts; must be empty."""
        return self.book.audit()

    def states(self) -> List[JobState]:
        """Job states in submission order."""
        return [self.jobs[name] for name in self.job_order]
