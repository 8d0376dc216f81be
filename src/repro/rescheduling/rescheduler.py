"""The GrADS rescheduler (§4, §4.1.1).

"The rescheduling process must determine whether rescheduling is
profitable, based on the sensor data, estimates of the remaining work
in the application, and the cost of moving to new resources."

Two operating triggers, exactly as in the paper:

* **migration on request** — the contract monitor detects unacceptable
  performance loss and calls :meth:`Rescheduler.handle_request`;
* **opportunistic rescheduling** — a periodic daemon notices a GrADS
  application that recently completed and asks whether any running
  application would benefit from the freed resources.

The cost model reproduces the paper's pessimism knob: by default the
rescheduler assumes an experimentally determined *worst-case*
rescheduling cost (900 s in the Figure 3 runs) rather than the
application's own estimate, which is precisely what produces the wrong
"don't migrate" decision at matrix size 8000.

The rescheduler also supports the paper's *default* and *forced* modes:
forced mode makes it take the opposite of (or a fixed) decision so
experiments can measure both sides of every case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..contracts.monitor import MigrationRequest
from ..gis.directory import GridInformationService
from ..nws.service import NetworkWeatherService
from ..sim.events import Event
from ..sim.kernel import Simulator

__all__ = ["MigratableApp", "MigrationEvaluation", "Rescheduler",
           "DecisionRecord", "RESCHEDULER_MODES"]

#: the paper's default mode and the two forced modes
RESCHEDULER_MODES = ("default", "force-migrate", "force-stay")


class MigratableApp:
    """What the rescheduler needs from an application under management."""

    name: str = "app"

    def current_hosts(self) -> List[str]:
        """Hosts the application currently occupies."""
        raise NotImplementedError

    def propose_hosts(self, exclude: Sequence[str] = ()) -> List[str]:
        """A candidate new resource set: the application's own mapper
        (for QR, the best whole cluster by its performance model)."""
        raise NotImplementedError

    def predicted_remaining_seconds(self, host_names: Sequence[str]) -> float:
        """Model estimate of remaining execution time on those hosts,
        at their *current* NWS-forecast availability."""
        raise NotImplementedError

    def migration_cost_estimate(self, new_hosts: Sequence[str]) -> float:
        """The application's own estimate of stop+move+restart seconds."""
        raise NotImplementedError

    def migrate(self, new_hosts: Sequence[str]) -> Event:
        """Initiate the actual migration; event triggers when the app
        is running again on the new resources."""
        raise NotImplementedError

    @property
    def finished(self) -> Optional[Event]:
        """Completion event, if the app has been launched."""
        return None


@dataclass(frozen=True)
class MigrationEvaluation:
    """The rescheduler's cost/benefit analysis for one decision."""

    time: float
    current_hosts: tuple
    new_hosts: tuple
    remaining_current: float
    remaining_new: float
    migration_cost: float
    app_cost_estimate: float

    @property
    def benefit(self) -> float:
        """Seconds saved by migrating (negative: migration loses)."""
        return self.remaining_current - (self.remaining_new
                                         + self.migration_cost)

    @property
    def profitable(self) -> bool:
        return self.benefit > 0


@dataclass(frozen=True)
class DecisionRecord:
    """One rescheduling decision, for experiment traces.

    ``trigger`` is ``"request"`` or ``"opportunistic"`` for ordinary
    cost/benefit decisions; failure paths append records with
    ``"migration-failed"`` (``app.migrate()`` raised or the migration
    event failed) or ``"migration-timeout"`` (the migration event never
    triggered within the configured timeout), always with
    ``migrated=False``.
    """

    time: float
    app: str
    trigger: str
    evaluation: MigrationEvaluation
    migrated: bool


@dataclass
class _Inflight:
    """Book-keeping for one migration attempt in progress."""

    token: int
    new_hosts: tuple
    evaluation: MigrationEvaluation
    trigger: str


class Rescheduler:
    """Cost/benefit migration decisions over managed applications."""

    def __init__(self, sim: Simulator, gis: GridInformationService,
                 nws: NetworkWeatherService,
                 mode: str = "default",
                 worst_case_migration_seconds: Optional[float] = 900.0,
                 migration_timeout_seconds: Optional[float] = None,
                 blacklist_seconds: Optional[float] = None) -> None:
        """``mode``: "default" (cost/benefit), "force-migrate",
        "force-stay".  ``worst_case_migration_seconds`` replaces the
        application's own migration estimate when not None — the
        paper's pessimistic assumption.

        ``migration_timeout_seconds`` bounds how long a started
        migration may stay in flight: if the app's migration event has
        not triggered by then (e.g. the event was lost to a host
        crash), the rescheduler *abandons* the attempt — the app is
        removed from the in-flight set so future rescheduling is not
        wedged — and *blacklists* the target hosts.  ``None`` (default)
        disables the timeout.  Blacklisted hosts are excluded from
        candidate sets for ``blacklist_seconds`` (``None`` = forever).
        """
        if mode not in RESCHEDULER_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if migration_timeout_seconds is not None \
                and migration_timeout_seconds <= 0:
            raise ValueError("migration_timeout_seconds must be positive")
        if blacklist_seconds is not None and blacklist_seconds <= 0:
            raise ValueError("blacklist_seconds must be positive")
        self.sim = sim
        self.gis = gis
        self.nws = nws
        self.mode = mode
        self.worst_case_migration_seconds = worst_case_migration_seconds
        self.migration_timeout_seconds = migration_timeout_seconds
        self.blacklist_seconds = blacklist_seconds
        self.decisions: List[DecisionRecord] = []
        #: migration attempts abandoned on failure or timeout
        self.aborted_migrations = 0
        self._apps: List[MigratableApp] = []
        self._inflight: Dict[str, _Inflight] = {}
        self._migration_seq = 0
        self._blacklist: Dict[str, float] = {}  # host -> expiry sim-time

    # -- registry --------------------------------------------------------------
    def manage(self, app: MigratableApp) -> None:
        self._apps.append(app)

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, app: MigratableApp) -> Optional[MigrationEvaluation]:
        """Cost/benefit of moving ``app`` now; None if no candidate set
        exists (``propose_hosts`` found nothing)."""
        current = list(app.current_hosts())
        try:
            new_hosts = app.propose_hosts(
                exclude=current + self.blacklisted_hosts())
        except Exception:
            return None
        if not new_hosts or set(new_hosts) == set(current):
            return None
        remaining_current = app.predicted_remaining_seconds(current)
        remaining_new = app.predicted_remaining_seconds(new_hosts)
        app_cost = app.migration_cost_estimate(new_hosts)
        cost = (self.worst_case_migration_seconds
                if self.worst_case_migration_seconds is not None
                else app_cost)
        return MigrationEvaluation(
            time=self.sim.now,
            current_hosts=tuple(current), new_hosts=tuple(new_hosts),
            remaining_current=remaining_current,
            remaining_new=remaining_new,
            migration_cost=cost, app_cost_estimate=app_cost)

    def _decide(self, evaluation: MigrationEvaluation) -> bool:
        if self.mode == "force-migrate":
            return True
        if self.mode == "force-stay":
            return False
        return evaluation.profitable

    def _record_decision(self, record: DecisionRecord) -> None:
        self.decisions.append(record)
        trace = self.sim.trace
        if trace is not None and "reschedule" in trace.active:
            trace.instant("reschedule", "decision", app=record.app,
                          trigger=record.trigger, migrated=record.migrated,
                          benefit=record.evaluation.benefit,
                          migration_cost=record.evaluation.migration_cost,
                          new_hosts=",".join(record.evaluation.new_hosts))

    # -- migration on request (contract monitor callback) ------------------------
    def request_handler(self, app: MigratableApp
                        ) -> Callable[[MigrationRequest], bool]:
        """A callback suitable for :class:`ContractMonitor`."""
        def handle(request: MigrationRequest) -> bool:
            return self.handle_request(app, request)
        return handle

    def handle_request(self, app: MigratableApp,
                       request: Optional[MigrationRequest] = None) -> bool:
        """Contract-violation path; returns True if a migration started."""
        if app.name in self._inflight:
            return True  # already being moved; tell the monitor to stand by
        evaluation = self.evaluate(app)
        if evaluation is None:
            return False
        migrate = self._decide(evaluation)
        self._record_decision(DecisionRecord(
            time=self.sim.now, app=app.name, trigger="request",
            evaluation=evaluation, migrated=migrate))
        if migrate:
            return self._start_migration(app, list(evaluation.new_hosts),
                                         evaluation, "request")
        return False

    # -- opportunistic rescheduling ------------------------------------------------
    def start_opportunistic(self, period: float = 60.0) -> None:
        """Launch the periodic daemon that migrates running apps onto
        resources freed by recently completed ones."""
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim.process(self._opportunistic_loop(period),
                         name="rescheduler:opportunistic")

    def _opportunistic_loop(self, period: float):
        seen_finished: set = set()
        while True:
            yield self.sim.timeout(period)
            newly_finished = [
                app for app in self._apps
                if app.finished is not None and app.finished.triggered
                and app.name not in seen_finished]
            if not newly_finished:
                continue
            seen_finished.update(app.name for app in newly_finished)
            for app in self._apps:
                if app.finished is not None and app.finished.triggered:
                    continue
                if app.name in self._inflight:
                    continue
                evaluation = self.evaluate(app)
                if evaluation is None:
                    continue
                migrate = self._decide(evaluation)
                self._record_decision(DecisionRecord(
                    time=self.sim.now, app=app.name,
                    trigger="opportunistic", evaluation=evaluation,
                    migrated=migrate))
                if migrate:
                    self._start_migration(app, list(evaluation.new_hosts),
                                          evaluation, "opportunistic")

    # -- blacklist ---------------------------------------------------------------
    def blacklisted_hosts(self) -> List[str]:
        """Hosts currently excluded from candidate sets (sorted)."""
        now = self.sim.now
        expired = [h for h, until in self._blacklist.items() if until <= now]
        for host in expired:
            del self._blacklist[host]
        return sorted(self._blacklist)

    def _blacklist_hosts(self, hosts: Sequence[str], reason: str) -> None:
        until = (math.inf if self.blacklist_seconds is None
                 else self.sim.now + self.blacklist_seconds)
        for host in hosts:
            self._blacklist[host] = max(self._blacklist.get(host, 0.0), until)
        self._fault_instant("blacklist", hosts=",".join(sorted(hosts)),
                            reason=reason)

    def _fault_instant(self, name: str, **args) -> None:
        trace = self.sim.trace
        if trace is not None and "fault" in trace.active:
            trace.instant("fault", name, **args)

    # -- execution ---------------------------------------------------------------
    def _start_migration(self, app: MigratableApp, new_hosts: List[str],
                         evaluation: MigrationEvaluation,
                         trigger: str) -> bool:
        """Kick off ``app.migrate``; returns True if it actually started.

        Every exit path — synchronous exception, failed migration
        event, lost event past the timeout — removes ``app.name`` from
        the in-flight set, so one broken migration can never disable
        rescheduling for that app forever.
        """
        self._migration_seq += 1
        token = self._migration_seq
        self._inflight[app.name] = _Inflight(
            token=token, new_hosts=tuple(new_hosts),
            evaluation=evaluation, trigger=trigger)
        try:
            event = app.migrate(new_hosts)
        except Exception as exc:
            self._abandon(app.name, token, "migration-failed",
                          error=f"{type(exc).__name__}: {exc}")
            return False
        event.add_callback(
            lambda e, a=app.name, t=token: self._on_migration_event(a, t, e))
        if self.migration_timeout_seconds is not None:
            self.sim.call_after(
                self.migration_timeout_seconds,
                lambda a=app.name, t=token: self._on_migration_timeout(a, t))
        return True

    def _on_migration_event(self, app_name: str, token: int,
                            event: Event) -> None:
        inflight = self._inflight.get(app_name)
        if inflight is None or inflight.token != token:
            # A timeout already abandoned this attempt (or a newer one
            # superseded it); still defuse a failure so it cannot crash
            # the kernel with nobody waiting.
            if event.triggered and not event.ok:
                event.defused = True
            return
        if event.ok:
            del self._inflight[app_name]
            return
        event.defused = True
        self._abandon(app_name, token, "migration-failed",
                      error=f"{type(event.value).__name__}: {event.value}")

    def _on_migration_timeout(self, app_name: str, token: int) -> None:
        inflight = self._inflight.get(app_name)
        if inflight is None or inflight.token != token:
            return  # completed (or already abandoned) in time
        self._abandon(app_name, token, "migration-timeout",
                      timeout=self.migration_timeout_seconds)

    def _abandon(self, app_name: str, token: int, reason: str,
                 **trace_args) -> None:
        inflight = self._inflight.pop(app_name)
        assert inflight.token == token
        self.aborted_migrations += 1
        self._blacklist_hosts(inflight.new_hosts, reason)
        self._fault_instant(reason, app=app_name, **trace_args)
        self._record_decision(DecisionRecord(
            time=self.sim.now, app=app_name, trigger=reason,
            evaluation=inflight.evaluation, migrated=False))
