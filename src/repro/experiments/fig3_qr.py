"""Figure 3 — QR factorization under stop/restart rescheduling.

The §4.1.2 experiment: a ScaLAPACK QR job starts on the 4-node UTK
cluster; 300 s in ("five minutes after the start of the application"),
an artificial load lands on one UTK node.  The contract monitor
requests migration; the rescheduler either keeps the job on UTK or
migrates it to the 8-node UIUC cluster across the Internet.

For each matrix size the experiment runs the *forced* modes — left bar
(no rescheduling, force-stay) and right bar (rescheduling,
force-migrate) — and additionally records what the *default*
cost/benefit rescheduler (with the paper's 900 s worst-case pessimism)
would have decided, reproducing the wrong-decision analysis at the
crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..appmanager.manager import GradsEnvironment
from ..apps.qr import QrBenchmark
from ..microgrid.loadgen import ScheduledLoad
from ..microgrid.testbed import fig3_testbed
from ..sim.kernel import Simulator
from .common import format_table

__all__ = ["Fig3Point", "Fig3Result", "run_fig3_point", "run_fig3",
           "PHASES", "DEFAULT_SIZES", "WORST_CASE_SECONDS"]

#: the stacked-bar components of Figure 3, in stacking order
PHASES = (
    "resource_selection_1", "performance_modeling_1", "grid_overhead_1",
    "application_start_1", "application_duration_1", "checkpoint_write_1",
    "resource_selection_2", "performance_modeling_2", "grid_overhead_2",
    "application_start_2", "checkpoint_read_2", "application_duration_2",
)

DEFAULT_SIZES = (6000, 7000, 8000, 9000, 10000, 11000, 12000)
WORST_CASE_SECONDS = 900.0
LOAD_AT_SECONDS = 300.0
LOAD_PROCS = 8


@dataclass
class Fig3Point:
    """One bar of Figure 3."""

    n: int
    mode: str  # "no-reschedule" or "reschedule"
    total_seconds: float
    phases: Dict[str, float] = field(default_factory=dict)
    migrations: int = 0

    def phase(self, name: str) -> float:
        return self.phases.get(name, 0.0)


@dataclass
class Fig3Result:
    """The whole figure plus the default-mode decision table."""

    points: List[Fig3Point] = field(default_factory=list)
    #: n -> (decided_to_migrate, evaluation benefit with worst-case cost,
    #:       true benefit using measured costs, decision_was_correct)
    decisions: Dict[int, dict] = field(default_factory=dict)

    def pair(self, n: int):
        stay = next(p for p in self.points
                    if p.n == n and p.mode == "no-reschedule")
        move = next(p for p in self.points
                    if p.n == n and p.mode == "reschedule")
        return stay, move

    def sizes(self) -> List[int]:
        return sorted({p.n for p in self.points})

    def crossover_size(self) -> Optional[int]:
        """Smallest size where rescheduling wins."""
        for n in self.sizes():
            stay, move = self.pair(n)
            if move.total_seconds < stay.total_seconds:
                return n
        return None

    def to_table(self) -> str:
        headers = ["N", "mode", "total"] + [p.replace("_", " ")
                                            for p in PHASES]
        rows = []
        for point in sorted(self.points, key=lambda p: (p.n, p.mode)):
            rows.append([point.n, point.mode, point.total_seconds]
                        + [point.phase(name) for name in PHASES])
        return format_table(headers, rows,
                            title="Figure 3: QR execution time breakdown (s)")

    def decision_table(self) -> str:
        headers = ["N", "default decision", "benefit(worst-case)",
                   "benefit(actual)", "correct?"]
        rows = []
        for n in sorted(self.decisions):
            d = self.decisions[n]
            rows.append([n,
                         "migrate" if d["migrate"] else "stay",
                         d["benefit_worst_case"],
                         d["benefit_actual"],
                         "yes" if d["correct"] else "WRONG"])
        return format_table(
            headers, rows,
            title=f"Rescheduler decisions (worst-case cost "
                  f"{WORST_CASE_SECONDS:.0f} s)")


def _run_qr(n: int, nb: int, mode: str, rescheduler_mode: str,
            worst_case_seconds: Optional[float], load_at: float,
            load_procs: int, seed: int, tracer):
    """One managed QR run on a fresh Figure 3 testbed, loaded at
    ``load_at``; returns ``(sim, run, rescheduler)`` once it finished."""
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
        tracer.instant("meta", "run", experiment="fig3", n=n, mode=mode,
                       seed=seed)
    grid = fig3_testbed(sim)
    env = GradsEnvironment(sim, grid, submission_host="utk.n0")
    run, _monitor, rescheduler = env.managed_qr(
        QrBenchmark(n=n, nb=nb),
        initial_hosts=grid.clusters["utk"].host_names(),
        rescheduler_mode=rescheduler_mode,
        worst_case_migration_seconds=worst_case_seconds)
    ScheduledLoad(host=grid.clusters["utk"][0], at=load_at,
                  nprocs=load_procs).install(sim)
    finished = run.start()
    sim.run(stop_event=finished)
    sim.close()
    return sim, run, rescheduler


def run_fig3_point(n: int, mode: str, nb: int = 200,
                   load_at: float = LOAD_AT_SECONDS,
                   load_procs: int = LOAD_PROCS,
                   seed: int = 0,
                   tracer=None) -> Fig3Point:
    """Run one bar: a full GrADS lifecycle on a fresh virtual grid.

    ``seed`` follows the repo-wide experiment convention (DESIGN.md
    §9.5): recorded in the meta trace; driver randomness, if any, must
    come from ``RngRegistry(seed)`` (this scenario is scripted).
    """
    if mode not in ("no-reschedule", "reschedule"):
        raise ValueError(f"unknown mode {mode!r}")
    sim, run, _rescheduler = _run_qr(
        n, nb, mode,
        "force-stay" if mode == "no-reschedule" else "force-migrate",
        None, load_at, load_procs, seed, tracer)
    return Fig3Point(n=n, mode=mode, total_seconds=sim.now,
                     phases=dict(run.timings), migrations=run.migrations)


def _default_decision(n: int, nb: int, stay: Fig3Point, move: Fig3Point,
                      load_at: float, load_procs: int,
                      seed: int = 0,
                      tracer=None) -> dict:
    """Replay the default-mode rescheduler and score its decision
    against the measured forced-mode outcomes."""
    _sim, run, rescheduler = _run_qr(n, nb, "default", "default",
                                     WORST_CASE_SECONDS, load_at,
                                     load_procs, seed, tracer)
    migrate = run.migrations > 0
    if rescheduler.decisions:
        ev = rescheduler.decisions[0].evaluation
        benefit_worst = ev.remaining_current - (ev.remaining_new
                                                + ev.migration_cost)
        benefit_actual_est = ev.remaining_current - (
            ev.remaining_new + ev.app_cost_estimate)
    else:
        benefit_worst = 0.0
        benefit_actual_est = 0.0
    # Ground truth from the forced runs: was migrating actually faster?
    true_gain = stay.total_seconds - move.total_seconds
    correct = (migrate and true_gain > 0) or (not migrate and true_gain <= 0)
    if not rescheduler.decisions:
        # no violation confirmed (app finished before/around the load):
        # staying was trivially correct if it was no slower
        correct = true_gain <= 0
    return {
        "migrate": migrate,
        "benefit_worst_case": benefit_worst,
        "benefit_actual": benefit_actual_est,
        "true_gain": true_gain,
        "correct": correct,
        "requested": bool(rescheduler.decisions),
    }


def run_fig3(sizes: Sequence[int] = DEFAULT_SIZES, nb: int = 200,
             load_at: float = LOAD_AT_SECONDS,
             load_procs: int = LOAD_PROCS,
             with_decisions: bool = True,
             seed: int = 0,
             tracer=None) -> Fig3Result:
    """Regenerate Figure 3 (both bars per size) plus the decision table.

    A supplied ``tracer`` is rebound to every bar's fresh simulator, so
    the exported trace carries one timeline (Chrome ``pid``) per run.
    """
    result = Fig3Result()
    for n in sizes:
        stay = run_fig3_point(n, "no-reschedule", nb=nb, load_at=load_at,
                              load_procs=load_procs, seed=seed,
                              tracer=tracer)
        move = run_fig3_point(n, "reschedule", nb=nb, load_at=load_at,
                              load_procs=load_procs, seed=seed,
                              tracer=tracer)
        result.points.extend([stay, move])
        if with_decisions:
            result.decisions[n] = _default_decision(
                n, nb, stay, move, load_at, load_procs, seed=seed,
                tracer=tracer)
    return result
