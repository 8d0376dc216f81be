"""Reference oracle for the list-scheduling heuristics (§3.1).

The pre-overhaul implementation of the workflow scheduler's heuristics:
from-scratch ready sets, per-cell completion times and per-call NWS
forecasts.  O(T²·R) completion-time evaluations — run it on small
inputs only.  The property tests and the scheduler-scale benchmark
assert that ``repro.scheduler.HEURISTICS`` produces placement-for-
placement identical schedules and byte-identical ``scheduler`` trace
spans.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nws.service import NetworkWeatherService
from repro.scheduler.heuristics import (
    Placement,
    Schedule,
    ScheduleError,
    _heft_upward_ranks,
    _scheduler_env,
)
from repro.scheduler.ranking import RankMatrix
from repro.scheduler.workflow import Task, Workflow

__all__ = [
    "REFERENCE_HEURISTICS",
    "reference_fifo_schedule",
    "reference_heft_schedule",
    "reference_max_min",
    "reference_min_min",
    "reference_random_schedule",
    "reference_sufferage",
    "schedules_equal",
]


class _ReferenceBuilder:
    """Pure-Python oracle: from-scratch ready sets and per-cell costs.

    This is the pre-overhaul implementation, kept verbatim in spirit as
    the semantic baseline the fast engine is property-tested against
    (the same role ``reference_max_min`` plays for the substrate
    allocator).  O(T²·R) completion-time evaluations with per-call NWS
    forecasts — run it on small inputs only.
    """

    def __init__(self, workflow: Workflow, matrix: RankMatrix,
                 nws: NetworkWeatherService) -> None:
        self.workflow = workflow
        self.matrix = matrix
        self.nws = nws
        self.stats, self.trace = _scheduler_env(nws)
        self.task_index = {t.name: i for i, t in enumerate(matrix.tasks)}
        self.resource_free = {r.name: 0.0 for r in matrix.resources}
        self.finish: Dict[str, float] = {}
        self.location: Dict[str, str] = {}
        self.schedule = Schedule(heuristic="")
        self._component_done: Dict[str, int] = {
            c.name: 0 for c in workflow.components()}

    # -- readiness ----------------------------------------------------------
    def ready_tasks(self) -> List[Task]:
        """Tasks whose predecessor components are fully scheduled."""
        out = []
        for task in self.matrix.tasks:
            if task.name in self.schedule.placements:
                continue
            preds = self.workflow.predecessors(task.component.name)
            if all(self._component_done[p.name] == p.n_tasks for p in preds):
                out.append(task)
        return out

    def data_ready_time(self, task: Task, resource: str) -> float:
        """When the task's inputs can be present on ``resource``."""
        preds = self.workflow.predecessors(task.component.name)
        if not preds:
            return 0.0
        ready = 0.0
        volume = task.component.input_bytes_per_task
        for pred in preds:
            share = volume / pred.n_tasks if volume > 0 else 0.0
            for pname in self.workflow.task_names(pred.name):
                arrive = self.finish[pname]
                src = self.location[pname]
                if share > 0 and src != resource:
                    arrive += self.nws.transfer_forecast(src, resource, share)
                ready = max(ready, arrive)
        return ready

    def _entry_dcost(self, task: Task, resource_index: int) -> float:
        """Static input-staging cost for components with no predecessors.

        Downstream components get their data-movement cost dynamically
        from predecessor placements (data_ready_time); entry components
        pull from the fixed data sources the rank matrix recorded, so
        their dcost column applies here and only here (no double count).
        """
        if self.workflow.predecessors(task.component.name):
            return 0.0
        i = self.task_index[task.name]
        return float(self.matrix.dcosts[i, resource_index])

    def completion_time(self, task: Task, resource_index: int
                        ) -> float:
        """Estimated finish if ``task`` went on that resource next."""
        self.stats.sched_evaluations += 1
        i = self.task_index[task.name]
        exec_seconds = self.matrix.ecosts[i, resource_index]
        if not math.isfinite(exec_seconds):
            return math.inf
        record = self.matrix.resources[resource_index]
        start = max(self.resource_free[record.name],
                    self.data_ready_time(task, record.name))
        return start + exec_seconds + self._entry_dcost(task, resource_index)

    def best_resource(self, task: Task) -> Tuple[int, float, float]:
        """(best index, best completion, second-best completion)."""
        best_j, best_ct, second_ct = -1, math.inf, math.inf
        for j in range(len(self.matrix.resources)):
            ct = self.completion_time(task, j)
            if ct < best_ct:
                best_j, best_ct, second_ct = j, ct, best_ct
            elif ct < second_ct:
                second_ct = ct
        return best_j, best_ct, second_ct

    def commit(self, task: Task, resource_index: int) -> None:
        record = self.matrix.resources[resource_index]
        i = self.task_index[task.name]
        exec_seconds = self.matrix.ecosts[i, resource_index]
        start = float(max(self.resource_free[record.name],
                          self.data_ready_time(task, record.name)))
        finish = float(start + exec_seconds
                       + self._entry_dcost(task, resource_index))
        self.schedule.placements[task.name] = Placement(
            task=task, resource=record.name,
            est_start=start, est_finish=finish)
        self.resource_free[record.name] = finish
        self.finish[task.name] = finish
        self.location[task.name] = record.name
        self._component_done[task.component.name] += 1
        if self.trace is not None:
            self.trace.complete(
                "scheduler", f"task:{task.name}", ts=start,
                dur=finish - start, host=record.name,
                heuristic=self.schedule.heuristic,
                rank=self.matrix.rank(i, resource_index))

    def finish_trace(self) -> None:
        if self.trace is not None:
            self.trace.instant("scheduler",
                               f"heuristic:{self.schedule.heuristic}",
                               makespan=self.schedule.makespan,
                               tasks=len(self.matrix.tasks))

    def run(self, select: Callable[[List[Tuple[Task, int, float, float]]],
                                   Tuple[Task, int]],
            name: str) -> Schedule:
        """Drive list scheduling with a selection rule.

        ``select`` receives ``[(task, best_j, best_ct, second_ct), ...]``
        for the current ready set and returns the chosen (task, j).
        """
        self.schedule.heuristic = name
        total = len(self.matrix.tasks)
        while len(self.schedule.placements) < total:
            self.stats.sched_rounds += 1
            ready = self.ready_tasks()
            if not ready:
                raise ScheduleError("no ready tasks but schedule incomplete "
                                    "(cycle or ineligible task)")
            candidates = []
            for task in ready:
                j, ct, second = self.best_resource(task)
                if j < 0 or math.isinf(ct):
                    raise ScheduleError(
                        f"task {task.name} has no eligible resource")
                candidates.append((task, j, ct, second))
            task, j = select(candidates)
            self.commit(task, j)
        self.finish_trace()
        return self.schedule


# -- reference selection rules ----------------------------------------------
def _ref_select_min_min(candidates):
    task, j, _ct, _s = min(candidates, key=lambda c: (c[2], c[0].name))
    return task, j


def _ref_select_max_min(candidates):
    task, j, _ct, _s = min(candidates, key=lambda c: (-c[2], c[0].name))
    return task, j


def _ref_select_sufferage(candidates):
    def key(c):
        _task, _j, ct, second = c
        gap = (second - ct) if math.isfinite(second) else math.inf
        return (-gap, c[0].name)
    task, j, _ct, _s = min(candidates, key=key)
    return task, j


# -- the reference oracle entry points ---------------------------------------
def reference_min_min(workflow: Workflow, matrix: RankMatrix,
                      nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`min_min`."""
    return _ReferenceBuilder(workflow, matrix, nws).run(
        _ref_select_min_min, "min-min")


def reference_max_min(workflow: Workflow, matrix: RankMatrix,
                      nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`max_min`."""
    return _ReferenceBuilder(workflow, matrix, nws).run(
        _ref_select_max_min, "max-min")


def reference_sufferage(workflow: Workflow, matrix: RankMatrix,
                        nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`sufferage`."""
    return _ReferenceBuilder(workflow, matrix, nws).run(
        _ref_select_sufferage, "sufferage")


def reference_random_schedule(workflow: Workflow, matrix: RankMatrix,
                              nws: NetworkWeatherService,
                              rng: Optional[np.random.Generator] = None
                              ) -> Schedule:
    """Oracle counterpart of :func:`random_schedule` (same rng draws)."""
    if rng is None:
        rng = np.random.default_rng(0)
    builder = _ReferenceBuilder(workflow, matrix, nws)
    builder.schedule.heuristic = "random"
    total = len(matrix.tasks)
    while len(builder.schedule.placements) < total:
        builder.stats.sched_rounds += 1
        ready = builder.ready_tasks()
        if not ready:
            raise ScheduleError("no ready tasks but schedule incomplete "
                                "(cycle or ineligible task)")
        task = ready[int(rng.integers(len(ready)))]
        i = builder.task_index[task.name]
        eligible = matrix.eligible_resources(i)
        if not eligible:
            raise ScheduleError(f"task {task.name} has no eligible resource")
        builder.commit(task, int(rng.choice(eligible)))
    builder.finish_trace()
    return builder.schedule


def reference_fifo_schedule(workflow: Workflow, matrix: RankMatrix,
                            nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`fifo_schedule`."""
    builder = _ReferenceBuilder(workflow, matrix, nws)
    builder.schedule.heuristic = "fifo"
    total = len(matrix.tasks)
    while len(builder.schedule.placements) < total:
        builder.stats.sched_rounds += 1
        ready = builder.ready_tasks()
        if not ready:
            raise ScheduleError("no ready tasks but schedule incomplete "
                                "(cycle or ineligible task)")
        task = ready[0]
        i = builder.task_index[task.name]
        eligible = matrix.eligible_resources(i)
        if not eligible:
            raise ScheduleError(f"task {task.name} has no eligible resource")
        j = min(eligible,
                key=lambda jj: (builder.resource_free[
                    matrix.resources[jj].name], jj))
        builder.commit(task, j)
    builder.finish_trace()
    return builder.schedule


def reference_heft_schedule(workflow: Workflow, matrix: RankMatrix,
                            nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`heft_schedule`."""
    upward = _heft_upward_ranks(workflow, matrix)

    def select(candidates):
        task, j, _ct, _s = max(
            candidates,
            key=lambda c: (upward[c[0].component.name], c[0].name))
        return task, j

    return _ReferenceBuilder(workflow, matrix, nws).run(select, "heft")


#: the pure-Python oracle under the same names as
#: ``repro.scheduler.HEURISTICS``.
REFERENCE_HEURISTICS = {
    "min-min": reference_min_min,
    "max-min": reference_max_min,
    "sufferage": reference_sufferage,
    "random": reference_random_schedule,
    "fifo": reference_fifo_schedule,
    "heft": reference_heft_schedule,
}


def schedules_equal(a: Schedule, b: Schedule) -> bool:
    """Placement-for-placement equality (resources and exact times)."""
    if set(a.placements) != set(b.placements):
        return False
    for name, p in a.placements.items():
        q = b.placements[name]
        if (p.resource != q.resource or p.est_start != q.est_start
                or p.est_finish != q.est_finish):
            return False
    return True
