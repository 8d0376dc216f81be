"""The GrADS workflow scheduler (paper §3)."""

from .executor import ExecutionTrace, TaskTrace, WorkflowExecutor
from .heuristics import (
    HEURISTICS,
    Placement,
    Schedule,
    ScheduleError,
    fifo_schedule,
    heft_schedule,
    max_min,
    min_min,
    random_schedule,
    sufferage,
)
from .ranking import RankMatrix, build_rank_matrix, dcost, ecost
from .scheduler import GradsWorkflowScheduler, SchedulingResult
from .workflow import Task, Workflow, WorkflowComponent, WorkflowError

__all__ = [
    "ExecutionTrace",
    "GradsWorkflowScheduler",
    "HEURISTICS",
    "Placement",
    "RankMatrix",
    "Schedule",
    "ScheduleError",
    "SchedulingResult",
    "Task",
    "TaskTrace",
    "Workflow",
    "WorkflowComponent",
    "WorkflowError",
    "WorkflowExecutor",
    "build_rank_matrix",
    "dcost",
    "ecost",
    "fifo_schedule",
    "heft_schedule",
    "max_min",
    "min_min",
    "random_schedule",
    "sufferage",
]
