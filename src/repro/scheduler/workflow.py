"""Workflow application model (§3).

"A workflow application consists of a collection of components that
need to be executed in a partial order determined by control and data
dependences."  Components may be *parallelizable* (the EMAN
``classesbymra`` step fans out over particle classes); the scheduler
treats a parallelizable component as a bag of independent tasks, which
is exactly the setting the min-min/max-min/sufferage heuristics come
from (Casanova et al., HCW 2000).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..perfmodel.model import ComponentModel

__all__ = ["WorkflowComponent", "Workflow", "Task", "WorkflowError"]


class WorkflowError(ValueError):
    """Raised for malformed workflow graphs."""


@dataclass(frozen=True)
class WorkflowComponent:
    """One node of the application DAG."""

    name: str
    model: ComponentModel
    problem_size: float
    #: number of independent tasks this component splits into (1 = serial)
    n_tasks: int = 1
    #: bytes each task must receive from each predecessor component
    input_bytes_per_task: float = 0.0
    #: bytes each task hands to each successor component
    output_bytes_per_task: float = 0.0

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise WorkflowError(f"{self.name}: n_tasks must be >= 1")
        if self.problem_size < 0:
            raise WorkflowError(f"{self.name}: negative problem size")

    def task_mflop(self) -> float:
        """Work of one task: the component's work divided over its tasks."""
        return self.model.mflop(self.problem_size) / self.n_tasks


@dataclass(frozen=True)
class Task:
    """One schedulable unit: (component, index within the component)."""

    component: WorkflowComponent
    index: int

    @property
    def name(self) -> str:
        return f"{self.component.name}[{self.index}]"

    def mflop(self) -> float:
        return self.component.task_mflop()


class Workflow:
    """A DAG of :class:`WorkflowComponent` with data-dependence edges."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._components: Dict[str, WorkflowComponent] = {}
        # name -> producer / consumer names, in insertion order
        self._preds: Dict[str, List[str]] = {}
        self._succs: Dict[str, List[str]] = {}
        # topological order, cached until the next add_*
        self._order: Optional[List[WorkflowComponent]] = None
        self._task_names: Dict[str, Tuple[str, ...]] = {}

    def add_component(self, component: WorkflowComponent) -> WorkflowComponent:
        if component.name in self._components:
            raise WorkflowError(f"duplicate component {component.name!r}")
        self._components[component.name] = component
        self._preds[component.name] = []
        self._succs[component.name] = []
        self._order = None
        return component

    def add_dependence(self, producer: str, consumer: str) -> None:
        """Declare that ``consumer`` needs ``producer``'s output."""
        for name in (producer, consumer):
            if name not in self._components:
                raise WorkflowError(f"unknown component {name!r}")
        if producer in self._preds[consumer]:
            return
        if self._reaches(consumer, producer):
            raise WorkflowError(
                f"dependence {producer!r} -> {consumer!r} creates a cycle")
        self._succs[producer].append(consumer)
        self._preds[consumer].append(producer)
        self._order = None

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a dependence chain leads from ``start`` to ``goal``."""
        stack, seen = [start], {start}
        while stack:
            name = stack.pop()
            if name == goal:
                return True
            for succ in self._succs[name]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # -- queries -----------------------------------------------------------
    def component(self, name: str) -> WorkflowComponent:
        try:
            return self._components[name]
        except KeyError:
            raise WorkflowError(f"unknown component {name!r}") from None

    def components(self) -> List[WorkflowComponent]:
        """Components in a topological order (stable across runs).

        The order is the lexicographically smallest one: Kahn's
        algorithm releasing the smallest ready name first.
        """
        if self._order is None:
            indegree = {name: len(p) for name, p in self._preds.items()}
            ready = sorted(name for name, n in indegree.items() if n == 0)
            order = []
            while ready:
                name = heapq.heappop(ready)
                order.append(self._components[name])
                for succ in self._succs[name]:
                    indegree[succ] -= 1
                    if not indegree[succ]:
                        heapq.heappush(ready, succ)
            self._order = order
        return list(self._order)

    def predecessors(self, name: str) -> List[WorkflowComponent]:
        return [self._components[p] for p in sorted(self._preds[name])]

    def successors(self, name: str) -> List[WorkflowComponent]:
        return [self._components[s] for s in sorted(self._succs[name])]

    def tasks(self) -> List[Task]:
        """All tasks of all components, in topological component order."""
        out: List[Task] = []
        for component in self.components():
            out.extend(Task(component, i) for i in range(component.n_tasks))
        return out

    def task_names(self, component_name: str) -> Tuple[str, ...]:
        """Task-name strings of one component, cached.

        ``Task.name`` builds an f-string on every access; the schedulers
        sit in loops over predecessor task names, so they read this
        cache instead.  Component names and ``n_tasks`` are frozen, so
        entries never go stale.
        """
        cached = self._task_names.get(component_name)
        if cached is None:
            component = self.component(component_name)
            cached = tuple(f"{component_name}[{i}]"
                           for i in range(component.n_tasks))
            self._task_names[component_name] = cached
        return cached

    def total_mflop(self) -> float:
        return sum(c.model.mflop(c.problem_size)
                   for c in self._components.values())

    def critical_path_mflop(self) -> float:
        """Work along the heaviest dependence chain (a lower bound on
        any schedule's compute time for one task per step)."""
        best: Dict[str, float] = {}
        for component in self.components():
            preds = [best[p.name] for p in self.predecessors(component.name)]
            best[component.name] = (max(preds) if preds else 0.0) \
                + component.task_mflop()
        return max(best.values()) if best else 0.0

    def __len__(self) -> int:
        return len(self._components)

    def __contains__(self, name: str) -> bool:
        return name in self._components
