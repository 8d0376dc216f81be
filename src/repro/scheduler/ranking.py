"""Rank values and the performance matrix (§3.1).

"For each application component, the GrADS workflow scheduler ranks
each eligible resource ...  rank(c_i, r_j) = w1 * ecost(c_i, r_j) +
w2 * dcost(c_i, r_j)".  ``ecost`` comes from the §3.2 performance
models; ``dcost`` is "a product of the total volume of data required by
the component and the expected time to transfer data given current
network conditions", with NWS supplying latency and bandwidth.
Resources failing the component's minimum requirements get rank
infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gis.directory import GridInformationService, ResourceRecord
from ..microgrid.host import Architecture, CacheLevel
from ..nws.service import NetworkWeatherService
from .workflow import Task, Workflow

__all__ = ["RankMatrix", "build_rank_matrix", "dcost", "RANK_W1",
           "RANK_W2"]

#: The §3.1 weights of ``rank = w1 * ecost + w2 * dcost``.  Every
#: experiment ranks with both at 1, so execution and data-movement
#: seconds count alike.
RANK_W1 = 1.0
RANK_W2 = 1.0


def _record_arch(record: ResourceRecord) -> Architecture:
    """Reconstitute an Architecture from a GIS record (the scheduler
    works from directory data, not live host objects)."""
    caches = (CacheLevel(size=record.cache_bytes),) if record.cache_bytes \
        else ()
    return Architecture(name=record.name, mflops=record.mflops,
                        isa=record.isa, caches=caches,
                        memory_bytes=record.memory_bytes)


def _exec_seconds(task: Task, record: ResourceRecord, arch: Architecture,
                  availability: float) -> float:
    """Expected execution seconds (``ecost``) of one task on an eligible
    resource, given the resource's CPU forecast."""
    if availability <= 0:
        return math.inf
    component = task.component
    per_task_mflop = task.mflop()
    flop_seconds = per_task_mflop / (record.mflops * availability)
    memory_seconds = component.model.memory_seconds(
        component.problem_size, arch) / component.n_tasks
    return flop_seconds + memory_seconds


def dcost(task: Task, record: ResourceRecord,
          nws: NetworkWeatherService, data_sources: Sequence[str]) -> float:
    """Expected data-movement seconds for one task onto one resource.

    ``data_sources`` are the host names currently holding the task's
    inputs (its predecessors' outputs, or the submission host for entry
    components)."""
    volume = task.component.input_bytes_per_task
    if volume <= 0 or not data_sources:
        return 0.0
    per_source = volume / len(data_sources)
    return sum(nws.transfer_forecast(src, record.name, per_source)
               for src in data_sources)


@dataclass
class RankMatrix:
    """The §3.1 performance matrix: p[i][j] = rank of task i on resource j.

    The matrix is immutable once built, so the eligibility lists are
    computed on first use and cached — the scheduling engines hit them
    in their inner loops.
    """

    tasks: List[Task]
    resources: List[ResourceRecord]
    values: np.ndarray  # shape (n_tasks, n_resources), float, inf = ineligible
    ecosts: np.ndarray  # execution-seconds component of the rank
    dcosts: np.ndarray  # data-movement component of the rank
    _eligible: Optional[List[List[int]]] = None

    def eligible_resources(self, task_index: int) -> List[int]:
        if self._eligible is None:
            finite = np.isfinite(self.values)
            self._eligible = [
                [int(j) for j in np.nonzero(finite[i])[0]]
                for i in range(len(self.tasks))]
        return self._eligible[task_index]


def build_rank_matrix(workflow: Workflow, gis: GridInformationService,
                      nws: NetworkWeatherService,
                      data_sources: Optional[Dict[str, List[str]]] = None,
                      resources: Optional[Sequence[ResourceRecord]] = None,
                      ) -> RankMatrix:
    """Compute rank(c, r) for every task/resource pair.

    ``data_sources`` maps component name -> host names holding its
    input data (default: unknown, dcost = 0 — pure compute ranking).

    Each cell equals a per-cell ``ecost``/``dcost`` evaluation bit for
    bit (the tests keep that ``ecost`` as an oracle), but a resource's
    ``Architecture`` is built once and its CPU forecast read once per
    build: forecasts are frozen while the matrix is built (no simulated
    time passes).  The read happens at the resource's first eligible
    cell in row-major order, where a per-cell ``ecost`` walk makes it,
    because on a host with no data yet it is an on-demand probe that
    feeds the forecast series.  Before the walk, every resource's CPU
    series is replayed in one batch
    (:meth:`NetworkWeatherService.replay_cpu`), which probes nothing,
    so the reads find them up to date and the probes keep their order.
    """
    records = list(resources) if resources is not None else gis.resources()
    if not records:
        raise ValueError("no resources to rank against")
    nws.replay_cpu([record.name for record in records])
    archs = [_record_arch(record) for record in records]
    availability: List[Optional[float]] = [None] * len(records)
    tasks = workflow.tasks()
    n, m = len(tasks), len(records)
    e = np.zeros((n, m))
    d = np.zeros((n, m))
    for i, task in enumerate(tasks):
        component = task.component
        sources = (data_sources or {}).get(component.name, [])
        for j, record in enumerate(records):
            arch = archs[j]
            if component.model.eligible(component.problem_size, arch):
                avail = availability[j]
                if avail is None:
                    avail = availability[j] = nws.cpu_forecast(record.name)
                e[i, j] = _exec_seconds(task, record, arch, avail)
            else:
                e[i, j] = math.inf
            d[i, j] = dcost(task, record, nws, sources)
    values = RANK_W1 * e + RANK_W2 * d
    return RankMatrix(tasks=tasks, resources=records, values=values,
                      ecosts=e, dcosts=d)
