"""Per-cell reference for the §3.1 rank matrix.

:func:`repro.scheduler.build_rank_matrix` builds each resource's
``Architecture`` once and reads its CPU forecast once per build.
:func:`ecost` is the per-cell evaluation it replaced: it rebuilds the
architecture and reads the forecast on every call, so the tests can
require every matrix cell to equal it bit for bit.
"""

from __future__ import annotations

import math

from repro.gis.directory import ResourceRecord
from repro.nws.service import NetworkWeatherService
from repro.scheduler.ranking import _exec_seconds, _record_arch
from repro.scheduler.workflow import Task

__all__ = ["ecost"]


def ecost(task: Task, record: ResourceRecord,
          nws: NetworkWeatherService) -> float:
    """Expected execution seconds of one task on one resource."""
    component = task.component
    arch = _record_arch(record)
    if not component.model.eligible(component.problem_size, arch):
        return math.inf
    return _exec_seconds(task, record, arch, nws.cpu_forecast(record.name))
