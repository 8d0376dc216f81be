"""The GrADS workflow scheduler facade (§3.1).

Builds the model of grid resources (GIS + NWS), obtains the application
performance models, computes the rank matrix, runs the three heuristics,
and "select[s] the schedule with the minimum makespan".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..gis.directory import GridInformationService, ResourceRecord
from ..nws.service import NetworkWeatherService
from .heuristics import Schedule, max_min, min_min, sufferage
from .ranking import RankMatrix, build_rank_matrix
from .workflow import Workflow

__all__ = ["GradsWorkflowScheduler", "SchedulingResult"]


@dataclass
class SchedulingResult:
    """The chosen schedule plus every candidate, for inspection."""

    best: Schedule
    candidates: Dict[str, Schedule] = field(default_factory=dict)
    matrix: Optional[RankMatrix] = None

    def makespans(self) -> Dict[str, float]:
        return {name: s.makespan for name, s in self.candidates.items()}


class GradsWorkflowScheduler:
    """min(makespan) over {min-min, max-min, sufferage} mappings."""

    def __init__(self, gis: GridInformationService,
                 nws: NetworkWeatherService) -> None:
        self.gis = gis
        self.nws = nws

    def schedule(self, workflow: Workflow,
                 data_sources: Optional[Dict[str, List[str]]] = None,
                 resources: Optional[Sequence[ResourceRecord]] = None,
                 ) -> SchedulingResult:
        """Map ``workflow`` onto the grid; returns the best schedule.

        ``data_sources`` tells the ranking where each component's input
        data currently lives (submission host for entry components).
        """
        matrix = build_rank_matrix(
            workflow, self.gis, self.nws, data_sources=data_sources,
            resources=resources)
        candidates: Dict[str, Schedule] = {}
        for heuristic in (min_min, max_min, sufferage):
            schedule = heuristic(workflow, matrix, self.nws)
            candidates[schedule.heuristic] = schedule
        best = min(candidates.values(), key=lambda s: (s.makespan, s.heuristic))
        trace = getattr(getattr(self.nws, "sim", None), "trace", None)
        if trace is not None:
            trace.instant("scheduler", "chosen", heuristic=best.heuristic,
                          makespan=best.makespan)
        return SchedulingResult(best=best, candidates=candidates,
                                matrix=matrix)
