"""The contract monitor (§4.1.1).

"The contract monitor compares the actual execution times with
predicted ones and calculates the ratio.  The tolerance limits of the
ratio are specified as inputs to the contract monitor.  When a given
ratio is greater than the upper tolerance limit, the contract monitor
calculates the average of the computed ratios.  If the average is
greater than the upper tolerance limit, it contacts the rescheduler,
requesting that the application be migrated.  If the rescheduler
chooses not to migrate the application, the contract monitor adjusts
its tolerance limits to new values.  Similarly, when a given ratio is
less than the lower tolerance limit, the contract monitor calculates
the average of the ratios and lowers the tolerance limits, if
necessary."

The fuzzy engine grades each violation's severity, which is also what
the Contract Viewer GUI visualized; severity is attached to the
migration request so reschedulers can prioritize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..mpi.comm import MpiJob
from ..sim.kernel import Simulator
from .contract import ContractViolation, PerformanceContract
from .fuzzy import contract_violation_engine

__all__ = ["MigrationRequest", "ContractMonitor"]

#: headroom factor applied when the monitor renegotiates its limits
#: after a declined migration (and divided out when it loosens the
#: lower limit for an application running faster than contract)
ADJUST_MARGIN = 1.2


@dataclass(frozen=True)
class MigrationRequest:
    """What the monitor hands the rescheduler on a confirmed violation."""

    time: float
    phase: int
    ratio: float
    average_ratio: float
    severity: float  # fuzzy violation degree in [0, 1]


class ContractMonitor:
    """Adaptive-tolerance ratio monitoring for one application."""

    def __init__(self, sim: Simulator, contract: PerformanceContract,
                 rescheduler: Optional[Callable[[MigrationRequest], bool]] = None,
                 window: int = 5) -> None:
        """``rescheduler(request) -> bool`` returns True if it migrated.

        ``window`` is how many recent ratios the confirmation average uses.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        self.sim = sim
        self.contract = contract
        self.rescheduler = rescheduler
        self.fuzzy = contract_violation_engine()
        self.window = window
        # live tolerance limits (the contract's are the initial terms)
        self.upper = contract.upper
        self.lower = contract.lower
        self.ratios: List[float] = []
        self.requests: List[MigrationRequest] = []
        self.limit_adjustments: List[tuple] = []
        self._suspended = False

    # -- wiring ---------------------------------------------------------------
    def attach_job(self, job: MpiJob) -> None:
        """Subscribe to the job's binder-inserted iteration sensors.

        Ranks report individually; a bulk-synchronous app's phase time
        is governed by its slowest rank, so the monitor keeps the max
        over ranks for each phase and evaluates when the phase is fully
        reported.

        Failure hardening: ranks are tracked per phase as a *set* (a
        rank re-reporting an iteration — e.g. replaying steps after an
        SRS checkpoint restart — cannot overshoot the ``>= job.size``
        completion test), evaluated phases are popped so the pending map
        stays bounded, and re-reports of an already-evaluated phase are
        ignored as stale.
        """
        pending: dict = {}  # iteration -> (worst seconds, ranks reported)
        watermark = -1  # highest iteration already evaluated

        def on_iteration(rank: int, iteration: int, seconds: float) -> None:
            nonlocal watermark
            if iteration not in pending and iteration <= watermark:
                return  # stale re-report of an evaluated phase
            worst, ranks = pending.setdefault(iteration, (0.0, set()))
            if rank in ranks:
                return  # duplicate report from the same rank
            ranks.add(rank)
            pending[iteration] = (max(worst, seconds), ranks)
            if len(ranks) >= job.size:
                worst, _ranks = pending.pop(iteration)
                watermark = max(watermark, iteration)
                self.report_phase(iteration, worst)

        job.on_iteration(on_iteration)

    # -- suspension around migrations ---------------------------------------------
    def suspend(self) -> None:
        """Stop evaluating (used while a migration is in progress)."""
        self._suspended = True

    def resume(self, clear_history: bool = True) -> None:
        if clear_history:
            self.ratios.clear()
        self._suspended = False

    # -- the §4.1.1 algorithm -----------------------------------------------------
    def report_phase(self, phase: int, measured_seconds: float) -> None:
        if self._suspended:
            return
        ratio = self.contract.ratio(phase, measured_seconds)
        self.ratios.append(ratio)
        trace = self.sim.trace
        if trace is not None and "contract" in trace.active:
            trace.instant("contract", "ratio", phase=phase, ratio=ratio,
                          upper=self.upper, lower=self.lower)
        if ratio > self.upper:
            average = self._average()
            if average > self.upper:
                self._confirmed_slow(phase, ratio, average)
        elif ratio < self.lower:
            average = self._average()
            if average < self.lower:
                self._confirmed_fast(phase, ratio, average)

    def _average(self) -> float:
        recent = self.ratios[-self.window:]
        return float(np.mean(recent))

    def _confirmed_slow(self, phase: int, ratio: float,
                        average: float) -> None:
        severity = self.fuzzy.infer(ratio=average)
        self.contract.record_violation(ContractViolation(
            time=self.sim.now, phase=phase, ratio=ratio,
            average_ratio=average, kind="slow"))
        request = MigrationRequest(time=self.sim.now, phase=phase,
                                   ratio=ratio, average_ratio=average,
                                   severity=severity)
        self.requests.append(request)
        trace = self.sim.trace
        if trace is not None and "contract" in trace.active:
            trace.instant("contract", "violation", kind="slow", phase=phase,
                          ratio=ratio, average_ratio=average,
                          severity=severity)
            trace.instant("contract", "migration-request", phase=phase,
                          severity=severity)
        migrated = False
        if self.rescheduler is not None:
            migrated = bool(self.rescheduler(request))
        if not migrated:
            # Rescheduler declined: accept the new normal so the monitor
            # does not re-fire every phase on the same condition.  Only
            # log an adjustment when the live limit actually moves — an
            # append for new_upper <= upper would make the adjustment
            # log disagree with self.upper.
            new_upper = average * ADJUST_MARGIN
            if new_upper > self.upper:
                self.limit_adjustments.append(
                    (self.sim.now, self.upper, new_upper))
                self.upper = new_upper

    def _confirmed_fast(self, phase: int, ratio: float,
                        average: float) -> None:
        self.contract.record_violation(ContractViolation(
            time=self.sim.now, phase=phase, ratio=ratio,
            average_ratio=average, kind="fast"))
        trace = self.sim.trace
        if trace is not None and "contract" in trace.active:
            trace.instant("contract", "violation", kind="fast", phase=phase,
                          ratio=ratio, average_ratio=average)
        # Running faster than contract: tighten limits downward so a
        # later slowdown back to the (poor) contract level is caught.
        new_upper = max(average * ADJUST_MARGIN, self.lower * 1.01)
        if new_upper < self.upper:
            self.limit_adjustments.append(
                (self.sim.now, self.upper, new_upper))
            self.upper = new_upper
        new_lower = average / ADJUST_MARGIN
        if new_lower < self.lower:
            self.limit_adjustments.append(
                (self.sim.now, self.lower, new_lower))
            self.lower = new_lower
