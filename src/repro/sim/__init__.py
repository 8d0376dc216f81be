"""Discrete-event simulation substrate for the GrADS reproduction.

The kernel is deliberately small (events, timeouts, processes and the
join-all :class:`AllOf`) and deterministic; all grid behaviour is built
on top of it in :mod:`repro.microgrid` and friends.
"""

from .events import (
    AllOf,
    Event,
    EventAlreadyTriggered,
    SimulationError,
    Timeout,
)
from .kernel import Simulator, StopSimulation
from .process import Interrupt, Process
from .rng import RngRegistry
from .stats import KernelStats, format_stats

__all__ = [
    "AllOf",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "KernelStats",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "format_stats",
]
