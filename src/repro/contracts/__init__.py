"""Performance contracts and Autopilot-style monitoring."""

from .contract import ContractViolation, PerformanceContract
from .fuzzy import (
    FuzzyEngine,
    FuzzyRule,
    FuzzyVariable,
    Trapezoid,
    contract_violation_engine,
)
from .monitor import ContractMonitor, MigrationRequest
from .viewer import ContractViewer

__all__ = [
    "ContractMonitor",
    "ContractViewer",
    "ContractViolation",
    "FuzzyEngine",
    "FuzzyRule",
    "FuzzyVariable",
    "MigrationRequest",
    "PerformanceContract",
    "Trapezoid",
    "contract_violation_engine",
]
