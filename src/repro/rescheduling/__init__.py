"""Rescheduling: stop/migrate/restart and process swapping (paper §4)."""

from .rescheduler import (
    DecisionRecord,
    MigratableApp,
    MigrationEvaluation,
    Rescheduler,
)
from .rss import CheckpointLocation, CheckpointRecord, RuntimeSupportSystem
from .srs import RegisteredData, SRSLibrary, partition_bytes, restore_plan
from .swapping import (
    SWAP_POLICIES,
    SwapDecision,
    SwapRescheduler,
    gang_policy,
    greedy_policy,
    single_policy,
    threshold_policy,
)

__all__ = [
    "CheckpointLocation",
    "CheckpointRecord",
    "DecisionRecord",
    "MigratableApp",
    "MigrationEvaluation",
    "RegisteredData",
    "Rescheduler",
    "RuntimeSupportSystem",
    "SRSLibrary",
    "SWAP_POLICIES",
    "SwapDecision",
    "SwapRescheduler",
    "gang_policy",
    "greedy_policy",
    "partition_bytes",
    "restore_plan",
    "single_policy",
    "threshold_policy",
]
