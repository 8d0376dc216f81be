"""Differential soak harness: randomized cross-subsystem scenarios,
global invariants, and a shrinker for violating runs (DESIGN.md §10).
"""

from .invariants import (CHECKPOINT_AUDITORS, FINAL_AUDITORS, Violation,
                         run_checkpoint_auditors, run_final_auditors)
from .runner import (ScenarioOutcome, SoakContext, run_scenario,
                     run_with_checks)
from .scenario import (FIG3_HOSTS, SCENARIO_SCHEMA_VERSION,
                       SUBMISSION_HOST, ScenarioSpec, sample_mtbf_scenario,
                       sample_scenario)
from .shrink import (ShrinkResult, load_reproducer, shrink_scenario,
                     violated_invariants, write_reproducer)

__all__ = [
    "CHECKPOINT_AUDITORS",
    "FINAL_AUDITORS",
    "FIG3_HOSTS",
    "SCENARIO_SCHEMA_VERSION",
    "SUBMISSION_HOST",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ShrinkResult",
    "SoakContext",
    "Violation",
    "load_reproducer",
    "run_checkpoint_auditors",
    "run_final_auditors",
    "run_scenario",
    "run_with_checks",
    "sample_mtbf_scenario",
    "sample_scenario",
    "shrink_scenario",
    "violated_invariants",
    "write_reproducer",
]
