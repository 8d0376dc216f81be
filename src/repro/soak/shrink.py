"""Greedy delta-debugging of a violating soak scenario.

Given a scenario whose run produced invariant violations,
:func:`shrink_scenario` repeatedly deletes elements (jobs, faults,
bursts, link operations, markers), disables whole lanes, and halves
the duration, keeping any change under which *some* of the original
violations still reproduce.  The result is a locally
minimal scenario: removing any single remaining element makes the
failure disappear.

The predicate is "same invariant *name* still fires", not "identical
detail string" — shrinking changes timestamps and counts, but a
reproducer for a ``swap-hygiene`` bug must still be a ``swap-hygiene``
reproducer.

Every candidate evaluation is one full :func:`~repro.soak.runner
.run_with_checks` execution, so the search is budgeted (``max_runs``)
and greedy rather than exhaustive.  The output of
:func:`write_reproducer` is a plain scenario JSON file replayable with
``repro soak replay``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from .runner import run_with_checks
from .scenario import ScenarioSpec

__all__ = ["ShrinkResult", "shrink_scenario", "violated_invariants",
           "write_reproducer"]

#: never shrink the duration below this (lanes need room to quiesce)
_MIN_DURATION = 60.0


def violated_invariants(report: dict) -> FrozenSet[str]:
    """The set of invariant names a scenario report violates."""
    return frozenset(v["invariant"] for v in report["violations"])


def _clone(spec: ScenarioSpec, **overrides) -> ScenarioSpec:
    data = spec.to_dict()
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


@dataclass
class ShrinkResult:
    """What the shrinker found and how hard it had to look."""

    minimal: ScenarioSpec
    targets: FrozenSet[str]
    runs: int
    removed: int


def shrink_scenario(spec: ScenarioSpec,
                    max_runs: int = 150) -> ShrinkResult:
    """Minimize ``spec`` while any of its violations still reproduce."""
    targets = violated_invariants(run_with_checks(spec))
    if not targets:
        raise ValueError("scenario does not violate any invariant; "
                         "nothing to shrink")
    budget = {"runs": 1}

    def still_fails(candidate: ScenarioSpec) -> bool:
        if budget["runs"] >= max_runs:
            return False
        budget["runs"] += 1
        return bool(targets & violated_invariants(
            run_with_checks(candidate)))

    current = spec
    removed = 0
    progress = True
    while progress and budget["runs"] < max_runs:
        progress = False

        # -- drop elements from each list, big chunks first ---------------
        for field_name in ("jobs", "faults", "bursts", "links", "markers"):
            items = list(getattr(current, field_name))
            chunk = max(len(items) // 2, 1)
            while chunk >= 1:
                i = 0
                while i < len(items):
                    trial = items[:i] + items[i + chunk:]
                    candidate = _clone(current, **{field_name: trial})
                    if still_fails(candidate):
                        removed += len(items) - len(trial)
                        items = trial
                        current = candidate
                        progress = True
                    else:
                        i += chunk
                if chunk == 1:
                    break
                chunk //= 2

        # -- disable whole optional lanes ---------------------------------
        for lane in ("swap", "srs"):
            if getattr(current, lane) is not None:
                candidate = _clone(current, **{lane: None})
                if still_fails(candidate):
                    current = candidate
                    removed += 1
                    progress = True

        # -- cheapen the trace cross-check if it is not the failure -------
        if current.trace_check:
            candidate = _clone(current, trace_check=False)
            if still_fails(candidate):
                current = candidate
                progress = True

        # -- halve the duration -------------------------------------------
        while current.duration / 2.0 >= _MIN_DURATION:
            candidate = _clone(
                current, duration=round(current.duration / 2.0, 6))
            if still_fails(candidate):
                current = candidate
                progress = True
            else:
                break

    return ShrinkResult(minimal=current, targets=targets,
                        runs=budget["runs"], removed=removed)


def write_reproducer(spec: ScenarioSpec, path: str) -> None:
    """Write a scenario as a ``repro soak replay``-able JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())
        fh.write("\n")


def load_reproducer(path: str) -> ScenarioSpec:
    """Read a scenario back from :func:`write_reproducer` output."""
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioSpec.from_json(fh.read())
