"""Soak-sweep experiment driver (``repro soak``).

Runs a seed-keyed sweep of randomized composite scenarios through
:func:`repro.soak.runner.run_with_checks` and reduces the outcomes to
one deterministic report: same seed and scenario count, same bytes.
Scenarios whose runs violate invariants are optionally shrunk to
minimal ``repro soak replay``-able reproducer files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..soak.scenario import (ScenarioSpec, sample_mtbf_scenario,
                             sample_scenario)
from ..soak.runner import run_with_checks
from ..soak.shrink import shrink_scenario, write_reproducer
from .common import JSON_SCHEMA_VERSION, format_table

__all__ = ["PRESETS", "SCENARIOS_PER_MINUTE", "SoakReport", "run_soak",
           "soak_tables"]

#: calibrated sweep rate: a scenario (including its trace cross-check)
#: averages well under a second of wall time, so a ``--minutes``
#: budget maps to a deterministic scenario count.  The value is part
#: of the contract — it fixes which scenarios a ``--minutes`` run
#: covers — so it is not re-tuned when scenarios get faster
SCENARIOS_PER_MINUTE = 100

#: ``repro soak run --preset`` name -> scenario sampler ``(seed, index)``
PRESETS = {"sampled": sample_scenario, "mtbf": sample_mtbf_scenario}


@dataclass
class SoakReport:
    """One soak sweep, reduced to plain data."""

    seed: int
    scenarios: int
    results: List[dict] = field(default_factory=list)
    reproducers: List[dict] = field(default_factory=list)

    def summary(self) -> dict:
        by_invariant: dict = {}
        violating = 0
        for result in self.results:
            if result["violations"]:
                violating += 1
            for violation in result["violations"]:
                name = violation["invariant"]
                by_invariant[name] = by_invariant.get(name, 0) + 1
        return {
            "scenarios": len(self.results),
            "quiesced": sum(1 for r in self.results if r["quiesced"]),
            "violations": sum(len(r["violations"])
                              for r in self.results),
            "scenarios_with_violations": violating,
            "by_invariant": {name: by_invariant[name]
                             for name in sorted(by_invariant)},
            "jobs_submitted": sum(len(r["jobs"]) for r in self.results),
        }

    def report(self) -> dict:
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "params": {"seed": self.seed, "scenarios": self.scenarios},
            "scenarios": self.results,
            "reproducers": self.reproducers,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        """Deterministic serialization: equal seeds => equal bytes."""
        return json.dumps(self.report(), sort_keys=True)


def run_soak(seed: int = 0, scenarios: Optional[int] = None,
             minutes: Optional[float] = None,
             shrink_dir: Optional[str] = None,
             sampler: Callable[[int, int], ScenarioSpec] = sample_scenario,
             ) -> SoakReport:
    """Run a soak sweep of ``sampler(seed, index)`` scenarios.

    ``scenarios`` fixes the sweep size directly; ``minutes`` converts a
    time budget through :data:`SCENARIOS_PER_MINUTE` (deterministic —
    never wall-clock measured).  With ``shrink_dir`` set, every
    violating scenario is delta-debugged to a minimal reproducer JSON
    written into that directory.
    """
    if scenarios is None:
        if minutes is None:
            scenarios = 50
        else:
            scenarios = max(int(minutes * SCENARIOS_PER_MINUTE), 1)
    report = SoakReport(seed=seed, scenarios=scenarios)
    for index in range(scenarios):
        spec = sampler(seed, index)
        result = run_with_checks(spec)
        report.results.append(result)
        if result["violations"] and shrink_dir is not None:
            os.makedirs(shrink_dir, exist_ok=True)
            shrunk = shrink_scenario(spec)
            filename = f"reproducer-{seed}-{index}.json"
            write_reproducer(shrunk.minimal,
                             os.path.join(shrink_dir, filename))
            report.reproducers.append({
                "index": index,
                "file": filename,
                "invariants": sorted(shrunk.targets),
                "shrink_runs": shrunk.runs,
            })
    return report


def _lane_cell(lanes: dict) -> str:
    tags = []
    for key, label in (("metasched", "meta"), ("swap", "swap"),
                       ("srs", "srs")):
        status = lanes[key]
        if status == "absent":
            continue
        short = {"ok": "ok", "unfinished": "STUCK"}.get(
            status, "FAILED")
        tags.append(f"{label}:{short}")
    return " ".join(tags) or "-"


def soak_tables(report: dict) -> str:
    """Render a soak report dict as the CLI's text output."""
    summary = report["summary"]
    rows = []
    for result in report["scenarios"]:
        rows.append([
            result["index"],
            result["duration"],
            len(result["jobs"]),
            _lane_cell(result["lanes"]),
            "yes" if result["quiesced"] else "NO",
            len(result["violations"]),
        ])
    parts = [format_table(
        ["scenario", "duration (s)", "jobs", "lanes", "quiesced",
         "violations"],
        rows,
        title=(f"soak: {summary['scenarios']} scenarios, "
               f"{summary['violations']} violations in "
               f"{summary['scenarios_with_violations']} scenarios"))]
    details = []
    for result in report["scenarios"]:
        for violation in result["violations"]:
            details.append([result["index"], violation["invariant"],
                            violation["time"],
                            violation["detail"][:80]])
    if details:
        parts.append(format_table(
            ["scenario", "invariant", "time (s)", "detail"],
            details, title="violations"))
    if report["reproducers"]:
        parts.append(format_table(
            ["scenario", "invariants", "file", "shrink runs"],
            [[r["index"], ", ".join(r["invariants"]), r["file"],
              r["shrink_runs"]] for r in report["reproducers"]],
            title="shrunk reproducers"))
    return "\n\n".join(parts)
