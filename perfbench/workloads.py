"""The benchmark's three workloads: inputs, timed steps and outcomes.

A workload is a list of *steps*, the unit the timed loop repeats and
times; each step yields one or more *operations*, the unit the outcome
check counts (a fig3 bar or decision replay, a metasched job, a soak
scenario).  Only public entry points of ``repro.experiments``,
``repro.soak`` and ``repro.sim`` are called; the caller puts the
repository's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.fig3_qr import DEFAULT_SIZES, run_fig3
from repro.experiments.metasched_stream import run_metasched
from repro.metasched import generate_stream
from repro.sim.rng import RngRegistry
from repro.soak import run_scenario, sample_scenario
from repro.trace.tracer import Tracer

FIG3 = "fig3-sweep"
META = "metasched-64h"
SOAK = "soak-50"

#: the metasched-64h stream: a saturated 16-user stream on the 64-host
#: scale grid.  400 jobs keep one stream near 6 s, so a run holds
#: several repetitions for its median.
META_PARAMS = dict(users=16, arrival_rate=1 / 12, duration=12000.0,
                   max_jobs=400, n_hosts=64, cpu_period=60.0)
SOAK_SCENARIOS = 50

_TERMINAL = ("completed", "failed", "rejected")

#: one operation's outcome: (operation id, outcome fields, invariant
#: failures — empty when the outcome is sane on its own)
Outcome = Tuple[str, dict, List[str]]


def prepare(name: str, seed: int) -> list:
    """Generate the workload's inputs and return its steps.

    This is the set-up the ``setup_s`` metric times in a fresh
    interpreter, together with the imports above.
    """
    if name == FIG3:
        # the Figure 3 scenario is scripted: its inputs are the sizes
        return list(DEFAULT_SIZES)
    if name == META:
        # run_metasched draws this same stream from the seed itself
        generate_stream(META_PARAMS["users"], META_PARAMS["arrival_rate"],
                        META_PARAMS["duration"], RngRegistry(seed),
                        max_jobs=META_PARAMS["max_jobs"])
        return ["stream"]
    if name == SOAK:
        return [sample_scenario(seed, i) for i in range(SOAK_SCENARIOS)]
    raise ValueError(f"unknown workload {name!r}")


def _fig3_step(n: int, seed: int) -> List[Outcome]:
    result = run_fig3(sizes=(n,), seed=seed)
    out: List[Outcome] = []
    for point in result.points:
        bad = []
        if not (math.isfinite(point.total_seconds)
                and point.total_seconds > 0):
            bad.append(f"total_seconds={point.total_seconds}")
        if point.mode == "no-reschedule" and point.migrations:
            bad.append(f"no-reschedule bar made {point.migrations} "
                       f"migrations")
        out.append((f"bar:{n}:{point.mode}",
                    {"total_seconds": point.total_seconds,
                     "migrations": point.migrations}, bad))
    decision = result.decisions[n]
    out.append((f"decision:{n}",
                {"migrate": decision["migrate"],
                 "correct": decision["correct"]}, []))
    return out


def _meta_step(seed: int) -> List[Outcome]:
    result = run_metasched(seed=seed, **META_PARAMS)
    stream_bad = [f"claim conflict: {c}" for c in result.conflicts]
    out: List[Outcome] = []
    for job in result.jobs:
        bad = list(stream_bad)
        if job["status"] not in _TERMINAL:
            bad.append(f"status {job['status']!r} is not terminal")
        out.append((job["name"],
                    {"status": job["status"], "hosts": job["hosts"],
                     "started_at": job["started_at"],
                     "finished_at": job["finished_at"]}, bad))
    return out


def _soak_step(spec, tracers: Optional[List[Tracer]]) -> List[Outcome]:
    tracer = Tracer() if spec.trace_check else None
    if tracer is not None and tracers is not None:
        tracers.append(tracer)
    outcome = run_scenario(spec, tracer=tracer)
    bad = [f"{v.invariant}: {v.detail}" for v in outcome.violations]
    if not outcome.quiesced:
        bad.append("did not quiesce")
    return [(f"scenario:{spec.index}",
             {"violations": [v.to_dict() for v in outcome.violations],
              "quiesced": outcome.quiesced, "jobs": outcome.jobs}, bad)]


def step_runner(name: str, seed: int,
                tracers: Optional[List[Tracer]] = None
                ) -> Callable[[object], List[Outcome]]:
    """The function that executes one step of workload ``name``.

    Soak steps append the :class:`Tracer` they attach to ``tracers``
    when a list is given.
    """
    if name == FIG3:
        return lambda n: _fig3_step(n, seed)
    if name == META:
        return lambda _stream: _meta_step(seed)
    if name == SOAK:
        return lambda spec: _soak_step(spec, tracers)
    raise ValueError(f"unknown workload {name!r}")


def step_label(name: str, step) -> str:
    if name == SOAK:
        return f"scenario:{step.index}"
    return str(step)


def operations_per_step(name: str, step) -> int:
    """How many operations a step counts when it raises."""
    if name == FIG3:
        return 3  # two bars and one decision replay
    if name == META:
        return META_PARAMS["max_jobs"]
    return 1


WORKLOADS: Dict[str, str] = {
    FIG3: "run_fig3(): 7 sizes, 2 bars + 1 default-decision replay each",
    META: "run_metasched(users=16, arrival_rate=1/12, duration=12000, "
          "max_jobs=400, n_hosts=64, cpu_period=60, seed=<seed>)",
    SOAK: "50 x run_scenario(sample_scenario(<seed>, i)), Tracer on "
          "trace_check scenarios",
}
