"""Benchmark: workflow-scheduler scale on an EMAN-shaped DAG (§3.1).

The ``classesbymra`` stage of the EMAN refinement round fans out to
hundreds of independent tasks; the pre-overhaul list scheduler
re-evaluated every (task, resource) completion time from scratch each
round — O(T²·R) Python-level NWS calls.  This benchmark times the
incremental list-backed engine against the reference oracle
(``tests/oracles/heuristics.py``) on that exact shape and asserts both the speedup floor and that the
two engines emit placement-for-placement identical schedules in the
same run (speed must not buy a different answer).
"""

import pytest

from benchmarks.harness import build_scheduler_bench_env, run_scheduler_bench
from repro.experiments import format_table
from tests.oracles.heuristics import REFERENCE_HEURISTICS, schedules_equal

#: the ISSUE-mandated scale: >=512-task fan-out on 32+ hosts
FANOUT = 512
HOSTS = 32
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def scale_results():
    """Fast and reference runs of min-min over one shared environment.

    One heuristic keeps the oracle's O(T²·R) wall-clock tolerable at
    this size; the engines share the env so forecasts are identical.
    """
    env = build_scheduler_bench_env(n_tasks=FANOUT, n_hosts=HOSTS)
    fast = run_scheduler_bench(env=env, heuristics=("min-min",),
                               keep_schedules=True)
    reference = run_scheduler_bench(env=env, heuristics=("min-min",),
                                    keep_schedules=True,
                                    heuristics_table=REFERENCE_HEURISTICS)
    return fast, reference


def test_bench_fast_engine(benchmark):
    env = build_scheduler_bench_env(n_tasks=FANOUT, n_hosts=HOSTS)
    result = benchmark.pedantic(
        lambda: run_scheduler_bench(env=env, heuristics=("min-min",)),
        rounds=1, iterations=1)
    assert result["makespans"]["min-min"] > 0


class TestSchedulerScale:
    def test_print_summary(self, scale_results):
        fast, reference = scale_results
        rows = [[label, f"{r['wall_seconds']:.3f}",
                 f"{r['sched_evaluations']}", f"{r['sched_memo_hits']}",
                 f"{r['makespans']['min-min']:.1f}"]
                for label, r in zip(("fast", "reference"), scale_results)]
        speedup = reference["wall_seconds"] / fast["wall_seconds"]
        print()
        print(format_table(
            ["engine", "wall (s)", "evals", "memo hits", "makespan (s)"],
            rows,
            title=f"scheduler scale: {fast['n_tasks']} tasks / "
                  f"{fast['n_hosts']} hosts (min-min)"))
        print(f"fast engine speedup: {speedup:.1f}x")

    def test_speedup_floor(self, scale_results):
        fast, reference = scale_results
        speedup = reference["wall_seconds"] / fast["wall_seconds"]
        assert speedup >= MIN_SPEEDUP, (
            f"fast engine only {speedup:.2f}x over reference "
            f"(floor {MIN_SPEEDUP}x)")

    def test_schedules_identical(self, scale_results):
        """Equivalence in the same run that measures the speedup."""
        fast, reference = scale_results
        assert schedules_equal(fast["schedules"]["min-min"],
                               reference["schedules"]["min-min"])
        assert fast["makespans"] == reference["makespans"]

    def test_memo_does_its_job(self, scale_results):
        """The frozen-forecast memo, not re-querying, feeds the vectors."""
        fast, _reference = scale_results
        assert fast["sched_memo_hits"] > 0
        assert fast["sched_evaluations"] < _reference_evals(scale_results)

    def test_workload_is_eman_shaped(self, scale_results):
        fast, _ = scale_results
        # 6 stages: proc3d 1 + project3d 4 + classesbymra FANOUT
        # + classalign2 FANOUT//32 + make3d 1 + eotest 1
        assert fast["n_tasks"] == FANOUT + FANOUT // 32 + 7
        assert fast["n_hosts"] == HOSTS


def _reference_evals(scale_results) -> int:
    _fast, reference = scale_results
    return reference["sched_evaluations"]


def test_all_heuristics_equivalent_midsize():
    """Every registry entry, fast vs oracle, at a CI-friendly size."""
    env = build_scheduler_bench_env(n_tasks=96, n_hosts=16)
    names = ("min-min", "max-min", "sufferage", "random", "fifo", "heft")
    fast = run_scheduler_bench(env=env, heuristics=names,
                               keep_schedules=True)
    reference = run_scheduler_bench(env=env, heuristics=names,
                                    keep_schedules=True,
                                    heuristics_table=REFERENCE_HEURISTICS)
    for name in names:
        assert schedules_equal(fast["schedules"][name],
                               reference["schedules"][name]), name
