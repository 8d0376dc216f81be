"""Benchmark: metascheduler planning at stream scale (DESIGN.md §9.6).

A 1000-job Poisson stream over a 64-host four-cluster grid, served
twice — once by the production planner, once by the linear-scan
reference oracle in ``tests/oracles/metasched.py``.
Asserts the speedup floor, that both planners emit byte-identical
same-seed reports in the same
run that measures the speedup (speed must not buy a different answer),
that the claim audit is clean at scale, and a throughput sanity floor.
Writes ``BENCH_metasched_scale.json`` for the CI artifact upload.
"""

import gc
import json
import pathlib
from time import perf_counter

import pytest

from repro.experiments import format_table
from repro.experiments.metasched_stream import run_metasched
from tests.oracles.metasched import reference_planner

#: the ISSUE-mandated scale: a 1000-job stream on 64 hosts
JOBS = 1000
HOSTS = 64
STREAM = dict(users=16, arrival_rate=1 / 12.0, duration=12000.0, seed=0,
              max_jobs=JOBS, n_hosts=HOSTS, cpu_period=60.0)
MIN_SPEEDUP = 5.0
#: jobs/hour of simulated time; the measured stream sustains ~160
MIN_THROUGHPUT = 100.0

ARTIFACT = pathlib.Path("BENCH_metasched_scale.json")


def _timed_run():
    """One wall-timed stream with the cyclic collector paused: retained
    result graphs otherwise add a constant ~10 s of gen-2 scans to both
    planners, which compresses the measured ratio."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        result = run_metasched(**STREAM)
        wall = perf_counter() - t0
    finally:
        gc.enable()
    return result, wall


@pytest.fixture(scope="module")
def stream_results():
    """Fast and reference runs of the same seed-0 stream, wall-timed."""
    fast, fast_wall = _timed_run()
    with reference_planner():
        ref, ref_wall = _timed_run()
    return fast, fast_wall, ref, ref_wall


def test_bench_fast_engine(benchmark):
    """Timing-infra smoke at a CI-friendly size."""
    result = benchmark.pedantic(
        lambda: run_metasched(users=6,
                              arrival_rate=1 / 30.0, duration=1800.0,
                              seed=1, max_jobs=60, n_hosts=16,
                              cpu_period=60.0),
        rounds=1, iterations=1)
    assert result.summary()["completed"] > 0
    assert result.conflicts == []


class TestMetaschedScale:
    def test_print_summary(self, stream_results):
        fast, fast_wall, ref, ref_wall = stream_results
        rows = []
        for result, wall in ((fast, fast_wall), (ref, ref_wall)):
            c = result.counters
            rows.append([
                "fast" if result is fast else "reference",
                f"{wall:.2f}", f"{int(c['meta_plan_rounds'])}",
                f"{int(c['meta_plan_kept'])}",
                f"{int(c['meta_plan_rebuilt'])}",
                f"{int(c['meta_plan_window_probes'])}",
                f"{result.summary()['throughput_jobs_per_hour']:.1f}",
            ])
        print()
        print(format_table(
            ["planner", "wall (s)", "rounds", "kept", "rebuilt",
             "window probes", "jobs/h"],
            rows,
            title=f"metasched scale: {JOBS}-job stream / {HOSTS} hosts"))
        print(f"fast planner speedup: {ref_wall / fast_wall:.1f}x")

    def test_speedup_floor(self, stream_results):
        _fast, fast_wall, _ref, ref_wall = stream_results
        speedup = ref_wall / fast_wall
        assert speedup >= MIN_SPEEDUP, (
            f"fast planner only {speedup:.2f}x over reference "
            f"(floor {MIN_SPEEDUP}x)")

    def test_reports_byte_identical(self, stream_results):
        """Equivalence in the same run that measures the speedup."""
        fast, _fw, ref, _rw = stream_results
        assert fast.to_json() == ref.to_json()

    def test_audit_clean_at_scale(self, stream_results):
        fast, _fw, ref, _rw = stream_results
        assert fast.conflicts == []
        assert ref.conflicts == []

    def test_every_job_reaches_a_terminal_state(self, stream_results):
        fast, _fw, _ref, _rw = stream_results
        summary = fast.summary()
        assert summary["submitted"] == JOBS
        terminal = (summary["completed"] + summary["failed"]
                    + summary["rejected"])
        assert terminal == JOBS

    def test_throughput_floor(self, stream_results):
        fast, _fw, _ref, _rw = stream_results
        assert (fast.summary()["throughput_jobs_per_hour"]
                >= MIN_THROUGHPUT)

    def test_planners_count_kept_and_rebuilt_alike(self, stream_results):
        fast, _fw, ref, _rw = stream_results
        # both rebuild the plan every round, so they book and re-book
        # the same reservations
        for name in ("meta_plan_kept", "meta_plan_rebuilt"):
            assert fast.counters[name] == ref.counters[name], name
        assert fast.counters["meta_plan_estimate_memo_hits"] > 0
        # The sweep rework pays: the measured stream settles around
        # ~40 feasibility probes per (job, host); hold the line well
        # under the pre-overhaul count (~550 per job-host pair).
        assert (fast.counters["meta_plan_window_probes"]
                < 100 * JOBS * HOSTS)

    def test_write_artifact(self, stream_results):
        fast, fast_wall, ref, ref_wall = stream_results
        ARTIFACT.write_text(json.dumps({
            "params": {**STREAM, "min_speedup": MIN_SPEEDUP},
            "fast_wall_seconds": fast_wall,
            "reference_wall_seconds": ref_wall,
            "speedup": ref_wall / fast_wall,
            "fast_counters": fast.counters,
            "reference_counters": ref.counters,
            "summary": fast.summary(),
        }, indent=2, sort_keys=True))
        assert ARTIFACT.exists()
