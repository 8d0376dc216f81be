"""Benchmark: the tracing subsystem's overhead contract.

The tracer's design promise (see ``repro.trace.tracer``) is that
instrumentation is effectively free when tracing is off: every hook
site guards on ``sim.trace is not None`` (hoisted to a local boolean in
the kernel's hot loop), so an untraced run pays one attribute load per
site.  This benchmark enforces the acceptance bound — a run with a
disabled tracer attached must stay within a few percent of a run with
no tracer at all — and records the cost of *enabled* tracing for
context (informational, no bound: collecting a million-record timeline
is allowed to cost real time).

Wall-clock noise on a shared host drifts over seconds, so the bound is
checked on paired ratios: each round times the disabled-tracer run and
the untraced baseline back to back (alternating which goes first), and
the verdict is the median of the per-round ratios.  Identical workloads
and a simulation outcome cross-check prove the compared runs did
exactly the same work.
"""

import statistics

import pytest

from benchmarks.harness import run_substrate_bench
from repro.trace import Tracer

TRANSFERS = 500
ROUNDS = 15
#: acceptance bound: disabled tracing within 5% of the untraced baseline
MAX_DISABLED_OVERHEAD = 1.05

_FACTORIES = {
    "baseline": lambda: None,
    "disabled": lambda: Tracer(categories=()),
    "enabled": lambda: Tracer(categories=["kernel", "network"]),
}


@pytest.fixture(scope="module")
def timings():
    """Per-round wall seconds and last stats per variant.

    Each round runs the baseline and the disabled tracer back to back,
    the first of the two alternating from round to round so neither
    always gets the warmer slot, then the enabled tracer.
    """
    walls = {name: [] for name in _FACTORIES}
    stats = {}
    run_substrate_bench(total_transfers=TRANSFERS)  # warm-up, untimed
    for round_index in range(ROUNDS):
        pair = ["baseline", "disabled"]
        if round_index % 2:
            pair.reverse()
        for name in (*pair, "enabled"):
            result = run_substrate_bench(total_transfers=TRANSFERS,
                                         tracer=_FACTORIES[name]())
            walls[name].append(result["wall_seconds"])
            stats[name] = result
    return walls, stats


def median_ratio(walls, name):
    """Median over rounds of ``name``'s wall time over the baseline's."""
    return statistics.median(
        run / base for run, base in zip(walls[name], walls["baseline"]))


class TestDisabledOverhead:
    def test_same_simulation_with_and_without_tracer(self, timings):
        _, stats = timings
        base_stats, off_stats = stats["baseline"], stats["disabled"]
        assert off_stats["events_processed"] == base_stats["events_processed"]
        assert off_stats["sim_seconds"] == \
            pytest.approx(base_stats["sim_seconds"], rel=1e-12)
        assert off_stats["bytes_delivered"] == \
            pytest.approx(base_stats["bytes_delivered"], rel=1e-12)

    def test_disabled_tracer_within_overhead_bound(self, timings):
        walls, _ = timings
        ratio = median_ratio(walls, "disabled")
        print(f"\nmedian paired disabled-tracer/baseline ratio "
              f"{ratio:.3f}x over {ROUNDS} rounds "
              f"(bound {MAX_DISABLED_OVERHEAD}x)")
        assert ratio <= MAX_DISABLED_OVERHEAD

    def test_enabled_tracing_reported(self, timings):
        walls, stats = timings
        # Informational: enabled tracing may legitimately cost time, but
        # it must not change the simulation itself.
        assert stats["enabled"]["events_processed"] == \
            stats["baseline"]["events_processed"]
        print(f"\nenabled kernel+network tracing: "
              f"{median_ratio(walls, 'enabled'):.2f}x baseline (median)")


def test_bench_trace_overhead(benchmark):
    stats = benchmark.pedantic(
        lambda: run_substrate_bench(total_transfers=TRANSFERS,
                                    tracer=Tracer(categories=())),
        rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(stats["events_per_sec"])
    assert stats["transfers_completed"] == TRANSFERS
