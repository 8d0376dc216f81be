"""Benchmark: the MicroGrid substrate hot paths (kernel + network).

Every figure in the paper runs through `repro.sim` and
`repro.microgrid`, so this is the perf trajectory for the whole
reproduction: a 32-host / 8-cluster grid carrying 64 concurrent flows
under closed-loop churn (each completion launches a replacement), with
events/sec recorded for the incremental max-min allocator and the
from-scratch reference allocator (``tests/oracles/network.py``).

Two claims are checked, matching the overhaul's contract:

* **Equivalence** — both allocators drive byte-identical simulations
  (same event count, same simulated makespan, same bytes delivered);
  the allocation-level property test lives in
  ``tests/microgrid/test_network.py``.
* **Speedup** — the incremental allocator completes the workload at
  least 2x faster in wall-clock terms.
"""

import pytest

from benchmarks.harness import run_substrate_bench
from tests.oracles.network import ReferenceTopology

TRANSFERS = 1500
#: required wall-clock advantage of the incremental allocator
MIN_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def results():
    incremental = run_substrate_bench(total_transfers=TRANSFERS)
    reference = run_substrate_bench(total_transfers=TRANSFERS,
                                    topology_cls=ReferenceTopology)
    return incremental, reference


def test_bench_substrate_churn(benchmark):
    stats = benchmark.pedantic(
        lambda: run_substrate_bench(total_transfers=TRANSFERS),
        rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(stats["events_per_sec"])
    benchmark.extra_info["events_processed"] = stats["events_processed"]
    assert stats["transfers_completed"] == TRANSFERS


class TestAllocatorEquivalence:
    def test_workload_completes(self, results):
        incremental, reference = results
        assert incremental["transfers_completed"] == TRANSFERS
        assert reference["transfers_completed"] == TRANSFERS

    def test_identical_event_counts(self, results):
        incremental, reference = results
        # Same flows, same completion times -> the agenda history must
        # match event for event and reallocation for reallocation.
        assert incremental["events_processed"] == reference["events_processed"]
        assert incremental["reallocations"] == reference["reallocations"]
        assert (incremental["wakeups_cancelled"]
                == reference["wakeups_cancelled"])

    def test_identical_simulated_outcome(self, results):
        incremental, reference = results
        assert incremental["sim_seconds"] == \
            pytest.approx(reference["sim_seconds"], rel=1e-9)
        assert incremental["bytes_delivered"] == \
            pytest.approx(reference["bytes_delivered"], rel=1e-9)


class TestSubstrateSpeed:
    def test_incremental_allocator_speedup(self, results):
        incremental, reference = results
        speedup = reference["wall_seconds"] / incremental["wall_seconds"]
        print(f"\nincremental {incremental['wall_seconds']:.3f}s "
              f"({incremental['events_per_sec']:,.0f} ev/s) vs reference "
              f"{reference['wall_seconds']:.3f}s -> {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP

    def test_route_cache_amortises(self, results):
        incremental, _reference = results
        # 32 sources, thousands of lookups: the SSSP cache must serve
        # nearly everything after warm-up.
        assert incremental["route_cache_hit_rate"] > 0.9
