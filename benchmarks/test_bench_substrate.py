"""Benchmark: the MicroGrid substrate hot paths (kernel + network).

Every figure in the paper runs through `repro.sim` and
`repro.microgrid`, so this is the perf trajectory for the whole
reproduction: a 32-host / 8-cluster grid carrying 64 concurrent flows
under closed-loop churn (each completion launches a replacement), with
events/sec recorded for the incremental max-min allocator and the
from-scratch reference allocator (``tests/oracles/network.py``).
A second lane keeps only four 8-byte messages in flight, like MPI
control traffic: nearly every flow starts alone on its edges, the case
the lone-flow shortcut serves.

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
from repro.microgrid import Topology
from tests.oracles.network import ReferenceTopology

TRANSFERS = 1500
#: required wall-clock advantage of the incremental allocator
MIN_SPEEDUP = 2.0
#: the lone-message lane: few slots, tiny messages
LONE_SLOTS = 4
LONE_BYTES = 8.0

#: counters both allocators must agree on exactly
_COUNTERS = ("events_processed", "reallocations", "wakeups_cancelled",
             "route_cache_hits", "route_cache_misses")


@pytest.fixture(scope="module")
def results():
    incremental = run_substrate_bench(total_transfers=TRANSFERS)
    reference = run_substrate_bench(total_transfers=TRANSFERS,
                                    topology_cls=ReferenceTopology)
    return incremental, reference


@pytest.fixture(scope="module")
def lone_results():
    return tuple(run_substrate_bench(concurrent_flows=LONE_SLOTS,
                                     total_transfers=TRANSFERS,
                                     flow_bytes=LONE_BYTES,
                                     topology_cls=topology_cls)
                 for topology_cls in (Topology, ReferenceTopology))


def test_bench_substrate_churn(benchmark):
    stats = benchmark.pedantic(
        lambda: run_substrate_bench(total_transfers=TRANSFERS),
        rounds=1, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(stats["events_per_sec"])
    benchmark.extra_info["events_processed"] = stats["events_processed"]
    assert stats["transfers_completed"] == TRANSFERS


def test_bench_substrate_lone_messages(benchmark):
    stats = benchmark.pedantic(
        lambda: run_substrate_bench(concurrent_flows=LONE_SLOTS,
                                    total_transfers=TRANSFERS,
                                    flow_bytes=LONE_BYTES),
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


class TestLoneMessageEquivalence:
    def test_identical_counters_and_end_time(self, lone_results):
        """Lone flows skip the fill in production and are filled in the
        reference; the two runs must agree exactly."""
        incremental, reference = lone_results
        assert incremental["transfers_completed"] == TRANSFERS
        for name in _COUNTERS:
            assert incremental[name] == reference[name], name
        assert incremental["sim_seconds"] == reference["sim_seconds"]
        assert incremental["bytes_delivered"] == reference["bytes_delivered"]


class TestSubstrateSpeed:
    def test_incremental_allocator_speedup(self, results):
        incremental, reference = results
        speedup = reference["wall_seconds"] / incremental["wall_seconds"]
        print(f"\nincremental {incremental['wall_seconds']:.3f}s "
              f"({incremental['events_per_sec']:,.0f} ev/s) vs reference "
              f"{reference['wall_seconds']:.3f}s -> {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP

    def test_lone_message_rate_reported(self, results, lone_results):
        churn, _ = results
        lone, lone_ref = lone_results
        print(f"\nevents/s: {churn['events_per_sec']:,.0f} with 64-flow "
              f"churn, {lone['events_per_sec']:,.0f} with {LONE_SLOTS} "
              f"lone {LONE_BYTES:g}-byte messages (reference "
              f"{lone_ref['events_per_sec']:,.0f})")
        assert lone["transfers_completed"] == TRANSFERS

    def test_route_cache_amortises(self, results):
        incremental, _reference = results
        # 32 sources, thousands of lookups: the SSSP cache must serve
        # nearly everything after warm-up.
        assert incremental["route_cache_hit_rate"] > 0.9
