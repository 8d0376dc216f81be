"""Benchmark: swap-policy ablation (the [14] study the paper cites).

Runs the Figure 4 N-body scenario under each swap policy and under two
load patterns (the paper's single persistent load, and a roaming load
that moves between machines), comparing completion times and swap
counts.  Expected shape: every policy beats no-swapping under
persistent load; the gang policy avoids the WAN-split penalty that
piecemeal policies pay; the conservative threshold policy swaps least.
"""

from typing import Dict

import pytest

from repro.sim import Simulator
from repro.microgrid import ScheduledLoad, fig4_testbed
from repro.nws import NetworkWeatherService
from repro.apps import NBodySimulation
from repro.rescheduling import SWAP_POLICIES, SwapRescheduler
from repro.experiments import format_table

N_ITER = 100
POLICIES = tuple(sorted(SWAP_POLICIES)) + ("none",)


def run_policy(policy: str, load_pattern: str = "persistent") -> Dict:
    sim = Simulator()
    grid = fig4_testbed(sim)
    nws = NetworkWeatherService(sim, grid, cpu_period=5.0)
    pool = grid.clusters["utk"].hosts + grid.clusters["uiuc"].hosts
    app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                          n_bodies=9000, n_iterations=N_ITER)
    if load_pattern == "persistent":
        ScheduledLoad(host=grid.clusters["utk"][0], at=80.0,
                      nprocs=2).install(sim)
    elif load_pattern == "roaming":
        # the load hops between UTK machines every 60 s
        for i, start in enumerate(range(80, 400, 60)):
            host = grid.clusters["utk"][i % 3]
            ScheduledLoad(host=host, at=float(start), nprocs=2,
                          until=float(start + 60)).install(sim)
    else:
        raise ValueError(load_pattern)
    if policy != "none":
        SwapRescheduler(sim, app.job, nws, policy=policy, period=10.0,
                        improvement=1.1).start()
    done = app.launch()
    sim.run(stop_event=done)
    return {"policy": policy, "finished": sim.now,
            "swaps": len(app.job.swap_log)}


@pytest.fixture(scope="module")
def persistent():
    return {p: run_policy(p, "persistent") for p in POLICIES}


@pytest.fixture(scope="module")
def roaming():
    return {p: run_policy(p, "roaming") for p in POLICIES}


def test_bench_swap_policy(benchmark):
    out = benchmark.pedantic(lambda: run_policy("gang"),
                             rounds=1, iterations=1)
    assert out["finished"] > 0


class TestSwapPolicyAblation:
    def test_print_summary(self, persistent, roaming):
        rows = []
        for policy in POLICIES:
            rows.append([policy,
                         persistent[policy]["finished"],
                         persistent[policy]["swaps"],
                         roaming[policy]["finished"],
                         roaming[policy]["swaps"]])
        print()
        print(format_table(
            ["policy", "persistent: done (s)", "swaps",
             "roaming: done (s)", "swaps"], rows,
            title=f"Swap-policy ablation (N-body, {N_ITER} iterations)"))

    def test_every_policy_beats_none_under_persistent_load(self, persistent):
        baseline = persistent["none"]["finished"]
        for policy in SWAP_POLICIES:
            assert persistent[policy]["finished"] < baseline, policy

    def test_gang_is_best_or_near_best_persistent(self, persistent):
        best = min(persistent[p]["finished"] for p in SWAP_POLICIES)
        assert persistent["gang"]["finished"] <= best * 1.1

    def test_threshold_swaps_least(self, persistent):
        active = {p: persistent[p]["swaps"] for p in SWAP_POLICIES}
        assert active["threshold"] <= min(active["greedy"], active["gang"])

    def test_roaming_load_interim_shape(self, roaming):
        """Under a roaming load, reactive swapping still must not lose
        badly to doing nothing (thrash guard)."""
        baseline = roaming["none"]["finished"]
        for policy in SWAP_POLICIES:
            assert roaming[policy]["finished"] < baseline * 1.2, policy
