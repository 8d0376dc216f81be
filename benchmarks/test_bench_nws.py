"""Benchmark: NWS forecaster-battery ablation.

The adaptive selector is the substrate every scheduling decision reads
through.  This bench replays synthetic CPU-availability traces with
qualitatively different dynamics (flat+noise, on/off load, trending)
and compares each battery member's mean absolute error against the
adaptive selector — whose selling point is being near-best on *every*
regime without per-series tuning.
"""

from typing import Dict

import numpy as np
import pytest

from repro.nws import AdaptiveForecaster
from repro.experiments import format_table
from tests.oracles.forecasting import ReferenceAdaptiveForecaster


def make_traces(length=600, seed=7) -> Dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    flat = np.clip(0.8 + rng.normal(0, 0.05, length), 0, 1)
    onoff = np.where((np.arange(length) // 60) % 2 == 0, 0.95, 0.45) \
        + rng.normal(0, 0.02, length)
    trend = np.clip(np.linspace(1.0, 0.2, length)
                    + rng.normal(0, 0.03, length), 0, 1)
    spiky = np.clip(0.9 - 0.7 * (rng.random(length) < 0.05)
                    + rng.normal(0, 0.02, length), 0, 1)
    return {"flat": flat, "onoff": np.clip(onoff, 0, 1),
            "trend": trend, "spiky": spiky}


def score(trace: np.ndarray,
          selector=AdaptiveForecaster) -> Dict[str, float]:
    """MAE of each battery member and the adaptive selector, reading
    the members' predictions through the selector."""
    adaptive = selector()
    errors = dict.fromkeys(adaptive.predictions(), 0.0)
    errors["adaptive"] = 0.0
    n_scored = 0
    for x in trace:
        for name, p in adaptive.predictions().items():
            if p is not None:
                errors[name] += abs(p - x)
        p = adaptive.predict()
        if p is not None:
            errors["adaptive"] += abs(p - x)
            n_scored += 1
        adaptive.update(x)
    return {name: err / max(n_scored, 1) for name, err in errors.items()}


@pytest.fixture(scope="module")
def scores():
    return {name: score(trace) for name, trace in make_traces().items()}


def test_bench_forecasting(benchmark):
    trace = make_traces(length=200)["onoff"]
    out = benchmark.pedantic(lambda: score(trace), rounds=3, iterations=1)
    assert out["adaptive"] >= 0


class TestForecasterAblation:
    def test_print_error_table(self, scores):
        methods = sorted(next(iter(scores.values())))
        rows = [[m] + [scores[t][m] for t in sorted(scores)]
                for m in methods]
        print()
        print(format_table(["method"] + sorted(scores), rows,
                           title="Forecaster MAE per trace regime"))

    def test_table_identical_under_oracle_battery(self, scores):
        """The fused battery is bit-for-bit the numpy one."""
        oracle = {name: score(trace, ReferenceAdaptiveForecaster)
                  for name, trace in make_traces().items()}
        assert oracle == scores

    def test_adaptive_near_best_on_every_regime(self, scores):
        for trace_name, table in scores.items():
            best = min(err for name, err in table.items()
                       if name != "adaptive")
            assert table["adaptive"] <= best * 1.6 + 0.01, trace_name

    def test_no_single_member_dominates(self, scores):
        """The reason the battery exists: per-regime winners differ."""
        winners = set()
        for table in scores.values():
            members = {k: v for k, v in table.items() if k != "adaptive"}
            winners.add(min(members, key=members.get))
        assert len(winners) >= 2

    def test_adaptive_beats_naive_mean_overall(self, scores):
        adaptive_total = sum(t["adaptive"] for t in scores.values())
        mean_total = sum(t["mean"] for t in scores.values())
        assert adaptive_total < mean_total
