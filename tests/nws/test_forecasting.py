"""Tests for the NWS forecaster battery and adaptive selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws import AdaptiveForecaster
from repro.nws.forecasting import HISTORY_LEN
from tests.oracles.forecasting import (
    ExponentialSmoothing,
    ReferenceAutoRegressive,
    ReferenceSlidingWindowMean,
    ReferenceSlidingWindowMedian,
    reference_battery,
)


class TestIndividualForecasters:
    def test_last_value(self):
        f = AdaptiveForecaster()
        assert f.predictions()["last"] is None
        f.update(3.0)
        f.update(7.0)
        assert f.predictions()["last"] == 7.0

    def test_running_mean(self):
        f = AdaptiveForecaster()
        assert f.predictions()["mean"] is None
        for v in (1.0, 2.0, 3.0):
            f.update(v)
        assert f.predictions()["mean"] == pytest.approx(2.0)

    def test_sliding_window_mean(self):
        f = ReferenceSlidingWindowMean(3)
        for v in (10.0, 1.0, 2.0, 3.0):
            f.update(v)
        assert f.predict() == pytest.approx(2.0)  # 10 fell out

    def test_sliding_window_median_resists_spike(self):
        f = AdaptiveForecaster()
        for v in (1.0, 1.0, 100.0, 1.0, 1.0):
            f.update(v)
        assert f.predictions()["win_median_5"] == pytest.approx(1.0)

    def test_exponential_smoothing(self):
        f = ExponentialSmoothing(0.5)
        f.update(0.0)
        f.update(1.0)
        assert f.predict() == pytest.approx(0.5)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            ReferenceSlidingWindowMean(0)
        with pytest.raises(ValueError):
            ReferenceSlidingWindowMedian(-1)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            ExponentialSmoothing(0.0)
        with pytest.raises(ValueError):
            ExponentialSmoothing(1.5)


class TestAdaptiveForecaster:
    def test_no_data_predicts_none(self):
        assert AdaptiveForecaster().predict() is None

    def test_constant_series_predicted_exactly(self):
        f = AdaptiveForecaster()
        for _ in range(20):
            f.update(0.5)
        assert f.predict() == pytest.approx(0.5)

    def test_picks_last_value_for_trending_series(self):
        """On a monotone ramp, last-value beats long-history means."""
        f = AdaptiveForecaster()
        for i in range(100):
            f.update(float(i))
        errors = f.errors()
        assert errors["last"] < errors["mean"]
        best = f.best_method()
        assert f.predictions()[best] == pytest.approx(99.0, abs=5.0)

    def test_picks_stable_method_for_noisy_flat_series(self):
        """On mean-zero noise around a level, an averaging method beats
        chasing the last sample."""
        rng = np.random.default_rng(0)
        f = AdaptiveForecaster()
        for _ in range(300):
            f.update(0.5 + float(rng.normal(0, 0.1)))
        errors = f.errors()
        averaging = min(errors["mean"], errors["win_mean_20"])
        assert averaging < errors["last"]
        assert f.predict() == pytest.approx(0.5, abs=0.05)

    def test_adaptive_never_much_worse_than_best_member(self):
        """Selection overhead must be bounded: the adaptive forecast
        tracks the best battery member's error closely."""
        rng = np.random.default_rng(1)
        series = 0.5 + 0.3 * np.sin(np.arange(200) / 10.0) \
            + rng.normal(0, 0.05, 200)
        shadow = reference_battery()
        shadow_err = {m.name: 0.0 for m in shadow}
        adaptive = AdaptiveForecaster()
        adaptive_err = 0.0
        for x in series:
            pred = adaptive.predict()
            if pred is not None:
                adaptive_err += abs(pred - x)
            for m in shadow:
                p = m.predict()
                if p is not None:
                    shadow_err[m.name] += abs(p - x)
                m.update(x)
            adaptive.update(x)
        best = min(shadow_err.values())
        assert adaptive_err <= best * 1.5 + 1.0

    def test_errors_normalized_by_samples(self):
        f = AdaptiveForecaster()
        for v in (1.0, 1.0, 1.0):
            f.update(v)
        assert all(e >= 0 for e in f.errors().values())
        assert f.n_samples == 3

    def test_history_returned_copy(self):
        f = AdaptiveForecaster()
        f.update(1.0)
        h = f.history()
        h.append(99.0)
        assert f.history() == [1.0]

    def test_history_is_a_ring_n_samples_counts_all(self):
        f = AdaptiveForecaster()
        for i in range(1000):
            f.update(float(i % 7))
        assert len(f.history()) == HISTORY_LEN
        assert f.history() == [float(i % 7) for i in range(1000)][-HISTORY_LEN:]
        assert f.n_samples == 1000


@settings(max_examples=30, deadline=None)
@given(series=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=1, max_size=50))
def test_property_adaptive_prediction_within_observed_range(series):
    """Every battery member is a convex combination of history, so the
    adaptive prediction must lie inside [min, max] of the series."""
    f = AdaptiveForecaster()
    for x in series:
        f.update(x)
    pred = f.predict()
    assert pred is not None
    assert min(series) - 1e-9 <= pred <= max(series) + 1e-9


@settings(max_examples=30, deadline=None)
@given(value=st.floats(min_value=0.01, max_value=100.0),
       n=st.integers(min_value=1, max_value=30))
def test_property_constant_series_fixed_point(value, n):
    f = AdaptiveForecaster()
    for _ in range(n):
        f.update(value)
    assert f.predict() == pytest.approx(value)


class TestAutoRegressive:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceAutoRegressive(order=0)
        with pytest.raises(ValueError):
            ReferenceAutoRegressive(order=5, window=8)

    def test_falls_back_to_last_value_early(self):
        f = AdaptiveForecaster()
        assert f.predictions()["ar_2"] is None
        f.update(0.7)
        assert f.predictions()["ar_2"] == pytest.approx(0.7)

    def test_learns_alternating_series(self):
        """AR(1) captures period-2 oscillation that means smear out."""
        f = AdaptiveForecaster()
        for i in range(60):
            f.update(0.9 if i % 2 == 0 else 0.3)
        # both members are scored on the same samples, so their mean
        # errors compare as their cumulative ones do
        errors = f.errors()
        assert errors["ar_1"] < errors["win_mean_20"] * 0.5

    def test_prediction_clamped_to_window_range(self):
        f = AdaptiveForecaster()
        for x in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]:
            f.update(x)
        # a pure AR line would predict ~0.9; clamped to max observed
        assert f.predictions()["ar_1"] <= 0.8 + 1e-9

    def test_constant_series_fixed_point(self):
        f = AdaptiveForecaster()
        for _ in range(30):
            f.update(0.5)
        assert f.predictions()["ar_2"] == pytest.approx(0.5)
