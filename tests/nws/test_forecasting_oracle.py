"""Differential: the production forecaster battery against the numpy oracle.

Every member's prediction, every method's error and the adaptive
selection must be ``==`` to :mod:`tests.oracles.forecasting` after
every sample.  A small value alphabet makes constant AR windows (the
skipped fits) and exactly rank-deficient two-valued windows common;
continuous floats cover the general case.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws import AdaptiveForecaster, AutoRegressive
from repro.nws.forecasting import HISTORY_LEN
from tests.oracles.forecasting import ReferenceAdaptiveForecaster

ALPHABET = (0.0, 0.2, 0.5, 2 / 3, 1.0)

alphabet_series = st.lists(st.sampled_from(ALPHABET), max_size=200)
continuous_series = st.lists(st.floats(min_value=0.0, max_value=1.0),
                             max_size=200)
# long constant runs broken by occasional steps
run_series = st.lists(
    st.tuples(st.sampled_from(ALPHABET), st.integers(1, 40)),
    max_size=10,
).map(lambda runs: [v for v, n in runs for _ in range(n)])


def assert_battery_matches(series):
    fast = AdaptiveForecaster()
    oracle = ReferenceAdaptiveForecaster()
    for i, x in enumerate(series):
        fast.update(x)
        oracle.update(x)
        for mine, ref in zip(fast.battery, oracle.battery):
            assert mine.name == ref.name
            assert mine.predict() == ref.predict(), (i, mine.name)
        assert fast.errors() == oracle.errors(), i
        assert fast.best_method().name == oracle.best_method().name, i
        assert fast.predict() == oracle.predict(), i
    assert fast.n_samples == oracle.n_samples == len(series)
    assert fast.history() == oracle.history()[-HISTORY_LEN:]


@settings(max_examples=40, deadline=None)
@given(series=alphabet_series)
def test_alphabet_series_match_oracle(series):
    assert_battery_matches(series)


@settings(max_examples=40, deadline=None)
@given(series=continuous_series)
def test_continuous_series_match_oracle(series):
    assert_battery_matches(series)


@settings(max_examples=20, deadline=None)
@given(series=run_series)
def test_piecewise_constant_series_match_oracle(series):
    assert_battery_matches(series)


class TestLstsqOnlyOnNonConstantWindows:
    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        return calls

    def test_constant_window_skips_the_fit(self, lstsq_calls):
        f = AutoRegressive(order=2)
        for _ in range(100):
            f.update(0.5)
        assert f.predict() == 0.5
        assert lstsq_calls == []

    def test_every_full_non_constant_window_is_fitted(self, lstsq_calls):
        f = AutoRegressive(order=1)
        for i in range(10):
            f.update(0.25 * (i % 2))
        # windows of 4..10 samples are fitted; 1..3 fall back to last
        assert len(lstsq_calls) == 7
