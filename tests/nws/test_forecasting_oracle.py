"""Differential: the production forecaster battery against the numpy oracle.

Every member's prediction, every method's error and the adaptive
selection must be ``==`` to :mod:`tests.oracles.forecasting` after
every sample.  A small value alphabet makes constant AR windows (the
skipped fits) and exactly rank-deficient two-valued windows common;
continuous floats cover the general case.

Reading after every sample replays one pending sample at a time, so
the sparse-read cases read only at a few drawn points of series long
enough for a gap to cross the pending cap: each read then replays a
batch, or follows a replay that ``update`` ran at the cap.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws import AdaptiveForecaster, AutoRegressive
from repro.nws.forecasting import HISTORY_LEN, _PENDING_CAP
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


def noise_series(n, seed, on_alphabet):
    rng = np.random.default_rng(seed)
    values = rng.choice(ALPHABET, n) if on_alphabet else rng.random(n)
    return [float(v) for v in values]


# up to ~1,000 samples, several times the pending cap
long_series = st.one_of(
    st.builds(noise_series, st.integers(0, 1000), st.integers(0, 2**32 - 1),
              st.booleans()),
    st.lists(st.tuples(st.sampled_from(ALPHABET), st.integers(1, 100)),
             min_size=1, max_size=10)
    .map(lambda runs: [v for v, n in runs for _ in range(n)]),
)

READERS = ("predict", "best_method", "errors", "n_samples", "history",
           "battery")


def read(forecaster, reader, member):
    """What one reader of ``forecaster`` sees, comparable with ``==``."""
    if reader == "best_method":
        best = forecaster.best_method()
        return best.name if best is not None else None
    if reader == "history":
        return forecaster.history()[-HISTORY_LEN:]
    if reader == "battery":
        return forecaster.battery[member].predict()
    value = getattr(forecaster, reader)
    return value() if callable(value) else value


@settings(max_examples=30, deadline=None)
@given(series=long_series,
       gaps=st.lists(st.integers(0, 2 * _PENDING_CAP), min_size=1,
                     max_size=6),
       first_reader=st.integers(0, len(READERS) - 1),
       member=st.integers(0, 10))
def test_sparse_reads_match_oracle(series, gaps, first_reader, member):
    """Each read point asks a different reader and nothing else, so a
    reader that does not replay the pending samples first fails."""
    fast = AdaptiveForecaster()
    oracle = ReferenceAdaptiveForecaster()
    reads = [min(p, len(series)) for p in itertools.accumulate(gaps)]
    fed = 0
    for j, point in enumerate(reads):
        for x in series[fed:point]:
            fast.update(x)
            oracle.update(x)
        fed = point
        reader = READERS[(first_reader + j) % len(READERS)]
        assert read(fast, reader, member) == read(oracle, reader, member), (
            point, reader)


class TestPendingCap:
    def test_update_replays_when_the_pending_list_fills(self):
        f = AdaptiveForecaster()
        last = f._battery[0]
        assert last.name == "last"
        for i in range(_PENDING_CAP - 1):
            f.update(float(i % 3))
        # nothing has read the forecaster, so no member has seen a sample
        assert last.predict() is None
        assert len(f._pending) == _PENDING_CAP - 1
        f.update(7.0)
        assert f._pending == []
        assert last.predict() == 7.0

    def test_ten_thousand_unread_updates_stay_bounded(self):
        f = AdaptiveForecaster()
        series = [float(i % 7) / 7 for i in range(10_000)]
        for x in series:
            f.update(x)
            assert len(f._pending) < _PENDING_CAP
        assert f.n_samples == 10_000
        assert f.history() == series[-HISTORY_LEN:]
