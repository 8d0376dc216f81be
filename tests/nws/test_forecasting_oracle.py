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

The drawn series may never produce the exact error tie on which the
selection turns, so the last cases replay series recorded from real
runs: every service forecaster's samples and read points from a fig3
bar and a short 64-host metasched stream.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig3_qr import run_fig3, run_fig3_point
from repro.experiments.metasched_stream import run_metasched
from repro.nws import AdaptiveForecaster
from repro.nws.forecasting import HISTORY_LEN, MEMBERS, _PENDING_CAP
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
        mine, ref = fast.predictions(), oracle.predictions()
        assert list(mine) == list(ref) == list(MEMBERS)
        for name in MEMBERS:
            assert mine[name] == ref[name], (i, name)
        assert fast.errors() == oracle.errors(), i
        assert fast.best_method() == oracle.best_method(), i
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


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The AR order of every least-squares fit, in call order."""
    calls = []
    real = np.linalg.lstsq

    def counting(design, *args, **kwargs):
        calls.append(design.shape[1] - 1)
        return real(design, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


class TestLstsqOnlyOnNonConstantWindows:
    def test_constant_window_skips_the_fit(self, lstsq_calls):
        f = AdaptiveForecaster()
        for _ in range(100):
            f.update(0.5)
        assert f.predictions()["ar_2"] == 0.5
        assert lstsq_calls == []

    def test_every_full_non_constant_window_is_fitted(self, lstsq_calls):
        f = AdaptiveForecaster()
        for i in range(10):
            f.update(0.25 * (i % 2))
        f.predict()
        # AR(1) fits windows of 4..10 samples and AR(2) windows of 6..10;
        # shorter ones fall back to the last value
        assert lstsq_calls.count(1) == 7
        assert lstsq_calls.count(2) == 5
        assert len(lstsq_calls) == 12


def state_bits(forecaster):
    """Every member's prediction and error, sign of zero included."""
    return repr((forecaster.predictions(), forecaster.errors(),
                 forecaster.best_method()))


class TestRunCount:
    """A trailing run of equal samples at least as long as the AR
    window stands in for the window's min()/max() scan."""

    def test_signed_zero_runs_match_oracle_and_the_scan(self):
        series = [0.0, -0.0] * 20 + [-0.0] * 35 + [0.0, 0.5] + [0.0] * 40
        assert_battery_matches(series)
        f = AdaptiveForecaster()
        for x in series:
            f.update(x)
            window = f.history()
            if len(window) >= 4 and len(set(window)) == 1:
                # the value min() returns over the window, sign included
                scan = float(min(window))
                for name in ("ar_1", "ar_2") if len(window) >= 6 else ():
                    pred = f.predictions()[name]
                    assert (pred, math.copysign(1.0, pred)) == (
                        scan, math.copysign(1.0, scan)), name

    def test_run_straddling_every_replay_split_matches(self):
        """The run length is carried from one replay to the next: a
        read at any point of a run leaves the same state as reading
        after every sample."""
        series = [0.2] * 3 + [0.5] * 45 + [1.0, 0.5] + [0.5] * 31
        eager = AdaptiveForecaster()
        for x in series:
            eager.update(x)
            eager.predict()
        expected = state_bits(eager)
        oracle = ReferenceAdaptiveForecaster()
        for x in series:
            oracle.update(x)
        for split in range(len(series) + 1):
            f = AdaptiveForecaster()
            for x in series[:split]:
                f.update(x)
            f.predict()
            for x in series[split:]:
                f.update(x)
            assert state_bits(f) == expected, split
            assert f._run == eager._run, split
            assert f.predictions() == oracle.predictions(), split
            assert f.errors() == oracle.errors(), split

    def test_run_longer_than_the_window_then_broken(self, lstsq_calls):
        series = [0.5] * (2 * HISTORY_LEN) + [0.2] + [0.5] * 5
        assert_battery_matches(series)
        del lstsq_calls[:]
        f = AdaptiveForecaster()
        for x in series[:2 * HISTORY_LEN]:
            f.update(x)
        assert f.predictions()["ar_2"] == 0.5
        assert lstsq_calls == []
        for x in series[2 * HISTORY_LEN:]:
            f.update(x)
        f.predict()
        # the break and the five samples after it each fit both orders
        assert lstsq_calls == [1, 2] * 6

    def test_nan_never_extends_a_run(self):
        f = AdaptiveForecaster()
        for x in [0.5] * 10 + [math.nan] + [0.5] * 5:
            f.update(x)
        f.predict()
        assert f._run == 5
        f.update(math.nan)
        f.update(math.nan)
        f.predict()
        assert f._run == 1


class TestLstsqCountPerWorkload:
    """The run count skips only scans, never a fit."""

    def test_fig3_sweep(self, lstsq_calls):
        run_fig3(seed=0)
        assert len(lstsq_calls) == 1226

    def test_metasched_64h_stream(self, lstsq_calls):
        run_metasched(users=16, arrival_rate=1 / 12, duration=12000.0,
                      max_jobs=400, n_hosts=64, cpu_period=60.0, seed=0)
        assert len(lstsq_calls) == 14448


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
           "predictions")


def read(forecaster, reader):
    """What one reader of ``forecaster`` sees, comparable with ``==``."""
    if reader == "history":
        return forecaster.history()[-HISTORY_LEN:]
    value = getattr(forecaster, reader)
    return value() if callable(value) else value


@settings(max_examples=30, deadline=None)
@given(series=long_series,
       gaps=st.lists(st.integers(0, 2 * _PENDING_CAP), min_size=1,
                     max_size=6),
       first_reader=st.integers(0, len(READERS) - 1))
def test_sparse_reads_match_oracle(series, gaps, first_reader):
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
        assert read(fast, reader) == read(oracle, reader), (
            point, reader)


class TestPendingCap:
    def test_update_replays_when_the_pending_list_fills(self):
        f = AdaptiveForecaster()
        for i in range(_PENDING_CAP - 1):
            f.update(float(i % 3))
        # nothing has read the forecaster, so no member has seen a sample
        assert f._preds == [None] * len(MEMBERS)
        assert len(f._pending) == _PENDING_CAP - 1
        f.update(7.0)
        assert f._pending == []
        assert f._n_samples == _PENDING_CAP
        assert f.predictions()["last"] == 7.0

    def test_ten_thousand_unread_updates_stay_bounded(self):
        f = AdaptiveForecaster()
        series = [float(i % 7) / 7 for i in range(10_000)]
        for x in series:
            f.update(x)
            assert len(f._pending) < _PENDING_CAP
        assert f.n_samples == 10_000
        assert f.history() == series[-HISTORY_LEN:]


def record_series(run):
    """Every forecaster ``run()`` builds, as the list of its samples in
    arrival order with a ``None`` wherever it is read after new ones."""
    logs = []
    init = AdaptiveForecaster.__init__
    update = AdaptiveForecaster.update
    predict = AdaptiveForecaster.predict

    def logging_init(self):
        init(self)
        self.log = []
        logs.append(self.log)

    def logging_update(self, value):
        self.log.append(value)
        update(self, value)

    def logging_predict(self):
        if self.log and self.log[-1] is not None:
            self.log.append(None)
        return predict(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AdaptiveForecaster, "__init__", logging_init)
        patch.setattr(AdaptiveForecaster, "update", logging_update)
        patch.setattr(AdaptiveForecaster, "predict", logging_predict)
        run()
    return logs


@pytest.fixture(scope="module")
def recorded_series():
    # the forced migration of the message-path pin, and the
    # metasched-64h stream cut to its first 30 jobs
    fig3 = record_series(
        lambda: run_fig3_point(5000, "reschedule", load_at=120.0))
    meta = record_series(
        lambda: run_metasched(users=16, arrival_rate=1 / 12,
                              duration=12000.0, max_jobs=30, n_hosts=64,
                              cpu_period=60.0))
    return fig3 + meta


class TestRecordedSeries:
    def test_every_recorded_read_matches_oracle(self, recorded_series):
        reads = 0
        for k, log in enumerate(recorded_series):
            fast = AdaptiveForecaster()
            oracle = ReferenceAdaptiveForecaster()
            for i, x in enumerate(log):
                if x is not None:
                    fast.update(x)
                    oracle.update(x)
                    continue
                reads += 1
                assert fast.predictions() == oracle.predictions(), (k, i)
                assert fast.errors() == oracle.errors(), (k, i)
                assert fast.best_method() == oracle.best_method(), (k, i)
                assert fast.predict() == oracle.predict(), (k, i)
            assert fast.history() == oracle.history()[-HISTORY_LEN:], k
        assert reads > 300

    def test_recording_holds_a_deciding_error_tie(self, recorded_series):
        """Somewhere the chosen member ties exactly, on a non-zero error
        that not every member shares, with a later member predicting
        something else: only "first lowest wins" picks the answer."""
        ties = set()
        for log in recorded_series:
            f = AdaptiveForecaster()
            for x in log:
                if x is not None:
                    f.update(x)
                    continue
                errors, preds = f.errors(), f.predictions()
                best = f.best_method()
                if errors[best] == 0.0 or len(set(errors.values())) == 1:
                    continue
                for name in MEMBERS[MEMBERS.index(best) + 1:]:
                    if errors[name] == errors[best] \
                            and preds[name] != preds[best]:
                        ties.add((best, name))
        assert ("last", "ar_1") in ties
