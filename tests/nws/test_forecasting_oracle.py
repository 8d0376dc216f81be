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
from repro.nws import AdaptiveForecaster, forecasting
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
def lstsq_log(monkeypatch):
    """Every least-squares solve the battery makes, at its LAPACK
    entry: the AR order of each window solved, and ``(windows, window
    length, order)`` of each LAPACK call, both in call order."""
    windows, calls = [], []
    real = forecasting._lstsq

    def counting(design, *args, **kwargs):
        n_windows, rows, columns = design.shape
        order = columns - 1
        windows.extend([order] * n_windows)
        calls.append((n_windows, rows + order, order))
        return real(design, *args, **kwargs)

    monkeypatch.setattr(forecasting, "_lstsq", counting)
    return windows, calls


@pytest.fixture
def lstsq_calls(lstsq_log):
    """The AR order of every window solved, in solve order."""
    return lstsq_log[0]


@pytest.fixture
def lapack_calls(lstsq_log):
    """``(windows, window length, order)`` of every LAPACK call."""
    return lstsq_log[1]


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

    def test_run_longer_than_the_window_then_broken(self, lstsq_calls,
                                                    lapack_calls):
        series = [0.5] * (2 * HISTORY_LEN) + [0.2] + [0.5] * 5
        assert_battery_matches(series)
        del lstsq_calls[:], lapack_calls[:]
        f = AdaptiveForecaster()
        for x in series[:2 * HISTORY_LEN]:
            f.update(x)
        assert f.predictions()["ar_2"] == 0.5
        assert lstsq_calls == lapack_calls == []
        for x in series[2 * HISTORY_LEN:]:
            f.update(x)
        f.predict()
        # the break and the five samples after it each fit both orders,
        # in one batch per order: all six windows are full
        assert lstsq_calls == [1] * 6 + [2] * 6
        assert lapack_calls == [(6, HISTORY_LEN, 1), (6, HISTORY_LEN, 2)]

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
    """The run count skips only scans, never a fit; the batched replay
    solves the same windows in far fewer LAPACK calls."""

    def test_fig3_sweep(self, lstsq_calls, lapack_calls):
        run_fig3(seed=0)
        assert len(lstsq_calls) == 1226
        assert len(lapack_calls) == 228

    def test_metasched_64h_stream(self, lstsq_calls, lapack_calls):
        run_metasched(users=16, arrival_rate=1 / 12, duration=12000.0,
                      max_jobs=400, n_hosts=64, cpu_period=60.0, seed=0)
        assert len(lstsq_calls) == 14448
        assert len(lapack_calls) == 502


def test_lapack_lstsq_gufunc_is_where_the_forecaster_expects_it():
    """The battery calls numpy's private least-squares gufunc directly;
    a numpy that moves or reshapes it must fail here, by name."""
    where = ("repro.nws.forecasting batches its AR fits through "
             "numpy.linalg._umath_linalg.lstsq")
    from numpy.linalg import _umath_linalg
    gufunc = getattr(_umath_linalg, "lstsq", None)
    assert gufunc is not None, f"{where}, which this numpy lacks"
    assert gufunc.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)", (
        f"{where}, whose signature is now {gufunc.signature}")
    assert "ddd->ddid" in gufunc.types, (
        f"{where}, which no longer has the ddd->ddid loop: {gufunc.types}")
    assert forecasting._lstsq is gufunc, where


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


def lone_fit(series, p):
    """AR(p) one-step prediction from one window, by ``np.linalg.lstsq``
    on that window alone (the battery's fit before batching)."""
    m = len(series) - p
    design = np.ones((m + 1, p + 1))
    for j in range(p):
        design[:, j] = series[j:j + m + 1]
    coef = np.linalg.lstsq(design[:m], series[p:], rcond=None)[0]
    return float(design[m] @ coef)


class TestBatchedFits:
    def test_recorded_windows_solved_as_one_batch_match_lone_fits(
            self, recorded_series):
        """Every AR window the recorded fig3 and metasched series fit,
        solved in one LAPACK call per shape across all of them, is
        ``==`` to its own ``np.linalg.lstsq``."""
        windows = {}
        real = forecasting._ar_predictions

        def recording(batch, p):
            windows.setdefault((batch.shape[1], p), []).extend(batch)
            return real(batch, p)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forecasting, "_ar_predictions", recording)
            for log in recorded_series:
                f = AdaptiveForecaster()
                for x in log:
                    if x is None:
                        f.predict()
                    else:
                        f.update(x)
                f.predict()
        assert sum(map(len, windows.values())) > 2000
        assert len(windows) > 20
        for (k, p), rows in windows.items():
            batch = forecasting._ar_predictions(np.array(rows), p)
            assert batch == [lone_fit(row, p) for row in rows], (k, p)


def fed(prefix, pending):
    """A forecaster that read after ``prefix`` and holds ``pending``."""
    f = AdaptiveForecaster()
    for x in prefix:
        f.update(x)
    f.predict()
    for x in pending:
        f.update(x)
    return f


#: (prefix, pending) per forecaster: pending lengths 0, 1, many and
#: past the cap, warm-up and full windows, constant runs and fits
BATCH_MIX = (
    ([], []),
    ([], [0.5]),
    ([0.2, 0.5], [1.0]),
    ([], noise_series(12, 1, False)),
    ([], noise_series(HISTORY_LEN - 1, 2, False)),
    (noise_series(3, 3, True), noise_series(40, 4, True)),
    (noise_series(50, 5, False), []),
    (noise_series(50, 6, False), [0.25]),
    (noise_series(50, 7, False), noise_series(90, 8, False)),
    ([], noise_series(_PENDING_CAP + 37, 9, False)),
    (noise_series(45, 10, True), noise_series(2 * _PENDING_CAP + 5, 11,
                                              True)),
    ([0.5] * 40, [0.5] * 35),
    ([0.5] * 40, [0.5] * 10 + [0.2] + [0.5] * 40),
    ([], [1.0] * 8 + noise_series(30, 12, False) + [0.0] * 45),
)


class TestBatchedReplay:
    """Replaying forecasters together leaves each one exactly as its
    own replay would."""

    @staticmethod
    def assert_batch_matches_solo(mix, lapack_calls=None):
        together = [fed(prefix, pending) for prefix, pending in mix]
        alone = [fed(prefix, pending) for prefix, pending in mix]
        if lapack_calls is not None:
            del lapack_calls[:]
        forecasting.replay(together)
        if lapack_calls is not None:
            # one LAPACK call per (window length, order) shape
            shapes = [(k, p) for _n, k, p in lapack_calls]
            assert len(shapes) == len(set(shapes))
        for i, (a, b) in enumerate(zip(together, alone)):
            assert a._pending == [], i
            b.predict()
            assert state_bits(a) == state_bits(b), i
            assert (a.n_samples, a.history(), a._run) == (
                b.n_samples, b.history(), b._run), i

    def test_mixed_pending_lengths_and_windows(self, lapack_calls):
        self.assert_batch_matches_solo(BATCH_MIX, lapack_calls)
        # the batch held warm-up and full windows, several per call
        assert {k for _n, k, _p in lapack_calls} > {4, 5, HISTORY_LEN}
        assert max(n for n, _k, _p in lapack_calls) > len(BATCH_MIX)

    def test_order_and_repeats_do_not_matter(self):
        mix = BATCH_MIX[::-1] + BATCH_MIX[5:8]
        self.assert_batch_matches_solo(mix)
        f = fed([], noise_series(70, 13, False))
        g = fed([], noise_series(70, 13, False))
        forecasting.replay([f, f, f])
        g.predict()
        assert state_bits(f) == state_bits(g)

    @settings(max_examples=25, deadline=None)
    @given(mix=st.lists(st.tuples(long_series, long_series), max_size=5))
    def test_drawn_mixes(self, mix):
        self.assert_batch_matches_solo(mix)

