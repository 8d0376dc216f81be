"""NWS-style time-series forecasting.

The Network Weather Service keeps a battery of simple predictors per
measurement series, scores each one by its historical error on that
very series, and answers queries with the prediction of the currently
best-scoring method (Wolski et al., FGCS 1999).  We implement that
design: last-value, running mean, sliding-window means/medians,
exponential smoothing at several gains, autoregressive fits, and an
adaptive selector over all of them.

Every sensor reading updates one battery, but only scheduling decisions
read it, so the battery does its work when it is read.
:meth:`AdaptiveForecaster.update` only appends the sample to a pending
list; the first read after it replays the pending samples, in arrival
order, through the score-then-absorb loop, and a list that reaches
``_PENDING_CAP`` samples is replayed by ``update`` itself.  A sample
that arrives after a series' last read is never computed.  Inside the
replay each member computes its prediction once per sample, at its own
``update``, and its ``predict`` returns it.  Medians come from a
bisect-maintained sorted window, window means from ``sum()`` over the
window, and the AR members skip the least-squares fit on a constant
window, whose clamped prediction is that constant whatever the fit
says.  All of it is bit-for-bit equal to the plain numpy battery kept
as the test oracle in ``tests/oracles/forecasting.py`` (DESIGN.md §2.2
gives the contract).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "AutoRegressive",
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "SlidingWindowMedian",
    "ExponentialSmoothing",
    "AdaptiveForecaster",
    "HISTORY_LEN",
    "default_battery",
]

#: measurements an :class:`AdaptiveForecaster` (and a sensor) keeps for
#: inspection: the largest window in the default battery, so the
#: history covers everything any member still looks at
HISTORY_LEN = 30

#: samples an :class:`AdaptiveForecaster` holds unreplayed at most; the
#: ``update`` that fills the pending list replays it
_PENDING_CAP = 256


class Forecaster:
    """Online one-step-ahead predictor for a scalar series."""

    name = "base"

    def update(self, value: float) -> None:
        """Feed one new measurement."""
        raise NotImplementedError

    def predict(self) -> Optional[float]:
        """Forecast of the next value, or None before any data."""
        raise NotImplementedError


class LastValue(Forecaster):
    """Predict the most recent measurement (a martingale model)."""

    name = "last"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> Optional[float]:
        return self._last


class RunningMean(Forecaster):
    """Predict the mean of the entire history."""

    name = "mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._n += 1

    def predict(self) -> Optional[float]:
        return self._sum / self._n if self._n else None


class SlidingWindowMean(Forecaster):
    """Predict the mean over the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_mean_{window}"
        self._buf: Deque[float] = deque(maxlen=window)
        self._mean: Optional[float] = None

    def update(self, value: float) -> None:
        self._buf.append(value)
        # A fresh sum() each time, not a running sum: adding the new
        # value and subtracting the evicted one drifts from sum()'s bits.
        self._mean = sum(self._buf) / len(self._buf)

    def predict(self) -> Optional[float]:
        return self._mean


class SlidingWindowMedian(Forecaster):
    """Predict the median over the last ``window`` measurements.

    Medians resist the load spikes that make means lie; NWS includes
    them for exactly that reason.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_median_{window}"
        self._buf: Deque[float] = deque(maxlen=window)
        #: the window's values in sorted order
        self._sorted: List[float] = []
        self._median: Optional[float] = None

    def update(self, value: float) -> None:
        ordered = self._sorted
        if len(self._buf) == self.window:
            del ordered[bisect_left(ordered, self._buf[0])]
        self._buf.append(value)
        insort(ordered, value)
        mid = len(ordered) // 2
        # np.median's even case is the mean of the middle pair, (a + b) / 2
        self._median = float(ordered[mid] if len(ordered) % 2
                             else (ordered[mid - 1] + ordered[mid]) / 2.0)

    def predict(self) -> Optional[float]:
        return self._median


class ExponentialSmoothing(Forecaster):
    """Predict with s <- gain*x + (1-gain)*s."""

    def __init__(self, gain: float) -> None:
        if not 0.0 < gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        self.gain = gain
        self.name = f"exp_{gain:g}"
        self._state: Optional[float] = None

    def update(self, value: float) -> None:
        if self._state is None:
            self._state = value
        else:
            self._state = self.gain * value + (1.0 - self.gain) * self._state

    def predict(self) -> Optional[float]:
        return self._state


class AutoRegressive(Forecaster):
    """Sliding-window AR(p) predictor, refitted on every update.

    NWS ships autoregressive members in its battery; they win on series
    with short-range correlation structure (oscillating load).  The
    least-squares fit runs over the last ``window`` samples; until
    ``2 * order + 2`` samples have arrived, the prediction falls back to
    the last value.
    """

    def __init__(self, order: int = 2, window: int = 30) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if window < 2 * order + 2:
            raise ValueError("window too small to fit the requested order")
        self.order = order
        self.window = window
        self.name = f"ar_{order}"
        self._buf: Deque[float] = deque(maxlen=window)
        self._pred: Optional[float] = None

    def update(self, value: float) -> None:
        buf = self._buf
        buf.append(value)
        if len(buf) < 2 * self.order + 2:
            self._pred = value
            return
        lo, hi = min(buf), max(buf)
        # Clamp into the observed window: AR lines extrapolate, but a
        # resource measurement cannot leave the range its neighbours
        # span (and real NWS clamps CPU availability the same way).  On
        # a constant window the clamp pins the fit to that constant, so
        # the fit is skipped.
        self._pred = float(lo if lo == hi
                           else min(max(self._fit(), lo), hi))

    def predict(self) -> Optional[float]:
        return self._pred

    def _fit(self) -> float:
        """Least-squares AR(p) one-step prediction from the window."""
        series = np.fromiter(self._buf, dtype=float, count=len(self._buf))
        p = self.order
        m = len(series) - p
        # Row t is [series[t:t + p], 1] -> series[t + p]; the extra
        # last row m is the regressor of the value being predicted.
        design = np.ones((m + 1, p + 1))
        for j in range(p):
            design[:, j] = series[j:j + m + 1]
        coef = np.linalg.lstsq(design[:m], series[p:], rcond=None)[0]
        return float(design[m] @ coef)


def default_battery() -> List[Forecaster]:
    """The predictor set used for every series unless overridden."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(5),
        SlidingWindowMean(20),
        SlidingWindowMedian(5),
        SlidingWindowMedian(20),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.75),
        AutoRegressive(order=1),
        AutoRegressive(order=2),
    ]


class AdaptiveForecaster(Forecaster):
    """NWS's postcast selector: track each method's mean absolute error
    against the measurements that actually arrived, answer with the
    lowest-error method's prediction.

    Samples wait in a pending list until something reads the
    forecaster (or the list reaches ``_PENDING_CAP``); every read
    replays them first, so it sees exactly the state eager updates
    would have left."""

    name = "adaptive"

    def __init__(self, battery: Optional[Sequence[Forecaster]] = None) -> None:
        self._battery: List[Forecaster] = (
            list(battery) if battery is not None else default_battery())
        if not self._battery:
            raise ValueError("battery must not be empty")
        names = [f.name for f in self._battery]
        if len(set(names)) != len(names):
            raise ValueError(f"battery member names must be unique: {names}")
        #: cumulative absolute error, by battery position
        self._abs_err: List[float] = [0.0] * len(self._battery)
        self._n_scored = 0
        self._n_samples = 0
        self._history: Deque[float] = deque(maxlen=HISTORY_LEN)
        #: samples not yet replayed through the battery, oldest first
        self._pending: List[float] = []
        #: (best method, its prediction); None until asked, dropped on
        #: every replay — the selection is a pure function of the series
        self._choice: Optional[Tuple[Optional[Forecaster],
                                     Optional[float]]] = None

    def update(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _PENDING_CAP:
            self._replay()

    def _replay(self) -> None:
        """Run the pending samples through the battery, in order."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        # Score yesterday's prediction against today's truth (postcast),
        # then let the method absorb the new measurement.  Members are
        # independent, so one pass over the battery does both.
        abs_err = self._abs_err
        battery = self._battery
        n_scored = 0
        for value in pending:
            scored = False
            for i, method in enumerate(battery):
                pred = method.predict()
                if pred is not None:
                    abs_err[i] += abs(pred - value)
                    scored = True
                method.update(value)
            n_scored += scored
        self._n_scored += n_scored
        self._n_samples += len(pending)
        self._history.extend(pending)
        self._choice = None

    @property
    def battery(self) -> Tuple[Forecaster, ...]:
        """The members, up to date with every sample so far."""
        self._replay()
        return tuple(self._battery)

    def _select(self) -> Tuple[Optional[Forecaster], Optional[float]]:
        self._replay()
        if self._choice is None:
            # the first member with the lowest error wins a tie
            best: Optional[Forecaster] = None
            best_pred: Optional[float] = None
            best_err = 0.0
            for method, err in zip(self._battery, self._abs_err):
                pred = method.predict()
                if pred is not None and (best is None or err < best_err):
                    best, best_pred, best_err = method, pred, err
            self._choice = (best, best_pred)
        return self._choice

    def predict(self) -> Optional[float]:
        return self._select()[1]

    def best_method(self) -> Optional[Forecaster]:
        """The battery member with the lowest cumulative error so far."""
        return self._select()[0]

    def errors(self) -> Dict[str, float]:
        """Mean absolute error per method over the scored history."""
        self._replay()
        n = max(self._n_scored, 1)
        return {method.name: err / n
                for method, err in zip(self._battery, self._abs_err)}

    @property
    def n_samples(self) -> int:
        """Measurements absorbed so far (the history keeps the last
        :data:`HISTORY_LEN` of them)."""
        self._replay()
        return self._n_samples

    def history(self) -> List[float]:
        self._replay()
        return list(self._history)
