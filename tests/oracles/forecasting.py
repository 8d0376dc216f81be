"""Reference oracle for the NWS forecaster battery.

This is the plain numpy battery :mod:`repro.nws.forecasting` is
checked against: ``np.median`` over the window, a least-squares fit on
every AR window (constant ones included), the clamp bounds taken from
``series.min()`` / ``series.max()``, window means recomputed at every
query, and an adaptive selector that scores in one pass and absorbs in
a second, with errors keyed by member name and an unbounded history.
The production battery keeps its members as plain state inside one
replay loop; here each member is its own :class:`Forecaster` object.

The differential in ``tests/nws/test_forecasting_oracle.py`` asserts
every prediction, error and selection is ``==`` to the production one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ExponentialSmoothing",
    "Forecaster",
    "LastValue",
    "ReferenceAdaptiveForecaster",
    "ReferenceAutoRegressive",
    "ReferenceSlidingWindowMean",
    "ReferenceSlidingWindowMedian",
    "RunningMean",
    "reference_battery",
]


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


class ReferenceSlidingWindowMean(Forecaster):
    """Mean of the last ``window`` measurements, summed at every query."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_mean_{window}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        if not self._buf:
            return None
        return sum(self._buf) / len(self._buf)


class ReferenceSlidingWindowMedian(Forecaster):
    """``np.median`` of the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.name = f"win_median_{window}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        if not self._buf:
            return None
        return float(np.median(list(self._buf)))


class ReferenceAutoRegressive(Forecaster):
    """Sliding-window AR(p) with a ``lstsq`` fit on every window.

    Until ``2 * order + 2`` samples have arrived the prediction falls
    back to the last value; after that it is clamped into the window's
    observed range."""

    def __init__(self, order: int = 2, window: int = 30) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if window < 2 * order + 2:
            raise ValueError("window too small to fit the requested order")
        self.order = order
        self.window = window
        self.name = f"ar_{order}"
        self._buf: Deque[float] = deque(maxlen=window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> Optional[float]:
        n = len(self._buf)
        if n == 0:
            return None
        if n < 2 * self.order + 2:
            return self._buf[-1]
        series = np.asarray(self._buf, dtype=float)
        p = self.order
        # rows: series[t-p:t] -> series[t]
        rows = np.stack([series[i:i + p] for i in range(n - p)])
        targets = series[p:]
        design = np.hstack([rows, np.ones((len(rows), 1))])
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        recent = np.append(series[-p:], 1.0)
        raw = float(recent @ coef)
        return float(min(max(raw, series.min()), series.max()))


def reference_battery() -> List[Forecaster]:
    """The battery in :data:`repro.nws.forecasting.MEMBERS` order."""
    return [
        LastValue(),
        RunningMean(),
        ReferenceSlidingWindowMean(5),
        ReferenceSlidingWindowMean(20),
        ReferenceSlidingWindowMedian(5),
        ReferenceSlidingWindowMedian(20),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.75),
        ReferenceAutoRegressive(order=1),
        ReferenceAutoRegressive(order=2),
    ]


class ReferenceAdaptiveForecaster(Forecaster):
    """Postcast selector: score every member, then update every member."""

    name = "adaptive"

    def __init__(self) -> None:
        self.battery: List[Forecaster] = reference_battery()
        self._abs_err: Dict[str, float] = {f.name: 0.0 for f in self.battery}
        self._n_scored = 0
        self._history: List[float] = []

    def update(self, value: float) -> None:
        preds = [method.predict() for method in self.battery]
        for method, pred in zip(self.battery, preds):
            if pred is not None:
                self._abs_err[method.name] += abs(pred - value)
        if any(pred is not None for pred in preds):
            self._n_scored += 1
        for method in self.battery:
            method.update(value)
        self._history.append(value)

    def _select(self) -> Tuple[Optional[Forecaster], Optional[float]]:
        candidates = [m for m in self.battery if m.predict() is not None]
        if not candidates:
            return None, None
        best = min(candidates, key=lambda m: self._abs_err[m.name])
        return best, best.predict()

    def predict(self) -> Optional[float]:
        return self._select()[1]

    def best_method(self) -> Optional[str]:
        best = self._select()[0]
        return best.name if best is not None else None

    def predictions(self) -> Dict[str, Optional[float]]:
        return {method.name: method.predict() for method in self.battery}

    def errors(self) -> Dict[str, float]:
        n = max(self._n_scored, 1)
        return {name: err / n for name, err in self._abs_err.items()}

    @property
    def n_samples(self) -> int:
        return len(self._history)

    def history(self) -> List[float]:
        return list(self._history)
