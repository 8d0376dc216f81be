"""Reference oracle for the NWS forecaster battery.

This is the plain numpy battery :mod:`repro.nws.forecasting` is
checked against: ``np.median`` over the window, a least-squares fit on
every AR window (constant ones included), the clamp bounds taken from
``series.min()`` / ``series.max()``, window means recomputed at every
query, and an adaptive selector that scores in one pass and absorbs in
a second, with errors keyed by member name and an unbounded history.
The members whose production path keeps no extra state (last value,
running mean, exponential smoothing) are shared with the product.

The differential in ``tests/nws/test_forecasting_oracle.py`` asserts
every prediction, error and selection is ``==`` to the production one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nws.forecasting import (
    ExponentialSmoothing,
    Forecaster,
    LastValue,
    RunningMean,
)

__all__ = [
    "ReferenceAdaptiveForecaster",
    "ReferenceAutoRegressive",
    "ReferenceSlidingWindowMean",
    "ReferenceSlidingWindowMedian",
    "reference_battery",
]


class ReferenceSlidingWindowMean(Forecaster):
    """Mean of the last ``window`` measurements, summed at every query."""

    def __init__(self, window: int) -> None:
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
    """Sliding-window AR(p) with a ``lstsq`` fit on every window."""

    def __init__(self, order: int = 2, window: int = 30) -> None:
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
    """The oracle counterpart of :func:`repro.nws.default_battery`."""
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

    def __init__(self, battery: Optional[Sequence[Forecaster]] = None) -> None:
        self.battery: List[Forecaster] = (
            list(battery) if battery is not None else reference_battery())
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

    def best_method(self) -> Optional[Forecaster]:
        return self._select()[0]

    def errors(self) -> Dict[str, float]:
        n = max(self._n_scored, 1)
        return {name: err / n for name, err in self._abs_err.items()}

    @property
    def n_samples(self) -> int:
        return len(self._history)

    def history(self) -> List[float]:
        return list(self._history)
