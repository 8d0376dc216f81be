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
that arrives after a series' last read is never computed.

The battery is not a list of member objects: its eleven members are
plain floats and lists inside :class:`AdaptiveForecaster`, updated in
one ``_replay`` loop.  Medians come from bisect-maintained sorted
windows, window means from ``sum()`` over the window, and both AR
members fit over the forecaster's one ``HISTORY_LEN`` ring, sharing its
``min``/``max`` and skipping the least-squares fit on a constant window,
whose clamped prediction is that constant whatever the fit says.  The
replay also counts the trailing run of equal samples, carried from one
replay to the next: a run at least as long as the window shows the
window is constant, so its first element stands in for the
``min``/``max`` scan.  All of it is bit-for-bit equal to the plain
numpy battery kept as the test oracle in ``tests/oracles/forecasting.py``
(DESIGN.md §2.2 gives the contract).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

__all__ = ["AdaptiveForecaster", "HISTORY_LEN", "MEMBERS"]

#: the battery's members, in selection order: the first one with the
#: lowest cumulative error answers
MEMBERS = ("last", "mean", "win_mean_5", "win_mean_20", "win_median_5",
           "win_median_20", "exp_0.1", "exp_0.3", "exp_0.75", "ar_1", "ar_2")

#: samples the AR members fit over, the battery's largest window
_AR_WINDOW = 30

#: measurements an :class:`AdaptiveForecaster` (and a sensor) keeps for
#: inspection.  It is the AR window: the forecaster's one ring of recent
#: samples is both its history and the AR members' fit window.
HISTORY_LEN = _AR_WINDOW

#: samples an :class:`AdaptiveForecaster` holds unreplayed at most; the
#: ``update`` that fills the pending list replays it
_PENDING_CAP = 256


def _ar_fit(series: np.ndarray, p: int) -> float:
    """Least-squares AR(p) one-step prediction from ``series``."""
    m = len(series) - p
    # Row t is [series[t:t + p], 1] -> series[t + p]; the extra
    # last row m is the regressor of the value being predicted.
    design = np.ones((m + 1, p + 1))
    for j in range(p):
        design[:, j] = series[j:j + m + 1]
    coef = np.linalg.lstsq(design[:m], series[p:], rcond=None)[0]
    return float(design[m] @ coef)


class AdaptiveForecaster:
    """NWS's postcast selector: track each method's mean absolute error
    against the measurements that actually arrived, answer with the
    lowest-error method's prediction.

    Samples wait in a pending list until something reads the
    forecaster (or the list reaches ``_PENDING_CAP``); every read
    replays them first, so it sees exactly the state eager updates
    would have left."""

    def __init__(self) -> None:
        #: each member's prediction of the next sample, in MEMBERS
        #: order; all None before the first sample, none after it
        self._preds: List[Optional[float]] = [None] * len(MEMBERS)
        #: cumulative absolute error, in MEMBERS order
        self._abs_err: List[float] = [0.0] * len(MEMBERS)
        #: index of the selected member (meaningful once a sample is in)
        self._best = 0
        self._n_samples = 0
        #: length of the trailing run of equal (``==``) samples
        self._run = 0
        self._sum = 0.0
        self._w5: Deque[float] = deque(maxlen=5)
        self._w20: Deque[float] = deque(maxlen=20)
        #: the w5 / w20 windows' values in sorted order
        self._sorted5: List[float] = []
        self._sorted20: List[float] = []
        #: the last HISTORY_LEN samples: history() and the AR window
        self._window: Deque[float] = deque(maxlen=HISTORY_LEN)
        #: samples not yet replayed through the battery, oldest first
        self._pending: List[float] = []

    def update(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= _PENDING_CAP:
            self._replay()

    def _replay(self) -> None:
        """Run the pending samples through the battery, in order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        (last, mean, mean5, mean20, med5, med20, exp1, exp3, exp75,
         ar1, ar2) = self._preds
        (e_last, e_mean, e_mean5, e_mean20, e_med5, e_med20, e_exp1,
         e_exp3, e_exp75, e_ar1, e_ar2) = self._abs_err
        n = self._n_samples
        run = self._run
        total = self._sum
        w5, w20 = self._w5, self._w20
        sorted5, sorted20 = self._sorted5, self._sorted20
        window = self._window
        for x in pending:
            # Score yesterday's predictions against today's truth
            # (postcast), then absorb the new measurement.
            if n:
                e_last += abs(last - x)
                e_mean += abs(mean - x)
                e_mean5 += abs(mean5 - x)
                e_mean20 += abs(mean20 - x)
                e_med5 += abs(med5 - x)
                e_med20 += abs(med20 - x)
                e_exp1 += abs(exp1 - x)
                e_exp3 += abs(exp3 - x)
                e_exp75 += abs(exp75 - x)
                e_ar1 += abs(ar1 - x)
                e_ar2 += abs(ar2 - x)
                exp1 = 0.1 * x + (1.0 - 0.1) * exp1
                exp3 = 0.3 * x + (1.0 - 0.3) * exp3
                exp75 = 0.75 * x + (1.0 - 0.75) * exp75
                # NaN equals nothing, so it never extends a run
                run = run + 1 if x == last else 1
            else:
                exp1 = exp3 = exp75 = x
                run = 1
            last = x
            n += 1
            total += x
            mean = total / n

            if len(w5) == 5:
                del sorted5[bisect_left(sorted5, w5[0])]
            w5.append(x)
            insort(sorted5, x)
            # A fresh sum() each time, not a running sum: adding the new
            # value and subtracting the evicted one drifts from sum()'s bits.
            mean5 = sum(w5) / len(w5)
            mid = len(sorted5) // 2
            # np.median's even case is the mean of the middle pair, (a + b) / 2
            med5 = float(sorted5[mid] if len(sorted5) % 2
                         else (sorted5[mid - 1] + sorted5[mid]) / 2.0)

            if len(w20) == 20:
                del sorted20[bisect_left(sorted20, w20[0])]
            w20.append(x)
            insort(sorted20, x)
            mean20 = sum(w20) / len(w20)
            mid = len(sorted20) // 2
            med20 = float(sorted20[mid] if len(sorted20) % 2
                          else (sorted20[mid - 1] + sorted20[mid]) / 2.0)

            # AR(p) falls back to the last value until 2p + 2 samples.
            # Past that it is clamped into the window's [lo, hi]: AR lines
            # extrapolate, but a resource measurement cannot leave the
            # range its neighbours span (and real NWS clamps CPU
            # availability the same way).  On a constant window the clamp
            # pins both fits to that constant, so neither runs.  A run of
            # equal samples at least as long as the window shows it is
            # constant without a scan: min() and max() would both return
            # its first element, ±0.0 included.
            window.append(x)
            k = len(window)
            if k < 4:
                ar1 = ar2 = x
            elif run >= k:
                ar1 = float(window[0])
                ar2 = x if k < 6 else ar1
            else:
                lo, hi = min(window), max(window)
                if lo == hi:
                    ar1 = float(lo)
                    ar2 = x if k < 6 else ar1
                else:
                    series = np.fromiter(window, dtype=float, count=k)
                    ar1 = float(min(max(_ar_fit(series, 1), lo), hi))
                    ar2 = (x if k < 6
                           else float(min(max(_ar_fit(series, 2), lo), hi)))
        self._preds = [last, mean, mean5, mean20, med5, med20, exp1, exp3,
                       exp75, ar1, ar2]
        errs = [e_last, e_mean, e_mean5, e_mean20, e_med5, e_med20, e_exp1,
                e_exp3, e_exp75, e_ar1, e_ar2]
        self._abs_err = errs
        # the first member with the lowest error wins a tie
        self._best = errs.index(min(errs))
        self._n_samples = n
        self._run = run
        self._sum = total

    def predict(self) -> Optional[float]:
        self._replay()
        return self._preds[self._best]

    def best_method(self) -> Optional[str]:
        """Name of the member with the lowest cumulative error so far."""
        self._replay()
        return MEMBERS[self._best] if self._n_samples else None

    def predictions(self) -> Dict[str, Optional[float]]:
        """Each member's prediction, up to date with every sample so far."""
        self._replay()
        return dict(zip(MEMBERS, self._preds))

    def errors(self) -> Dict[str, float]:
        """Mean absolute error per method over the scored history."""
        self._replay()
        # every sample but the first is scored
        n = max(self._n_samples - 1, 1)
        return {name: err / n for name, err in zip(MEMBERS, self._abs_err)}

    @property
    def n_samples(self) -> int:
        """Measurements absorbed so far (the history keeps the last
        :data:`HISTORY_LEN` of them)."""
        self._replay()
        return self._n_samples

    def history(self) -> List[float]:
        self._replay()
        return list(self._window)
