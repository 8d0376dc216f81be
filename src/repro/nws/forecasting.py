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
plain floats and lists inside :class:`AdaptiveForecaster`, updated by
one replay.  Medians come from bisect-maintained sorted
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

A replay is two passes, so that AR fits can be solved in batches.
Pass 1 (``_absorb``) runs the samples through every member but the AR
pair and records, per sample, either the AR pair's value or a request
to fit that sample's window.  The module function :func:`replay` runs
pass 1 for a set of forecasters, solves every window of one
``(length, order)`` shape in one call of the LAPACK gufunc behind
``np.linalg.lstsq``, then runs pass 2 (``_score_ar``), which scores the
AR predictions in sample order and picks the selection.  Each window's
fit is the same LAPACK solve ``np.linalg.lstsq`` makes for it alone, so
every bit is unchanged; a single forecaster's read is ``replay`` of
that one forecaster.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["AdaptiveForecaster", "HISTORY_LEN", "MEMBERS", "replay"]

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


#: the least-squares gufunc ``np.linalg.lstsq`` calls, signature
#: ``(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)``; one call solves a
#: stack of same-shape systems, each exactly as ``lstsq`` solves it alone
_lstsq = _umath_linalg.lstsq

_EPS = np.finfo(float).eps


def _raise_lstsq(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError(
        "SVD did not converge in Linear Least Squares")


def _ar_predictions(windows: np.ndarray, p: int) -> List[float]:
    """Least-squares AR(p) one-step prediction from each row of
    ``windows`` (shape ``(N, k)``), in one LAPACK call."""
    n_rows, k = windows.shape
    m = k - p
    # Row t is [series[t:t + p], 1] -> series[t + p]; the extra
    # last row m is the regressor of the value being predicted.
    design = np.ones((n_rows, m + 1, p + 1))
    for j in range(p):
        design[:, :, j] = windows[:, j:j + m + 1]
    # np.linalg.lstsq(design[:m], series[p:], rcond=None), stacked:
    # the same rcond, signature and error handling
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef = _lstsq(design[:, :m], windows[:, p:, None],
                      _EPS * max(m, p + 1), signature="ddd->ddid")[0]
    # one 1-D product per window, as after a lone lstsq
    return [float(row @ c) for row, c in zip(design[:, m], coef[:, :, 0])]


#: one fit request: the window, and the ``[lo, hi]`` slot the clamped
#: ``(ar1, ar2)`` pair is written into
_Request = Tuple[Tuple[float, ...], List[float]]


def _fit_windows(k: int, requests: List[_Request]) -> None:
    """Answer every request for a ``k``-sample window: AR(1), and
    AR(2) from six samples on, clamped into each window's range."""
    windows = np.array([window for window, _ in requests], dtype=float)
    ar1 = _ar_predictions(windows, 1)
    ar2 = _ar_predictions(windows, 2) if k >= 6 else None
    for i, (window, slot) in enumerate(requests):
        lo, hi = slot
        slot[0] = float(min(max(ar1[i], lo), hi))
        # AR(2) falls back to the last value, the window's last sample
        slot[1] = (float(min(max(ar2[i], lo), hi)) if ar2 is not None
                   else window[-1])


def replay(forecasters: Iterable["AdaptiveForecaster"]) -> None:
    """Replay every forecaster's pending samples, fitting all their AR
    windows of one shape in a single LAPACK call.  Each forecaster ends
    in exactly the state its own replay would leave."""
    fits: Dict[int, List[_Request]] = {}
    staged = [(f, f._absorb(fits)) for f in forecasters if f._pending]
    for k, requests in fits.items():
        _fit_windows(k, requests)
    for f, (pending, ars) in staged:
        f._score_ar(pending, ars)


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
        if self._pending:
            replay((self,))

    def _absorb(self, fits: Dict[int, List[_Request]]
                ) -> Tuple[List[float], list]:
        """Pass 1 of a replay: run the pending samples through every
        member but the AR pair.  Returns the samples and, per sample,
        the AR pair's ``(ar1, ar2)`` or the slot a fit request in
        ``fits`` (keyed by window length) will fill."""
        pending = self._pending
        self._pending = []
        # the first nine members; the AR pair (9, 10) moves in pass 2
        (last, mean, mean5, mean20, med5, med20, exp1, exp3,
         exp75) = self._preds[:9]
        (e_last, e_mean, e_mean5, e_mean20, e_med5, e_med20, e_exp1,
         e_exp3, e_exp75) = self._abs_err[:9]
        n = self._n_samples
        run = self._run
        total = self._sum
        w5, w20 = self._w5, self._w20
        sorted5, sorted20 = self._sorted5, self._sorted20
        window = self._window
        ars: list = []
        record = ars.append
        for x in pending:
            # Score yesterday's predictions against today's truth
            # (postcast), then absorb the new measurement.  The AR
            # pair is scored in pass 2.
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
                record((x, x))
            elif run >= k:
                const = float(window[0])
                record((const, x if k < 6 else const))
            else:
                lo, hi = min(window), max(window)
                if lo == hi:
                    const = float(lo)
                    record((const, x if k < 6 else const))
                else:
                    slot = [lo, hi]
                    fits.setdefault(k, []).append((tuple(window), slot))
                    record(slot)
        self._preds[:9] = [last, mean, mean5, mean20, med5, med20, exp1,
                           exp3, exp75]
        self._abs_err[:9] = [e_last, e_mean, e_mean5, e_mean20, e_med5,
                             e_med20, e_exp1, e_exp3, e_exp75]
        self._n_samples = n
        self._run = run
        self._sum = total
        return pending, ars

    def _score_ar(self, pending: List[float], ars: list) -> None:
        """Pass 2 of a replay: score the AR pair's predictions against
        the samples, in sample order, then pick the selection."""
        preds, errs = self._preds, self._abs_err
        ar1, ar2 = preds[9], preds[10]
        e_ar1, e_ar2 = errs[9], errs[10]
        pairs = zip(pending, ars)
        if ar1 is None:
            # the series' first sample: nothing to score yet
            _, (ar1, ar2) = next(pairs)
        for x, (next1, next2) in pairs:
            e_ar1 += abs(ar1 - x)
            e_ar2 += abs(ar2 - x)
            ar1, ar2 = next1, next2
        preds[9], preds[10] = ar1, ar2
        errs[9], errs[10] = e_ar1, e_ar2
        # the first member with the lowest error wins a tie
        self._best = errs.index(min(errs))

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
