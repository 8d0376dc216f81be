"""Floating-point operation count models (§3.2).

GrADS builds architecture-independent component models by running the
program on "several executions ... with different, small-size input
problems", reading hardware performance counters, and applying least
squares curve fitting.  We reproduce that pipeline: feed in (size,
flop-count) samples, fit a non-negative combination of monomial basis
terms, and extrapolate to production sizes.

Non-negative least squares matters here: an unconstrained fit happily
produces negative low-order coefficients that make extrapolated counts
negative for sizes outside the training range, which would poison every
downstream scheduling decision.  The flop bases have at most four
columns, so the fit solves least squares on every subset of them and
keeps the best non-negative solution; ``tests/oracles/nnls.py`` checks
it against a reference solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

__all__ = ["FlopModel", "fit_flop_model", "power_law_fit"]


@dataclass(frozen=True)
class FlopModel:
    """A fitted flop-count model: count(n) = sum_i coef[i] * n**degree[i]."""

    degrees: Tuple[int, ...]
    coefficients: Tuple[float, ...]
    residual: float  # least-squares residual norm on the training data

    def __call__(self, n: float) -> float:
        """Predicted flop count at problem size ``n``."""
        if n < 0:
            raise ValueError("problem size must be non-negative")
        return float(sum(c * n ** d
                         for c, d in zip(self.coefficients, self.degrees)))

    def mflop(self, n: float) -> float:
        """Predicted work in Mflop (the project's compute unit)."""
        return self(n) / 1e6

    @property
    def dominant_degree(self) -> int:
        """The highest-order term with a non-negligible coefficient.

        :func:`fit_flop_model` zeroes negligible coefficients, so every
        positive one counts.
        """
        best = 0
        for c, d in zip(self.coefficients, self.degrees):
            if c > 0 and d > best:
                best = d
        return best


#: fitted coefficients at most this fraction of the largest are zeroed
_NEGLIGIBLE = 1e-9


def nnls(A: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """``argmin ||A x - b||`` subject to ``x >= 0``; returns ``(x, residual)``.

    The optimum is the least-squares fit on its own support, so solving
    on every subset of columns and keeping the best non-negative fit
    finds it.  That is 2**n solves: fine for the at most four monomial
    columns of a flop basis.
    """
    n = A.shape[1]
    best, best_residual = np.zeros(n), float(np.linalg.norm(b))
    for k in range(1, n + 1):
        for support in map(list, combinations(range(n), k)):
            x = np.zeros(n)
            x[support] = np.linalg.lstsq(A[:, support], b, rcond=None)[0]
            residual = float(np.linalg.norm(A @ x - b))
            if x.min() >= 0 and residual < best_residual:
                best, best_residual = x, residual
    return best, best_residual


def fit_flop_model(sizes: Sequence[float], counts: Sequence[float],
                   max_degree: int = 3) -> FlopModel:
    """Least-squares fit of flop counts against problem size.

    ``sizes`` and ``counts`` come from instrumented small-size runs.
    Columns are scaled before solving so that NNLS is well conditioned
    even when n**3 dwarfs n**0 across the sample range.
    """
    sizes = np.asarray(sizes, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if sizes.ndim != 1 or sizes.shape != counts.shape:
        raise ValueError("sizes and counts must be equal-length 1-D sequences")
    if len(sizes) < 2:
        raise ValueError("need at least two samples to fit")
    if np.any(sizes <= 0):
        raise ValueError("sample sizes must be positive")
    if np.any(counts < 0):
        raise ValueError("flop counts cannot be negative")
    degrees = tuple(range(max_degree + 1))
    basis = np.stack([sizes ** d for d in degrees], axis=1)
    scale = np.linalg.norm(basis, axis=0)
    scale[scale == 0] = 1.0
    scaled = basis / scale
    solution, _ = nnls(scaled, counts)
    # Rounding leaves tiny coefficients (such as 1e-18 on n**3 for an
    # exact n**2 law) on terms the data does not have; drop them.
    solution[solution <= _NEGLIGIBLE * solution.max(initial=0.0)] = 0.0
    residual = float(np.linalg.norm(scaled @ solution - counts))
    coefficients = tuple(float(c) for c in solution / scale)
    return FlopModel(degrees=degrees, coefficients=coefficients,
                     residual=residual)


def power_law_fit(sizes: Sequence[float], values: Sequence[float]
                  ) -> Tuple[float, float]:
    """Fit ``value = a * n**p`` in log space; returns ``(a, p)``.

    Used by the MRD models, where per-reference reuse distances grow as
    clean power laws of the problem size.  Zero values are clamped to a
    tiny epsilon so cold references (distance 0) stay representable.
    """
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.shape != values.shape or sizes.ndim != 1:
        raise ValueError("sizes and values must be equal-length 1-D sequences")
    if len(sizes) < 2:
        raise ValueError("need at least two samples to fit")
    if np.any(sizes <= 0):
        raise ValueError("sample sizes must be positive")
    if np.any(values < 0):
        raise ValueError("values cannot be negative")
    clamped = np.maximum(values, 1e-12)
    logn = np.log(sizes)
    logv = np.log(clamped)
    p, log_a = np.polyfit(logn, logv, 1)
    return float(np.exp(log_a)), float(p)
