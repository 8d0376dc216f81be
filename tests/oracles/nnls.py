"""scipy reference for the in-tree NNLS solver behind ``fit_flop_model``.

:func:`repro.perfmodel.flops.nnls` is a small numpy solver (least
squares on every column subset) that replaced ``scipy.optimize.nnls``.
:func:`reference_fit_flop_model` is the earlier scipy-backed
``fit_flop_model`` body, so the differential tests can compare the two
fits' predictions and residuals.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from repro.perfmodel import FlopModel

__all__ = ["reference_fit_flop_model", "reference_nnls"]


def reference_nnls(A: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """scipy's Lawson--Hanson NNLS: ``(x, ||A x - b||)``."""
    x, residual = scipy_nnls(A, b)
    return x, float(residual)


def reference_fit_flop_model(sizes: Sequence[float], counts: Sequence[float],
                             max_degree: int = 3) -> FlopModel:
    """The scipy-backed flop fit (same scaled monomial basis)."""
    sizes = np.asarray(sizes, dtype=float)
    counts = np.asarray(counts, dtype=float)
    degrees = tuple(range(max_degree + 1))
    basis = np.stack([sizes ** d for d in degrees], axis=1)
    scale = np.linalg.norm(basis, axis=0)
    scale[scale == 0] = 1.0
    solution, residual = reference_nnls(basis / scale, counts)
    return FlopModel(degrees=degrees,
                     coefficients=tuple(float(c) for c in solution / scale),
                     residual=residual)
