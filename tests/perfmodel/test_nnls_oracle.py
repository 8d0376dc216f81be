"""NNLS differential: the numpy subset-search solver against scipy.

Predictions (at the sample sizes and extrapolated beyond them) and
residuals must agree to relative 1e-6.  Both get an absolute floor of
1e-9 of the data: ``fit_flop_model`` zeroes terms that small as
rounding noise, and exact fits leave residuals at rounding level.
"""

import numpy as np
import pytest

from repro.perfmodel import fit_flop_model
from repro.perfmodel.flops import nnls
from tests.oracles.nnls import reference_fit_flop_model, reference_nnls


def random_fit_case(rng):
    """A degree <= 3 flop law with some terms absent, sampled noisily."""
    degree = int(rng.integers(0, 4))
    n_samples = int(rng.integers(degree + 2, 10))
    sizes = np.sort(rng.uniform(1.0, 1000.0, n_samples))
    coef = rng.uniform(0.0, 10.0, degree + 1) \
        * (rng.random(degree + 1) < 0.7)
    law = sum(c * sizes ** d for d, c in enumerate(coef))
    noise = rng.normal(0.0, 0.05, n_samples) * (rng.random() < 0.8)
    return sizes, np.maximum(law * (1.0 + noise), 0.0), degree


@pytest.mark.parametrize("seed", range(4))
def test_flop_fits_match_scipy(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        sizes, counts, degree = random_fit_case(rng)
        model = fit_flop_model(sizes, counts, max_degree=degree)
        reference = reference_fit_flop_model(sizes, counts, max_degree=degree)
        top = sizes.max()
        for n in (*sizes, 2 * top, 10 * top, 100 * top):
            assert model(n) == pytest.approx(
                reference(n), rel=1e-6, abs=1e-9 * counts.max())
        assert model.residual == pytest.approx(
            reference.residual, rel=1e-6,
            abs=1e-9 * np.linalg.norm(counts))


@pytest.mark.parametrize("seed", range(4))
def test_dense_problems_match_scipy(seed):
    """Well-posed random problems (m > n) with active constraints."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(int(rng.integers(n + 1, 15)), n))
        b = rng.normal(size=A.shape[0]) * 10.0
        x, residual = nnls(A, b)
        ref_x, ref_residual = reference_nnls(A, b)
        assert np.all(x >= 0)
        np.testing.assert_allclose(A @ x, A @ ref_x, rtol=1e-6,
                                   atol=1e-9 * np.linalg.norm(b))
        assert residual == pytest.approx(ref_residual, rel=1e-6)


def test_all_negative_target_gives_zero():
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x, residual = nnls(A, np.array([-1.0, -1.0, -1.0]))
    assert list(x) == [0.0, 0.0]
    assert residual == pytest.approx(np.sqrt(3.0))
