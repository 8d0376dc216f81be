"""Tests for flop-count fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import fit_flop_model, power_law_fit


class TestFitFlopModel:
    def test_recovers_cubic_law(self):
        """The QR-style 4/3 n^3 law must be recovered from small runs."""
        sizes = [100, 200, 300, 400, 500]
        counts = [4 / 3 * n ** 3 for n in sizes]
        model = fit_flop_model(sizes, counts)
        assert model(2000) == pytest.approx(4 / 3 * 2000 ** 3, rel=1e-3)
        assert model.dominant_degree == 3

    def test_recovers_quadratic_law_with_linear_term(self):
        sizes = [50, 100, 150, 200, 300]
        counts = [5 * n ** 2 + 100 * n for n in sizes]
        model = fit_flop_model(sizes, counts)
        assert model(1000) == pytest.approx(5e6 + 1e5, rel=1e-2)

    def test_extrapolation_never_negative(self):
        """NNLS guarantees non-negative coefficients, hence counts."""
        rng = np.random.default_rng(0)
        sizes = np.arange(10, 100, 10)
        counts = 2.0 * sizes ** 2 * (1 + rng.normal(0, 0.05, len(sizes)))
        model = fit_flop_model(sizes, np.maximum(counts, 0))
        for n in (1, 5, 1000, 100000):
            assert model(n) >= 0

    def test_noisy_fit_stays_close(self):
        rng = np.random.default_rng(1)
        sizes = np.arange(100, 600, 50)
        truth = 4 / 3 * sizes.astype(float) ** 3
        noisy = truth * (1 + rng.normal(0, 0.02, len(sizes)))
        model = fit_flop_model(sizes, noisy)
        assert model(1200) == pytest.approx(4 / 3 * 1200 ** 3, rel=0.1)

    def test_mflop_conversion(self):
        model = fit_flop_model([10, 20], [1e6, 2e6], max_degree=1)
        assert model.mflop(10) == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_flop_model([10], [100.0])
        with pytest.raises(ValueError):
            fit_flop_model([10, -5], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_flop_model([10, 20], [1.0, -2.0])
        with pytest.raises(ValueError):
            fit_flop_model([10, 20], [1.0, 2.0, 3.0])

    def test_negative_eval_size_rejected(self):
        model = fit_flop_model([10, 20], [1.0, 2.0])
        with pytest.raises(ValueError):
            model(-1)

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("coef", [1.0, 3.0, 0.5, 4 / 3, 7.25])
    def test_exact_law_dominant_degree(self, coef, degree):
        """Rounding noise on a term the data lacks (a ~1e-18 n**3
        coefficient on an exact n**2 law) must not count as dominant."""
        sizes = [100, 200, 300, 400, 500]
        model = fit_flop_model(sizes, [coef * n ** degree for n in sizes])
        assert model.dominant_degree == degree
        assert model(2000) == pytest.approx(coef * 2000 ** degree, rel=1e-9)


class TestPowerLawFit:
    def test_exact_power_law(self):
        sizes = [10, 20, 40, 80]
        values = [3.0 * n ** 1.5 for n in sizes]
        a, p = power_law_fit(sizes, values)
        assert a == pytest.approx(3.0, rel=1e-6)
        assert p == pytest.approx(1.5, rel=1e-6)

    def test_constant_series(self):
        a, p = power_law_fit([10, 100, 1000], [7.0, 7.0, 7.0])
        assert a * 500 ** p == pytest.approx(7.0, rel=1e-6)

    def test_zero_values_clamped_not_crashing(self):
        a, p = power_law_fit([10, 20], [0.0, 0.0])
        assert a >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            power_law_fit([1], [1.0])
        with pytest.raises(ValueError):
            power_law_fit([1, 2], [1.0, -1.0])
        with pytest.raises(ValueError):
            power_law_fit([0, 2], [1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(
    coef=st.floats(min_value=0.1, max_value=10.0),
    degree=st.integers(min_value=0, max_value=3),
)
def test_property_pure_monomials_recovered(coef, degree):
    sizes = [20, 40, 60, 80, 100]
    counts = [coef * n ** degree for n in sizes]
    model = fit_flop_model(sizes, counts)
    for n in (10, 200, 500):
        assert model(n) == pytest.approx(coef * n ** degree,
                                         rel=1e-3, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    p=st.floats(min_value=0.0, max_value=3.0),
)
def test_property_power_law_roundtrip(a, p):
    sizes = [16, 32, 64, 128]
    values = [a * n ** p for n in sizes]
    a2, p2 = power_law_fit(sizes, values)
    assert a2 == pytest.approx(a, rel=1e-4)
    assert p2 == pytest.approx(p, abs=1e-4)
