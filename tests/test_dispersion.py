"""Exact symbol values, parity, asymptotics, and the kernel's Fourier side."""

import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sqglab.dispersion import (
    dispersion,
    dispersion_float,
    lam_float,
    smoothing_kernel,
    smoothing_symbol,
    smoothing_symbol_float,
)


class TestExactSymbols:
    def test_reference_values(self):
        assert dispersion(3) == Fraction(8, 5)
        assert dispersion(-3) == Fraction(-8, 5)
        assert dispersion(7) == Fraction(16, 15)
        assert smoothing_symbol(3) == Fraction(8, 15)
        assert smoothing_symbol(-3) == Fraction(8, 15)

    @pytest.mark.parametrize("n", [0, 1, -1, 2, -2])
    def test_low_modes_rejected(self, n):
        with pytest.raises(ValueError):
            dispersion(n)
        with pytest.raises(ValueError):
            smoothing_symbol(n)
        with pytest.raises(ValueError):
            dispersion_float([3, n])
        with pytest.raises(ValueError):
            smoothing_symbol_float(n)

    @pytest.mark.parametrize("symbol", [dispersion, smoothing_symbol])
    @pytest.mark.parametrize("n", [3.5, -4.9, 7.0, True, float("nan")])
    def test_non_integer_modes_rejected(self, symbol, n):
        """A mode that is not an integer is named, not truncated to one."""
        with pytest.raises(ValueError, match=f"mode {re.escape(repr(n))} is not an integer"):
            symbol(n)

    def test_numpy_and_big_integer_modes(self):
        """NumPy integers pass, and so does an integer beyond float range:
        the exact symbols never convert to float."""
        assert dispersion(np.int16(7)) == Fraction(16, 15)
        assert smoothing_symbol(np.int64(-3)) == Fraction(8, 15)
        for big in (2**63 + 5, 10**400):
            assert dispersion(-big) == Fraction(-(big * big - 1), big * big - 4)
            assert smoothing_symbol(big) == Fraction(big * big - 1, big**3 - 4 * big)

    def test_lam_float_is_the_rounded_frequency(self):
        """One rounding of the exact frequency, bit for bit the vectorized
        view's, with the exact symbols' mode rules."""
        modes = [n for n in range(-4000, 4001) if abs(n) >= 3]
        assert [lam_float(n) for n in modes] == [float(dispersion(n)) for n in modes]
        assert [lam_float(n) for n in modes] == dispersion_float(modes).tolist()
        for n in (2, 3.5, True):
            with pytest.raises(ValueError):
                lam_float(n)

    def test_parity_and_product_identity(self):
        for n in range(3, 201):
            assert dispersion(-n) == -dispersion(n)
            assert smoothing_symbol(-n) == smoothing_symbol(n)
            assert dispersion(n) == n * smoothing_symbol(n)

    def test_monotone_decreasing_with_limit_one(self):
        previous = None
        for n in range(3, 500):
            lam = dispersion(n)
            assert Fraction(1) < lam <= Fraction(8, 5)
            if previous is not None:
                assert lam < previous
            previous = lam
        # 1/|n| asymptotics of the even symbol
        assert abs(10**4 * smoothing_symbol(10**4) - 1) < 1e-7

    def test_float_views_match_exact(self):
        n = np.arange(3, 50)
        exact = np.array([float(dispersion(int(k))) for k in n])
        assert np.array_equal(dispersion_float(n), exact)
        exact_s = np.array([float(smoothing_symbol(int(k))) for k in n])
        assert np.array_equal(smoothing_symbol_float(n), exact_s)


class TestKernel:
    def test_closed_form_values(self):
        assert smoothing_kernel(np.pi) == pytest.approx(-np.log(2) / (2 * np.pi), rel=1e-15)
        assert smoothing_kernel(np.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_singularity_rejected(self):
        for alpha in (0.0, 2 * np.pi, -2 * np.pi):
            with pytest.raises(ValueError):
                smoothing_kernel(alpha)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_fourier_coefficients_match_symbol(self, n):
        # (1/2pi) int k(a) cos(na) da over the period; evenness halves the range
        value, _ = quad(
            lambda a: smoothing_kernel(a) * np.cos(n * a),
            0.0,
            np.pi,
            limit=200,
        )
        coefficient = value / np.pi
        assert coefficient == pytest.approx(
            float(smoothing_symbol(n)) / (2 * np.pi), abs=1e-9
        )
