"""Spectral field invariants, operators, and the dealiased quadratic term."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqglab

from conftest import (
    SPECIAL_PARTS,
    assert_same_values,
    brute_nonlinearity,
    coefficient_array,
    fft_full_product_spectrum,
    l2_pairing,
    random_field,
)
from sqglab.field import (
    SpectralField,
    _QuadraticTerm,
    analyze,
    differentiate,
    hs_norm,
    mean_drift,
    next_smooth,
    nonlinearity,
    reflect,
    smooth,
    sobolev_energy,
    symmetry_residual,
    synthesize,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralField(2, 8, np.zeros(4, complex))
        with pytest.raises(ValueError):
            SpectralField(3, 25, np.zeros(8, complex))
        with pytest.raises(ValueError):
            SpectralField(3, 12, np.zeros(3, complex))
        # a float lattice would write a state that ``from_dict`` refuses
        with pytest.raises(ValueError, match="^m: "):
            SpectralField(3.0, 12, np.zeros(4, complex))
        with pytest.raises(ValueError, match="^n_max: "):
            SpectralField(3, 12.0, np.zeros(4, complex))
        # the constructors that size the table from the lattice ask first
        with pytest.raises(ValueError, match="^m: "):
            SpectralField.from_modes(3.0, 12, {3: 1.0})
        with pytest.raises(ValueError, match="^m: "):
            SpectralField.zero(0, 12)

    def test_from_modes_rejects_off_lattice(self):
        for bad in (0, 2, 4, 27, -4):
            with pytest.raises(ValueError):
                SpectralField.from_modes(3, 24, {bad: 1.0})

    def test_from_modes_reality(self):
        f = SpectralField.from_modes(3, 12, {3: 1 + 2j, -3: 1 - 2j})
        assert f.coeff(3) == 1 + 2j
        assert f.coeff(-3) == 1 - 2j
        with pytest.raises(ValueError):
            SpectralField.from_modes(3, 12, {3: 1 + 2j, -3: 1 + 2j})

    def test_coeff_lookup(self):
        f = SpectralField.from_modes(3, 12, {6: 0.5j})
        assert f.coeff(6) == 0.5j
        assert f.coeff(-6) == -0.5j
        assert f.coeff(3) == 0
        assert f.coeff(5) == 0  # off lattice
        assert f.coeff(0) == 0
        assert f.coeff(15) == 0  # beyond truncation

    @pytest.mark.parametrize("modes", [
        {3.9: 0.5},
        {3: 0.5, -3.5: 0.5},  # the reality check reads the negative key
        {True: 0.5},
        {6.0: 0.5},
    ])
    def test_from_modes_rejects_non_integer_modes(self, modes):
        bad = next(n for n in modes if type(n) is not int)
        with pytest.raises(ValueError, match=f"mode {bad!r} is not an integer"):
            SpectralField.from_modes(3, 12, modes)

    def test_coeff_of_non_integer_mode_is_zero(self):
        f = SpectralField.from_modes(3, 12, {3: 0.5, 6: 0.25})
        for n in (3.7, 3.0, -6.5, True):
            assert f.coeff(n) == 0
        assert f.coeff(np.int64(-6)) == 0.25

    def test_immutable(self):
        f = SpectralField.zero(3, 12)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        f = random_field(3, 24, rng)
        data = json.loads(json.dumps(f.to_dict()))
        g = SpectralField.from_dict(data)
        assert np.array_equal(f.coeffs, g.coeffs)
        assert (g.m, g.n_max) == (f.m, f.n_max)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(3, 7),
        parts=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=16).filter(lambda xs: len(xs) % 2 == 0),
    )
    def test_round_trip_exact_property(self, m, parts):
        coeffs = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        f = SpectralField(m, m * coeffs.shape[0], coeffs)
        g = SpectralField.from_dict(json.loads(json.dumps(f.to_dict())))
        assert (g.m, g.n_max) == (f.m, f.n_max)
        assert g.coeffs.tobytes() == f.coeffs.tobytes()  # signed zeros too

    def test_only_positive_modes_stored(self):
        f = SpectralField.from_modes(5, 20, {10: 1 - 1j})
        stored = [entry[0] for entry in f.to_dict()["modes"]]
        assert stored == [5, 10, 15, 20]

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            SpectralField.from_dict({"m": 3, "n_max": 12, "modes": [[4, 1.0, 0.0]]})

    @pytest.mark.parametrize("m,n_max", [(3.7, 12), (3.0, 12), (3, float("inf")), (3, True)])
    def test_rejects_non_integer_lattice(self, m, n_max):
        with pytest.raises(ValueError, match="must be integers"):
            SpectralField.from_dict({"m": m, "n_max": n_max, "modes": []})


class TestLinearOperators:
    def test_smoothing_on_pure_cosine(self):
        f = SpectralField.from_modes(3, 24, {3: 0.5})  # cos(3a)
        g = smooth(f)
        assert g.coeff(3) == pytest.approx(0.5 * 8 / 15, rel=1e-15)

    def test_smoothing_zero_field(self):
        z = SpectralField.zero(3, 12)
        assert np.all(smooth(z).coeffs == 0)
        assert np.all(differentiate(z).coeffs == 0)

    def test_derivative_of_trig(self):
        cos3 = SpectralField.from_modes(3, 12, {3: 0.5})
        dcos3 = differentiate(cos3)
        # -3 sin(3a) has coefficient -3 * (-i/2) = 1.5i at n = 3
        assert dcos3.coeff(3) == pytest.approx(1.5j, rel=1e-15)
        sin6 = SpectralField.from_modes(3, 12, {6: -0.5j})
        dsin6 = differentiate(sin6)  # 6 cos(6a)
        assert dsin6.coeff(6) == pytest.approx(3.0, rel=1e-15)

    def test_smooth_then_derivative_is_dispersion(self):
        from sqglab.dispersion import dispersion_float

        for m in (3, 4, 7):
            f = SpectralField.from_modes(m, 4 * m, {m: 0.5})
            g = differentiate(smooth(f))
            # -lam(m) sin(m a) has coefficient i lam(m)/2 at n = m
            expected = 0.5j * dispersion_float(m)
            assert g.coeff(m) == pytest.approx(complex(expected), rel=1e-15)

    def test_operators_commute(self, rng):
        f = random_field(3, 24, rng)
        a = smooth(differentiate(f))
        b = differentiate(smooth(f))
        assert np.allclose(a.coeffs, b.coeffs, rtol=1e-15)

    def test_antiselfadjoint(self, rng):
        for _ in range(10):
            f = random_field(3, 24, rng)
            assert abs(l2_pairing(differentiate(smooth(f)), f)) <= 1e-12 * l2_pairing(f, f)

    def test_reflect_is_involution(self, rng):
        f = random_field(3, 24, rng)
        assert np.array_equal(reflect(reflect(f)).coeffs, f.coeffs)


class TestNorms:
    def test_documented_normalization(self):
        cos3 = SpectralField.from_modes(3, 12, {3: 0.5})
        assert hs_norm(cos3, 0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
        assert hs_norm(cos3, 1) == pytest.approx(np.sqrt(5.0), rel=1e-15)
        assert hs_norm(SpectralField.zero(3, 12), 2.5) == 0.0
        assert sobolev_energy(cos3, 0) == pytest.approx(0.25, rel=1e-15)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            hs_norm(SpectralField.zero(3, 12), -1.0)

    @pytest.mark.parametrize("s", [np.nan, np.inf, True, -1.0])
    @pytest.mark.parametrize("norm", [hs_norm, sobolev_energy])
    def test_bad_index_rejected_by_name(self, norm, s):
        # nan read nan, and True the s = 1 norm
        with pytest.raises(ValueError, match="^s: must be a finite number >= 0$"):
            norm(SpectralField.from_modes(3, 12, {3: 1.0}), s)


class TestSampling:
    def test_pure_cosine_on_grid(self):
        alpha = 2 * np.pi * np.arange(64) / 64
        f = analyze(np.cos(3 * alpha), 3, 24)
        assert f.coeff(3) == pytest.approx(0.5, abs=1e-14)
        assert np.max(np.abs(f.coeffs[2:])) < 1e-14

    def test_round_trip_identity(self, rng):
        f = random_field(3, 24, rng)
        g = analyze(synthesize(f, 49), 3, 24)
        assert np.allclose(g.coeffs, f.coeffs, rtol=1e-13)

    def test_grid_too_small(self, rng):
        f = random_field(3, 24, rng)
        with pytest.raises(ValueError):
            synthesize(f, 48)
        with pytest.raises(ValueError):
            analyze(np.zeros(48), 3, 24)

    def test_symmetry_violation_detected(self):
        alpha = 2 * np.pi * np.arange(64) / 64
        with pytest.raises(ValueError):
            analyze(np.cos(4 * alpha), 3, 24)
        with pytest.raises(ValueError):
            analyze(1.0 + np.cos(3 * alpha), 3, 24)  # nonzero mean


class TestGridSize:
    def test_next_smooth_matches_scipy(self):
        sizes = [next_smooth(n) for n in range(1, 20001)]
        expected = [scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)]
        assert sizes == expected

    def test_cli_import_loads_no_scipy(self):
        # SciPy is a test-only dependency: the runtime must never import it
        src = str(Path(sqglab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, sqglab.cli; "
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout.strip() == "[]"


class TestQuadraticTerm:
    def test_zero_field(self):
        z = SpectralField.zero(3, 24)
        assert np.all(nonlinearity(z).coeffs == 0)

    def test_single_mode_by_hand(self):
        eps = 0.2
        f = SpectralField.from_modes(3, 24, {3: eps / 2})
        out = nonlinearity(f)
        oracle, _ = brute_nonlinearity(f)
        assert out.coeff(6) == pytest.approx(oracle.coeff(6), rel=1e-14)
        # the only populated mode is 6 (two mode-3 lines interacting)
        assert abs(oracle.coeff(3)) == 0
        assert np.allclose(out.coeffs, oracle.coeffs, atol=1e-17)

    @pytest.mark.parametrize("m,n_max", [(3, 12), (3, 24), (4, 24), (5, 20)])
    def test_matches_convolution_oracle(self, m, n_max, rng):
        for _ in range(5):
            f = random_field(m, n_max, rng, scale=0.3)
            fast = nonlinearity(f)
            slow, _ = brute_nonlinearity(f)
            scale = np.max(np.abs(slow.coeffs))
            assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-12 * scale

    def test_even_profile_gives_odd_output(self, rng):
        # real cosine input -> purely imaginary coefficients (sine output)
        coeffs = rng.normal(size=8).astype(complex)
        f = SpectralField(3, 24, coeffs)
        out = nonlinearity(f)
        assert np.max(np.abs(out.coeffs.real)) < 1e-14 * np.max(np.abs(out.coeffs))

    def test_mean_identity(self, rng):
        for _ in range(10):
            f = random_field(3, 24, rng, scale=0.5)
            _, zero_mode = brute_nonlinearity(f)
            assert abs(zero_mode) <= 1e-13
            assert mean_drift(f) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(3, 7),
        harmonics=st.integers(1, 13).filter(lambda k: k % 4),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_rows_match_single_calls(self, m, harmonics, batch, seed):
        op = _QuadraticTerm(m, m * harmonics)
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(batch, harmonics)) + 1j * rng.normal(size=(batch, harmonics))
        coeffs *= 10.0 ** rng.uniform(-6, 2, size=(batch, 1))
        term, spectrum = op(coeffs), op.full_product_spectrum(coeffs)
        assert term.shape == coeffs.shape
        for r, row in enumerate(coeffs):
            assert term[r].tobytes() == op(row).tobytes()
            assert spectrum[r].tobytes() == op.full_product_spectrum(row).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(3, 7),
        harmonics=st.integers(1, 13),
        batch=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
        specials=SPECIAL_PARTS,
    )
    @example(m=3, harmonics=1, batch=0, seed=0, specials=[])
    @example(m=3, harmonics=8, batch=3, seed=0, specials=[-0.0, np.nan])
    def test_spectrum_matches_fft_oracle(self, m, harmonics, batch, seed, specials):
        """The gufunc kernel computes what the ``np.fft`` wrappers compute, on
        bare rows (batch 0) and batches, at even grids (10 at n_max 3) and odd
        ones (75 at n_max 24)."""
        op = _QuadraticTerm(m, m * harmonics)
        shape = (harmonics,) if batch == 0 else (batch, harmonics)
        coeffs = coefficient_array(shape, seed, specials)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = fft_full_product_spectrum(op, coeffs)
            assert_same_values(op.full_product_spectrum(coeffs), expected)
            assert_same_values(op(coeffs), expected[..., op.stored])

    def test_symmetry_residual_structurally_zero(self, rng):
        f = random_field(3, 24, rng)
        assert symmetry_residual(f) == 0.0

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_symmetry_residual_of_non_finite_state_is_inf(self, rng, part):
        coeffs = random_field(3, 24, rng).coeffs.copy()
        getattr(coeffs, part)[2] = np.nan
        assert symmetry_residual(SpectralField(3, 24, coeffs)) == np.inf
