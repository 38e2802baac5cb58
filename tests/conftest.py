"""Shared helpers: random admissible fields and mode-space brute-force oracles.

The oracles evaluate products by direct O(K^2) convolution over stored
modes, independently of the FFT path used by the package, so they can
arbitrate the pseudo-spectral results.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from sqglab import forms as fm
from sqglab import resonance as rs
from sqglab.dispersion import dispersion_float, smoothing_symbol_float
from sqglab.field import SpectralField, differentiate, smooth


def random_field(m, n_max, rng, scale=1.0, decay=0.0):
    """Random admissible field; ``decay`` damps harmonics like (1+n^2)^-decay/2."""
    harmonics = n_max // m
    coeffs = rng.normal(size=harmonics) + 1j * rng.normal(size=harmonics)
    if decay:
        n = m * np.arange(1, harmonics + 1, dtype=float)
        coeffs *= (1.0 + n * n) ** (-decay / 2.0)
    return SpectralField(m, n_max, scale * coeffs)


def all_mode_amplitudes(f):
    """{mode: amplitude} over both signs, from the stored positive modes."""
    amps = {}
    for n, c in zip(f.modes, f.coeffs):
        amps[int(n)] = complex(c)
        amps[-int(n)] = complex(np.conj(c))
    return amps


def convolve_fields(f, g):
    """Truncated pointwise product by direct convolution.

    Returns (SpectralField of the product restricted to the lattice,
    mode-0 coefficient of the full product).
    """
    fa, ga = all_mode_amplitudes(f), all_mode_amplitudes(g)
    out = {}
    zero = 0.0 + 0.0j
    for a, va in fa.items():
        for b, vb in ga.items():
            n = a + b
            if n == 0:
                zero += va * vb
            elif abs(n) <= f.n_max:
                out[n] = out.get(n, 0.0 + 0.0j) + va * vb
    coeffs = np.zeros(f.num_harmonics, dtype=np.complex128)
    for n, v in out.items():
        if n > 0:
            coeffs[n // f.m - 1] = v
    return SpectralField(f.m, f.n_max, coeffs), zero


def brute_nonlinearity(f):
    """Direct mode-space convolution of 2 (Kf) f' - f (Kf)'.

    Returns (field, mode-0 coefficient) computed without any FFT.
    """
    ku = smooth(f)
    du = differentiate(f)
    kdu = differentiate(ku)
    term1, zero1 = convolve_fields(ku, du)
    term2, zero2 = convolve_fields(f, kdu)
    return (
        SpectralField(f.m, f.n_max, 2.0 * term1.coeffs - term2.coeffs),
        2.0 * zero1 - zero2,
    )


def assert_same_bits(a, b):
    """a and b hold the same bytes: dtype, shape, and every bit of every value.

    Unlike ``np.array_equal`` this tells -0.0 from +0.0 and compares NaNs by
    their bits.
    """
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape, (a.shape, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_values(a, b):
    """``assert_same_bits``, except that a NaN component need only be NaN on
    both sides: its sign and payload depend on which NumPy loop made it.

    Every other component, infinities and the sign of zero included, keeps
    its bits.
    """
    a, b = np.array(a, order="C"), np.array(b, order="C")
    assert a.dtype == b.dtype, (a.dtype, b.dtype)
    assert a.shape == b.shape, (a.shape, b.shape)
    parts_a, parts_b = a.view(np.float64), b.view(np.float64)
    nan = np.isnan(parts_a)
    assert np.array_equal(nan, np.isnan(parts_b))
    parts_a[nan] = parts_b[nan] = np.nan
    assert a.tobytes() == b.tobytes()


def fft_full_product_spectrum(op, coeffs):
    """``_QuadraticTerm.full_product_spectrum`` through the ``np.fft``
    wrappers, with fresh temporaries at every operation."""
    spectra = np.zeros(coeffs.shape[:-1] + (4, op.grid // 2 + 1), dtype=np.complex128)
    smoothed = coeffs * op.sigma
    spectra[..., 0, op.stored] = coeffs
    spectra[..., 1, op.stored] = smoothed
    spectra[..., 2, op.stored] = coeffs * op.deriv
    spectra[..., 3, op.stored] = smoothed * op.deriv
    spectra *= op.grid
    samples = np.fft.irfft(spectra, n=op.grid, axis=-1)
    base, smoothed, derived, smoothed_derived = np.swapaxes(samples, 0, -2)
    product = 2.0 * smoothed * derived - base * smoothed_derived
    spectrum = np.fft.rfft(product, axis=-1)
    spectrum /= op.grid
    return spectrum


def rk4_step(coeffs, dt, half_phase, op):
    """One integrating-factor RK4 step as a fresh array, from the stored modes
    of ``fft_full_product_spectrum`` (``op`` None steps the linear flow)."""
    if op is None:
        return half_phase * half_phase * coeffs

    def quad(state):
        return fft_full_product_spectrum(op, state)[..., op.stored]

    k1 = quad(coeffs)
    mid = half_phase * (coeffs + (0.5 * dt) * k1)
    k2 = quad(mid) / half_phase
    mid2 = half_phase * coeffs + (0.5 * dt) * half_phase * k2
    k3 = quad(mid2) / half_phase
    end = half_phase * half_phase * (coeffs + dt * k3)
    k4 = quad(end) / (half_phase * half_phase)
    return half_phase * half_phase * (
        coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    )


#: Values that ``coefficient_array`` writes over some parts.
SPECIAL_PARTS = st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), max_size=3)


def coefficient_array(shape, seed, specials):
    """Complex array of ``shape`` with magnitudes from 1e-6 to 1e2 by row;
    each value of ``specials`` (+0, -0, inf or NaN) overwrites a fifth of the
    parts."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs *= 10.0 ** rng.uniform(-6, 2, size=shape[:-1] + (1,))
    parts = coeffs.view(np.float64)
    for value in specials:
        parts[rng.random(size=parts.shape) < 0.2] = value
    return coeffs


def make_form(m, n_max, p, multiplier):
    """A symmetrized form from a vectorized multiplier, which receives the
    (count, p) array of mode values and returns the per-tuple values."""
    space = fm.tuple_space(m, n_max, p)
    values = np.asarray(multiplier(space.mode_values), dtype=np.complex128)
    return fm.symmetrize(fm.MultilinearForm(space, values))


def reduction_product(space, amp):
    """Per-row product of the amplitudes as a reduction over a row-major gather.

    ``space.idx`` is column-major, and so would be a gather through it; the
    reduction over that layout rounds differently.
    """
    return amp[np.ascontiguousarray(space.idx)].prod(axis=1)


def whole_table_evaluate(form, fields):
    """``evaluate`` with every row's term multiplied out: the value, then each
    slot's amplitudes in order, over the whole table, and one sum."""
    prod = form.values.copy()
    for j, f in enumerate(fields):
        prod *= fm._mode_amplitudes(f, form.space)[form.space.idx[:, j]]
    return complex(prod.sum())


def whole_table_extension(form):
    """``nonlinearity_extension`` as one pass over the whole output table.

    The row-major merge of every ordered slot pair, a dense lookup over all
    size^p index tuples and full-length temporaries: the construction the
    row-block build must reproduce bit for bit.
    """
    src = fm.symmetrize(form)
    space = src.space
    out_space = fm.tuple_space(space.m, space.n_max, space.p + 1)
    size = space.modes.shape[0]
    dense = np.zeros(size**space.p, dtype=np.complex128)
    dense[np.ravel_multi_index(space.idx.T, (size,) * space.p)] = src.values
    q = out_space.p
    mv = out_space.mode_values
    idx = out_space.idx
    advection = np.zeros(out_space.count, dtype=np.complex128)
    stretching = np.zeros(out_space.count, dtype=np.complex128)
    for k in range(q):
        for l in range(q):
            if l == k:
                continue
            merged = mv[:, k] + mv[:, l]
            mi = space.index_of_mode(merged)
            valid = mi >= 0
            flat = np.where(valid, mi, 0).astype(np.int64)
            for j in range(q):
                if j == k or j == l:
                    continue
                flat = flat * size + idx[:, j]
            vals = dense[flat]
            vals[~valid] = 0.0
            nk, nl = mv[:, k].astype(np.float64), mv[:, l]
            advection += vals * (1j * nk * smoothing_symbol_float(nl))
            stretching += vals * (1j * dispersion_float(nl))
    values = (advection / q) * 2.0 - stretching / q
    return fm.MultilinearForm(out_space, values, symmetric=True)


def whole_table_orbits(space):
    """The orbit table from the int64 sort of the full (count, p) index table."""
    _, first, inverse, counts = np.unique(
        space.ravel_keys(np.sort(space.idx.astype(np.int64), axis=1)),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    reps = space.modes[np.ascontiguousarray(space.idx)][first]
    return fm.Orbits(
        inverse,
        counts,
        np.array([float(rs.lambda_sum(row)) for row in reps]),
    )


def l2_pairing(f, g):
    """integral of f*g over the circle: 2 pi sum fhat(n) ghat(-n)."""
    return 2.0 * np.pi * 2.0 * np.real(np.sum(f.coeffs * np.conj(g.coeffs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
