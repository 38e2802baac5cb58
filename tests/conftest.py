"""Shared helpers: random admissible fields and mode-space brute-force oracles.

The oracles evaluate products by direct O(K^2) convolution over stored
modes, independently of the FFT path used by the package, so they can
arbitrate the pseudo-spectral results.
"""

import numpy as np
import pytest

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


def reduction_product(space, amp):
    """Per-row product of the amplitudes as a reduction over a row-major gather.

    ``space.idx`` is column-major, and so would be a gather through it; the
    reduction over that layout rounds differently.
    """
    return amp[np.ascontiguousarray(space.idx)].prod(axis=1)


def l2_pairing(f, g):
    """integral of f*g over the circle: 2 pi sum fhat(n) ghat(-n)."""
    return 2.0 * np.pi * 2.0 * np.real(np.sum(f.coeffs * np.conj(g.coeffs)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
