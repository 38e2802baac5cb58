"""Truncated spectra of admissible profiles and the operators acting on them.

An admissible profile is a real, mean-zero, 2pi-periodic function invariant
under rotation by 2pi/m with m >= 3.  Its spectrum is supported on nonzero
multiples of m, so modes |n| <= 2 are absent automatically.  A
``SpectralField`` stores the Galerkin truncation to |n| <= n_max, keeping
only positive modes; reality fixes the negative ones by conjugation.

The quadratic term of the evolution,

    N(f) = 2 (Kf) f' - f (Kf)',

is evaluated pseudo-spectrally on a grid large enough that the products are
alias-free, then truncated back to |n| <= n_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dispersion import _finite_real, smoothing_symbol_float


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Coefficients of a real, mean-zero, m-fold symmetric truncated profile.

    ``coeffs[k-1]`` is the complex amplitude of mode k*m for k = 1..n_max/m;
    the amplitude of mode -k*m is the conjugate.  Instances are immutable
    value types and safe to share between threads.
    """

    m: int
    n_max: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"symmetry order m={self.m}: need m >= 3")
        if self.n_max < self.m or self.n_max % self.m != 0:
            raise ValueError(
                f"truncation n_max={self.n_max} must be a positive multiple of m={self.m}"
            )
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.n_max // self.m,):
            raise ValueError(
                f"expected {self.n_max // self.m} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, m: int, n_max: int) -> "SpectralField":
        return cls(m, n_max, np.zeros(n_max // m, dtype=np.complex128))

    @classmethod
    def from_modes(cls, m: int, n_max: int, modes: Mapping[int, complex]) -> "SpectralField":
        """Build a field from a mode -> amplitude map.

        Only nonzero multiples of m with |n| <= n_max are accepted.  Negative
        modes may be given redundantly but must match the conjugate of the
        positive entry.
        """
        coeffs = np.zeros(n_max // m, dtype=np.complex128)
        for n, value in modes.items():
            n = int(n)
            if n == 0 or n % m != 0 or abs(n) > n_max:
                raise ValueError(
                    f"mode {n} not admissible for m={m}, n_max={n_max}"
                )
            if n > 0:
                coeffs[n // m - 1] += complex(value)
        for n, value in modes.items():
            if n < 0:
                stored = coeffs[-n // m - 1]
                if not np.isclose(stored, np.conj(value), rtol=1e-12, atol=1e-300):
                    raise ValueError(
                        f"mode {n}: value {value} violates reality against mode {-n}"
                    )
        return cls(m, n_max, coeffs)

    @property
    def num_harmonics(self) -> int:
        return self.n_max // self.m

    @property
    def modes(self) -> np.ndarray:
        """Positive stored modes m, 2m, ..., n_max."""
        return self.m * np.arange(1, self.num_harmonics + 1)

    def coeff(self, n: int) -> complex:
        """Amplitude of mode n; zero off the symmetry lattice or beyond n_max."""
        n = int(n)
        if n == 0 or n % self.m != 0 or abs(n) > self.n_max:
            return 0.0 + 0.0j
        k = abs(n) // self.m - 1
        return complex(self.coeffs[k]) if n > 0 else complex(np.conj(self.coeffs[k]))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.m, self.n_max, coeffs)

    def to_dict(self) -> dict:
        """JSON-ready form: positive modes only, exact doubles."""
        return {
            "m": self.m,
            "n_max": self.n_max,
            "modes": [
                [int(n), float(c.real), float(c.imag)]
                for n, c in zip(self.modes, self.coeffs)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralField":
        """Inverse of ``to_dict``: ``m``, ``n_max`` and each mode must be
        JSON integers, so that no value is rounded to one; each mode appears
        once, and its parts are finite numbers."""
        m, n_max = data["m"], data["n_max"]
        if type(m) is not int or type(n_max) is not int:
            raise ValueError(f"m={m!r} and n_max={n_max!r} must be integers")
        field = cls.zero(m, n_max)
        coeffs = np.zeros_like(field.coeffs)
        seen = set()
        for n, re, im in data["modes"]:
            if type(n) is not int or n <= 0 or n % field.m != 0 or n > field.n_max:
                raise ValueError(f"serialized mode {n!r} not admissible")
            if n in seen:
                raise ValueError(f"serialized mode {n} appears twice")
            if not (_finite_real(re) and _finite_real(im)):
                raise ValueError(f"serialized mode {n}: each part must be a finite number")
            seen.add(n)
            coeffs[n // field.m - 1] = complex(re, im)
        return cls(field.m, field.n_max, coeffs)


def smooth(f: SpectralField) -> SpectralField:
    """Apply the convolution operator: multiply mode n by its even symbol."""
    return f.with_coeffs(f.coeffs * smoothing_symbol_float(f.modes))


def differentiate(f: SpectralField) -> SpectralField:
    """d/d alpha: multiply mode n by i*n."""
    return f.with_coeffs(f.coeffs * (1j * f.modes))


def reflect(f: SpectralField) -> SpectralField:
    """Spatial reflection alpha -> -alpha (conjugate coefficients)."""
    return f.with_coeffs(np.conj(f.coeffs))


def sobolev_weight(modes, s: float) -> np.ndarray:
    """(1 + n^2)^s for each mode n, the H^s weight."""
    n = np.asarray(modes, dtype=np.float64)
    return (1.0 + n * n) ** s


def _hs_norms(coeffs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The H^s norm of each row of stored coefficients (the last axis),
    counting both mode signs, from the ``sobolev_weight`` of the stored
    modes.  A row reduces as a lone state of the same length does."""
    return np.sqrt(2.0 * np.sum(weights * np.abs(coeffs) ** 2, axis=-1))


def hs_norm(f: SpectralField, s: float) -> float:
    """Sobolev norm sqrt(sum_n (1+n^2)^s |fhat(n)|^2) over both mode signs."""
    if s < 0:
        raise ValueError("Sobolev index s must be >= 0")
    return float(_hs_norms(f.coeffs, sobolev_weight(f.modes, s)))


def sobolev_energy(f: SpectralField, s: float) -> float:
    """The quadratic energy functional: half the squared H^s norm."""
    return 0.5 * hs_norm(f, s) ** 2


def min_grid_size(n_max: int) -> int:
    """Smallest grid resolving modes |n| <= n_max without collision."""
    return 2 * n_max + 1


def next_smooth(n: int) -> int:
    """Smallest integer >= n whose only prime factors are 2, 3 and 5.

    These are the sizes pocketfft transforms fastest; for n >= 1 the result
    equals ``scipy.fft.next_fast_len(n, real=True)``.
    """
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:  # part runs over 5^a * 3^b below the best so far
            quotient = -(-n // part)
            best = min(best, part << (quotient - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _dealias_grid_size(n_max: int) -> int:
    # Quadratic products carry modes up to 2*n_max; a grid of >= 3*n_max + 1
    # points keeps every alias image of those modes outside |n| <= n_max, so
    # the truncated product is exact.
    return next_smooth(3 * n_max + 1)


def _half_spectrum(f: SpectralField, grid_size: int) -> np.ndarray:
    """Spectrum on rfft layout (modes 0..grid_size//2), our normalization."""
    half = np.zeros(grid_size // 2 + 1, dtype=np.complex128)
    half[f.modes] = f.coeffs
    return half


def synthesize(f: SpectralField, grid_size: int) -> np.ndarray:
    """Point values at alpha_j = 2 pi j / grid_size, j = 0..grid_size-1."""
    if grid_size < min_grid_size(f.n_max):
        raise ValueError(
            f"grid_size {grid_size} aliases modes up to {f.n_max}; "
            f"need at least {min_grid_size(f.n_max)}"
        )
    return np.fft.irfft(_half_spectrum(f, grid_size) * grid_size, n=grid_size)


def analyze(samples: np.ndarray, m: int, n_max: int, tol: float = 1e-10) -> SpectralField:
    """Recover a SpectralField from equispaced point values.

    Raises ValueError if the grid is too small for n_max or if the samples
    carry energy off the admissible lattice (mean, low modes, non-multiples
    of m) above ``tol`` relative to the largest coefficient.
    """
    samples = np.asarray(samples, dtype=np.float64)
    grid_size = samples.shape[0]
    if grid_size < min_grid_size(n_max):
        raise ValueError(
            f"{grid_size} samples alias modes up to {n_max}; "
            f"need at least {min_grid_size(n_max)}"
        )
    half = np.fft.rfft(samples) / grid_size
    modes = m * np.arange(1, n_max // m + 1)
    coeffs = half[modes].copy()
    off = half.copy()
    off[modes] = 0.0
    scale = max(np.max(np.abs(coeffs)), 1e-300)
    worst = np.argmax(np.abs(off))
    if np.abs(off[worst]) > tol * scale:
        raise ValueError(
            f"samples are not m={m}-fold symmetric / mean-zero within truncation: "
            f"mode {worst} carries {np.abs(off[worst]):.3e} (tol {tol:.1e} relative)"
        )
    return SpectralField(m, n_max, coeffs)


class _QuadraticTerm:
    """Pseudo-spectral evaluator of 2 (Kf) f' - f (Kf)' for fixed (m, n_max).

    Precomputes the dealiased grid and the diagonal symbols, and binds
    pocketfft's real-transform gufuncs with the factors ``np.fft.irfft`` and
    ``np.fft.rfft`` pass them (1/grid and 1), so each transform is the call
    ``np.fft`` makes, without its wrapper.  ``numpy.fft`` is imported here
    rather than with the module, so jobs that build no quadratic term
    (``resonance``, ``waves``) never load it.

    ``product_spectrum`` writes the spectrum of the product into buffers the
    caller owns (``_ProductBuffers``): the RK4 stepper in ``evolve`` keeps one set per
    batch shape and reuses it at every stage.  ``full_product_spectrum`` and
    ``__call__`` make fresh buffers on each call, so an instance holds no
    mutable state and is safe to share between threads.  Each method takes a
    batch of shape (..., K) and treats each row independently, bit for bit
    as a call on that row alone.
    """

    def __init__(self, m: int, n_max: int):
        from numpy.fft import _pocketfft_umath as pocketfft

        self.grid = _dealias_grid_size(n_max)
        # the stored modes m, 2m, ..., n_max as a slice of the rfft layout
        self.stored = slice(m, n_max + 1, m)
        modes = m * np.arange(1, n_max // m + 1)
        # complex, as the product with a complex array casts it anyway
        self.sigma = smoothing_symbol_float(modes).astype(np.complex128)
        self.deriv = 1j * modes
        self._irfft = pocketfft.irfft
        self._inverse_grid = np.reciprocal(float(self.grid))
        self._rfft = pocketfft.rfft_n_odd if self.grid % 2 else pocketfft.rfft_n_even

    def product_spectrum(self, coeffs: np.ndarray, buffers: "_ProductBuffers") -> np.ndarray:
        """grid times the rfft-layout spectrum of the quadratic term before
        truncation, written into ``buffers.spectrum`` and returned.

        Rewrites only the stored slots of ``buffers.spectra``; the others
        stay zero from the buffers' creation.
        """
        base, smoothed, derived, smoothed_derived = buffers.slots
        np.copyto(base, coeffs)
        np.multiply(coeffs, self.sigma, out=smoothed)
        np.multiply(coeffs, self.deriv, out=derived)
        np.multiply(smoothed, self.deriv, out=smoothed_derived)
        # in place: times a real factor, FMA cannot change the rounding
        np.multiply(buffers.stored, self.grid, out=buffers.stored)
        self._irfft(buffers.spectra, self._inverse_grid, out=buffers.samples)
        base, smoothed, derived, smoothed_derived = buffers.columns
        product = np.multiply(2.0, smoothed, out=buffers.product)
        np.multiply(product, derived, out=product)
        np.multiply(base, smoothed_derived, out=buffers.scratch)
        np.subtract(product, buffers.scratch, out=product)
        return self._rfft(product, 1, out=buffers.spectrum)

    def full_product_spectrum(self, coeffs: np.ndarray) -> np.ndarray:
        """rfft-layout spectrum of the quadratic term before truncation."""
        spectrum = self.product_spectrum(coeffs, _ProductBuffers(self, coeffs.shape))
        spectrum /= self.grid
        return spectrum

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        return self.full_product_spectrum(coeffs)[..., self.stored]


class _ProductBuffers:
    """The arrays ``_QuadraticTerm.product_spectrum`` writes, for batches of
    one shape (..., K): the four zero-padded spectra (coefficients, smoothed,
    derived, smoothed and derived), their samples, the product and its
    spectrum, with views of the stored slots and of the sample columns."""

    def __init__(self, op: _QuadraticTerm, shape: tuple):
        lead = tuple(shape[:-1])
        half = op.grid // 2 + 1
        self.spectra = np.zeros(lead + (4, half), dtype=np.complex128)
        self.stored = self.spectra[..., op.stored]
        self.slots = tuple(np.moveaxis(self.stored, -2, 0))
        self.samples = np.empty(lead + (4, op.grid))
        self.columns = tuple(np.moveaxis(self.samples, -2, 0))
        self.product = np.empty(lead + (op.grid,))
        self.scratch = np.empty(lead + (op.grid,))
        self.spectrum = np.empty(lead + (half,), dtype=np.complex128)


def nonlinearity(f: SpectralField) -> SpectralField:
    """Truncation to |n| <= n_max of 2 (Kf) f' - f (Kf)'.

    Products of m-fold symmetric functions stay m-fold symmetric, so the
    output lives on the same lattice; its mean mode vanishes identically
    because the convolution symbol is even.
    """
    return f.with_coeffs(_QuadraticTerm(f.m, f.n_max)(f.coeffs))


def mean_drift(f: SpectralField, spectrum: np.ndarray | None = None) -> float:
    """|mode-0 coefficient| of the dealiased quadratic term at state f.

    The instantaneous drift of the mean.  Identically zero in exact
    arithmetic (even symbol); the float value measures round-off.
    ``spectrum`` is f's ``full_product_spectrum`` when the caller has it.
    """
    if spectrum is None:
        spectrum = _QuadraticTerm(f.m, f.n_max).full_product_spectrum(f.coeffs)
    return float(np.abs(spectrum[0]))


def symmetry_residual(f: SpectralField) -> float:
    """Largest stored amplitude off the m-fold lattice.

    The representation populates only nonzero multiples of m, so this is
    structurally zero; it is scanned anyway so a corrupted state (NaN or a
    widened lattice) cannot pass silently.
    """
    if not np.all(np.isfinite(f.coeffs.view(np.float64))):
        return float("inf")
    full = np.zeros(f.n_max + 1, dtype=np.complex128)
    full[f.modes] = f.coeffs
    off = np.ones(f.n_max + 1, dtype=bool)
    off[f.modes] = False
    return float(np.max(np.abs(full[off])))
