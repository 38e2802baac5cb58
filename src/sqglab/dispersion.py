"""Dispersion relation and convolution kernel of the 1D model.

The model couples a profile to itself through the periodic convolution
operator

    (Kf)(a) = integral_0^{2pi} k(a - b) f(b) db,
    k(a)    = -(1/8pi) (1 + 3 cos 2a) log(1 - cos a),

which acts diagonally on Fourier modes.  With the convention
f(a) = sum_n fhat(n) e^{ina}, the operator multiplies fhat(n) by the even
symbol

    sigma(n) = (n^2 - 1) / (|n|^3 - 4|n|),          |n| >= 3,

and the linear evolution rotates mode n at the odd frequency

    lam(n) = n * sigma(n) = sgn(n) (n^2 - 1) / (n^2 - 4).

Both symbols blow up at |n| <= 2; those modes are excluded by the mean-zero,
m-fold-symmetric class (m >= 3) this package works in, so requesting them is
a usage error, not a zero.

Rational arithmetic is primary: ``dispersion`` and ``smoothing_symbol``
return exact ``Fraction`` values of an integer mode, and reject any other
number.  ``dispersion_float``, ``smoothing_symbol_float`` and
``smoothing_kernel`` are derived, vectorized views used by the numerics;
each imports NumPy on first use, so a job that needs only the exact symbols
(``dispersion``, ``resonance``) never loads it.  ``lam_float``, one mode's
float frequency in pure Python, is the resonance search's float pre-filter.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

#: Smallest admissible mode magnitude.
MIN_MODE = 3

#: Largest ``n_max`` of the ``dispersion`` table.  At this bound the table is
#: a 9.3 MB CSV that takes about 1 s and 60 MB to build on a 2-vCPU Xeon host;
#: both grow linearly, and the frequency is within 3e-10 of its limit 1 there.
MAX_TABLE_MODE = 100_000


# The number rules of every entry point that takes numbers from outside: the
# run config (``evolve``), ``waves.continue_branch`` and the ``resonance``
# searches (``_integer``), and the modes of the exact symbols (``_whole``).
# They live in this leaf module because every other module imports it.
def _finite_real(value) -> bool:
    """True for a finite real number; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _integer(value) -> bool:
    return _finite_real(value) and isinstance(value, numbers.Integral)


def _whole(value) -> bool:
    """True for an integer of any size, the rule of the exact layer, which
    never converts to float; booleans are not numbers."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _root_floor(limit: int, k: int) -> int:
    """The largest integer r with r^k <= limit, for the size caps of
    ``forms`` and ``resonance``."""
    root = int(limit ** (1.0 / k))
    # the float root may be one off either way
    while root**k > limit:
        root -= 1
    while (root + 1) ** k <= limit:
        root += 1
    return root


def _check_mode(n: int) -> int:
    """The mode as an int; a ValueError names it unless it is an admissible
    integer (``_whole``: of any size, not a boolean)."""
    if not _whole(n):
        raise ValueError(f"mode {n!r} is not an integer")
    n = int(n)
    if abs(n) < MIN_MODE:
        raise ValueError(
            f"mode {n} is outside the admissible class: |n| >= {MIN_MODE} required"
        )
    return n


def dispersion(n: int) -> Fraction:
    """Exact oscillation frequency of mode n: sgn(n) (n^2-1)/(n^2-4).

    Odd in n, strictly decreasing for n >= 3, with limit 1 at infinity and
    maximum 8/5 at |n| = 3.  Raises ValueError for |n| <= 2 and for a
    non-integer n.
    """
    n = _check_mode(n)
    sign = 1 if n > 0 else -1
    return Fraction(sign * (n * n - 1), n * n - 4)


def smoothing_symbol(n: int) -> Fraction:
    """Exact symbol of the convolution operator: (n^2-1)/(|n|^3-4|n|).

    Even in n and equal to dispersion(n)/n.  Raises ValueError for |n| <= 2
    and for a non-integer n.
    """
    n = _check_mode(n)
    a = abs(n)
    return Fraction(n * n - 1, a * a * a - 4 * a)


def lam_float(n: int) -> float:
    """``dispersion(n)`` rounded once to a float, without NumPy: Python's
    int division rounds correctly, so for |n| < 2**26, where n*n - 1 and
    n*n - 4 are exact floats, it has the bits of ``dispersion_float``."""
    n = _check_mode(n)
    value = (n * n - 1) / (n * n - 4)
    return value if n > 0 else -value


def dispersion_float(n):
    """Float view of ``dispersion``, vectorized over integer arrays."""
    import numpy as np

    n = np.asarray(n, dtype=np.float64)
    if np.any(np.abs(n) < MIN_MODE):
        raise ValueError("dispersion_float: all modes must satisfy |n| >= 3")
    return np.sign(n) * (n * n - 1.0) / (n * n - 4.0)


def smoothing_symbol_float(n):
    """Float view of ``smoothing_symbol``, vectorized over integer arrays."""
    import numpy as np

    n = np.asarray(n, dtype=np.float64)
    if np.any(np.abs(n) < MIN_MODE):
        raise ValueError("smoothing_symbol_float: all modes must satisfy |n| >= 3")
    a = np.abs(n)
    return (n * n - 1.0) / (a * a * a - 4.0 * a)


def smoothing_kernel(alpha):
    """Closed-form convolution kernel -(1/8pi)(1 + 3 cos 2a) log(1 - cos a).

    Integrable logarithmic singularity at a = 0 (mod 2pi); evaluating there
    raises ValueError.  Its Fourier coefficients equal smoothing_symbol(n)/2pi
    for |n| >= 3, which the test suite confirms by adaptive quadrature.
    """
    import numpy as np

    alpha = np.asarray(alpha, dtype=np.float64)
    one_minus_cos = 1.0 - np.cos(alpha)
    if np.any(one_minus_cos <= 0.0):
        raise ValueError("smoothing_kernel is singular at multiples of 2*pi")
    out = -(1.0 + 3.0 * np.cos(2.0 * alpha)) * np.log(one_minus_cos) / (8.0 * np.pi)
    return out if out.ndim else float(out)
