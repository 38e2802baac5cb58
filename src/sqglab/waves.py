"""Travelling waves by Newton continuation from the linear bifurcation point.

A profile translating rigidly at speed v solves

    -(Ku)' + v u' + 2 u' (Ku) - u (Ku)' = 0.

Linearizing at u = 0 shows cos(m a) is a neutral direction exactly at
v = lam(m)/m, the bifurcation speed of the m-fold branch.  We work in the
even (cosine) sector, which quotients out translations: u is a real cosine
series on harmonics of m, the residual is then a pure sine series, and its
even part vanishes identically.  The branch is parameterized by the
amplitude xi of the fundamental (pinned), marching xi away from zero with
the previous point as predictor and a damped Newton corrector.  The march
stops at the first point whose coefficient tail the truncation does not
resolve (``MAX_TAIL_RATIO``).

All products are short real convolutions of cosine/sine series truncated to
the working harmonics, i.e. exact Galerkin (alias-free) arithmetic.  The
Newton Jacobian is assembled in closed form (``jacobian_matrix``): in each
slot the Jacobian of a sine-cosine product is a Toeplitz plus a Hankel
matrix in the other factor's coefficients.  ``jacobian_apply`` is the
matrix-free directional derivative it reproduces column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dispersion import (
    _finite_real,
    _integer,
    dispersion,
    dispersion_float,
    smoothing_symbol_float,
)


#: Most harmonics ``continue_branch`` accepts.  Each Newton iteration
#: assembles the dense K x K Jacobian (8 MiB at this bound) from about a dozen
#: K x K index and gather arrays and solves it in O(K^3): one solve at this
#: bound peaks near 90 MB above the module's import and takes about 0.6 s on a
#: 2-vCPU Xeon host; doubling K quadruples the memory and octuples the solve.
MAX_HARMONICS = 1024

#: Largest tail ratio (the largest of the last three |cosine coefficients|
#: over the largest one) of a point ``continue_branch`` keeps.  Past it the
#: truncation no longer resolves the wave, however small the residual.
MAX_TAIL_RATIO = 1e-8

#: |cosine coefficients| at or below this are left out of ``decay_rate``'s fit.
NOISE_FLOOR = 1e-14


class NewtonError(RuntimeError):
    """Newton failed to converge; signals clean branch termination."""


def bifurcation_speed(m: int) -> Fraction:
    """Exact speed lam(m)/m at which the m-fold branch leaves u = 0."""
    return dispersion(m) / m


@dataclass(frozen=True)
class WavePoint:
    """One converged travelling wave.

    ``cosine_coeffs[k-1]`` is the coefficient of cos(k m a); the first one
    equals the amplitude parameter xi by construction.
    """

    m: int
    xi: float
    speed: float
    cosine_coeffs: np.ndarray
    residual_norm: float

    def __post_init__(self):
        coeffs = np.asarray(self.cosine_coeffs, dtype=np.float64).copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "cosine_coeffs", coeffs)

    @property
    def num_harmonics(self) -> int:
        return self.cosine_coeffs.shape[0]

    @property
    def tail_ratio(self) -> float:
        """Largest of the last three |cosine coefficients| over the largest."""
        amps = np.abs(self.cosine_coeffs)
        return float(amps[-3:].max() / amps.max())

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "xi": float(self.xi),
            "speed": float(self.speed),
            "cosine_coeffs": [float(c) for c in self.cosine_coeffs],
            "residual_norm": float(self.residual_norm),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WavePoint":
        return cls(
            m=int(data["m"]),
            xi=float(data["xi"]),
            speed=float(data["speed"]),
            cosine_coeffs=np.array(data["cosine_coeffs"], dtype=np.float64),
            residual_norm=float(data["residual_norm"]),
        )


@dataclass
class WaveBranch:
    """Continuation branch, points ordered by increasing xi."""

    m: int
    num_harmonics: int
    points: list
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "num_harmonics": self.num_harmonics,
            "points": [p.to_dict() for p in self.points],
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WaveBranch":
        return cls(
            m=int(data["m"]),
            num_harmonics=int(data["num_harmonics"]),
            points=[WavePoint.from_dict(p) for p in data["points"]],
            provenance=dict(data["provenance"]),
        )


def _pair_grids(k: int):
    j = np.arange(1, k + 1)
    return j[:, None], j[None, :]


def _sin_cos_product(sin_coeffs: np.ndarray, cos_coeffs: np.ndarray) -> np.ndarray:
    """Sine coefficients of (sum a_j sin j t)(sum b_k cos k t), truncated.

    sin(jt) cos(kt) = (sin((j+k)t) + sin((j-k)t)) / 2; harmonics beyond the
    working truncation are dropped (Galerkin projection), which is alias-free
    by construction.
    """
    k = sin_coeffs.shape[0]
    jj, kk = _pair_grids(k)
    weights = 0.5 * sin_coeffs[:, None] * cos_coeffs[None, :]
    out = np.zeros(k + 1)
    total = (jj + kk).ravel()
    keep = total <= k
    np.add.at(out, total[keep], weights.ravel()[keep])
    diff = (jj - kk).ravel()
    signed = np.where(diff >= 0, weights.ravel(), -weights.ravel())
    np.add.at(out, np.abs(diff).ravel(), signed)
    return out[1:]


def _symbols(cos_coeffs: np.ndarray, m: int) -> tuple:
    """u, its modes, lam and sigma there, then u', K u and (K u)'.

    u and K u are cosine series; u' and (K u)' are sine series.
    """
    u = np.asarray(cos_coeffs, dtype=np.float64)
    modes = m * np.arange(1, u.shape[0] + 1)
    freq = dispersion_float(modes)
    sig = smoothing_symbol_float(modes)
    return u, modes, freq, sig, -modes * u, sig * u, -freq * u


def residual(cos_coeffs: np.ndarray, speed: float, m: int) -> np.ndarray:
    """Sine coefficients of -(Ku)' + v u' + 2 u' (Ku) - u (Ku)'.

    The even (cosine) components vanish identically: both quadratic terms
    are odd*even products and the linear part differentiates an even
    function, so only sine modes are ever populated.
    """
    u, modes, freq, _, du, ku, kdu = _symbols(cos_coeffs, m)
    linear = freq * u - speed * modes * u
    return linear + 2.0 * _sin_cos_product(du, ku) - _sin_cos_product(kdu, u)


def jacobian_apply(
    cos_coeffs: np.ndarray, speed: float, m: int, w: np.ndarray
) -> np.ndarray:
    """Directional derivative of ``residual`` in u along the cosine series w."""
    u, modes, freq, _, du, ku, kdu = _symbols(cos_coeffs, m)
    w, _, _, _, dw, kw, kdw = _symbols(w, m)
    linear = freq * w - speed * modes * w
    return (
        linear
        + 2.0 * _sin_cos_product(dw, ku)
        + 2.0 * _sin_cos_product(du, kw)
        - _sin_cos_product(kdu, w)
        - _sin_cos_product(kdw, u)
    )


def _shift_indices(k: int) -> tuple:
    """Where v[n-c], v[c-n] and v[n+c] sit in a zero-padded v, for n, c = 1..k.

    Rows are the output harmonic n, columns the perturbed harmonic c; the
    padding (index 0 and k+1..2k) supplies the zeros off harmonics 1..k.
    """
    n = np.arange(1, k + 1)[:, None]
    c = n.T
    return np.maximum(n - c, 0), np.maximum(c - n, 0), n + c


def _shifted_gathers(v: np.ndarray, shifts: tuple):
    """v[n-c], v[c-n] and v[n+c] at the indices of ``_shift_indices``."""
    k = v.shape[0]
    padded = np.zeros(2 * k + 1)
    padded[1 : k + 1] = v
    return tuple(padded[index] for index in shifts)


def _sin_factor_jacobian(
    sin_scale: np.ndarray, cos_coeffs: np.ndarray, shifts: tuple
) -> np.ndarray:
    """Jacobian of ``_sin_cos_product(a, b)`` in a, where a_c = sin_scale[c] * w_c.

    Column c is ``_sin_cos_product(sin_scale * e_c, cos_coeffs)``: output n
    gets h*b_{n-c} + h*b_{c-n} - h*b_{c+n} with h = 0.5*sin_scale[c].
    """
    half = 0.5 * sin_scale
    toeplitz, hankel_low, hankel_high = _shifted_gathers(cos_coeffs, shifts)
    return half * toeplitz + half * hankel_low - half * hankel_high


def _cos_factor_jacobian(
    sin_coeffs: np.ndarray, cos_scale: np.ndarray, shifts: tuple
) -> np.ndarray:
    """Jacobian of ``_sin_cos_product(a, b)`` in b, where b_c = cos_scale[c] * w_c.

    Column c is ``_sin_cos_product(sin_coeffs, cos_scale * e_c)``: output n
    gets h_{n-c}*s - h_{c-n}*s + h_{n+c}*s with h = 0.5*a and s = cos_scale[c].
    """
    toeplitz, hankel_low, hankel_high = _shifted_gathers(0.5 * sin_coeffs, shifts)
    return toeplitz * cos_scale - hankel_low * cos_scale + hankel_high * cos_scale


def jacobian_matrix(cos_coeffs: np.ndarray, speed: float, m: int) -> np.ndarray:
    """The k x k u-Jacobian of ``residual``, assembled in closed form.

    Column c equals ``jacobian_apply(cos_coeffs, speed, m, e_c)`` bit for
    bit: with one factor a basis vector, every entry of a sine-cosine product
    has at most two nonzero terms, whose IEEE sum does not depend on order.
    Each term keeps the product order (0.5*a_j)*b_k, and the five parts
    combine left to right as in ``jacobian_apply``.
    """
    u, modes, freq, sig, du, ku, kdu = _symbols(cos_coeffs, m)
    shifts = _shift_indices(u.shape[0])
    linear = np.diag(freq - speed * modes)
    return (
        linear
        + 2.0 * _sin_factor_jacobian(-modes, ku, shifts)
        + 2.0 * _cos_factor_jacobian(du, sig, shifts)
        - _cos_factor_jacobian(kdu, np.ones(u.shape[0]), shifts)
        - _sin_factor_jacobian(-freq, u, shifts)
    )


def speed_derivative(cos_coeffs: np.ndarray, m: int) -> np.ndarray:
    """Derivative of ``residual`` in the speed: the sine series of u'."""
    cos_coeffs = np.asarray(cos_coeffs, dtype=np.float64)
    modes = m * np.arange(1, cos_coeffs.shape[0] + 1)
    return -modes * cos_coeffs


def default_harmonics(m: int) -> int:
    return max(8, 64 // m)


def _solver_problems(m, num_harmonics, tol, max_iter) -> list:
    """The rules on the arguments that ``newton_solve`` and
    ``continue_branch`` share, each broken one as ``"<argument>: <rule>"``."""
    problems = []
    if not (_integer(m) and m >= 3):
        problems.append("m: must be an integer >= 3")
    # below four harmonics the tail of three holds the fundamental, so the
    # resolution gate would pass no point
    if num_harmonics is not None and not (
        _integer(num_harmonics) and 4 <= num_harmonics <= MAX_HARMONICS
    ):
        problems.append(f"num_harmonics: must be an integer from 4 to {MAX_HARMONICS}")
    if not (_finite_real(tol) and tol >= 0):
        problems.append("tol: must be a finite number >= 0")
    if not (_integer(max_iter) and max_iter >= 0):
        problems.append("max_iter: must be an integer >= 0")
    return problems


def _finite_vector(values) -> bool:
    """True for a 1-D array (or sequence) of finite reals; booleans are not
    numbers."""
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged sequence
        return False
    return (values.ndim == 1 and values.dtype.kind in "iuf"
            and bool(np.isfinite(values).all()))


def newton_solve(
    m: int,
    xi: float,
    guess_coeffs: np.ndarray | None = None,
    guess_speed: float | None = None,
    num_harmonics: int | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> WavePoint:
    """Solve for the wave with pinned fundamental amplitude xi.

    Unknowns are the higher cosine coefficients and the speed; equations are
    the sine components of the residual.  The Jacobian is columns 2..k of
    ``jacobian_matrix`` (the fundamental is pinned) followed by
    ``speed_derivative``.  Full Newton steps with backtracking halving when
    the residual norm fails to decrease.  Raises NewtonError after
    ``max_iter`` iterations without reaching ``tol``, and ValueError naming
    each bad argument before any residual is computed.
    """
    problems = _solver_problems(m, num_harmonics, tol, max_iter)
    if not _finite_real(xi):
        problems.append("xi: must be a finite number")
    if guess_speed is not None and not _finite_real(guess_speed):
        problems.append("guess_speed: must be a finite number")
    if guess_coeffs is not None and not _finite_vector(guess_coeffs):
        problems.append("guess_coeffs: must be a 1-D array of finite reals")
    if problems:
        raise ValueError("; ".join(problems))
    if num_harmonics is None:
        num_harmonics = default_harmonics(m)
    k = num_harmonics
    if xi == 0.0:
        return WavePoint(
            m=m,
            xi=0.0,
            speed=float(bifurcation_speed(m)),
            cosine_coeffs=np.zeros(k),
            residual_norm=0.0,
        )
    coeffs = np.zeros(k)
    coeffs[0] = xi
    if guess_coeffs is not None:
        guess_coeffs = np.asarray(guess_coeffs, dtype=np.float64)
        coeffs[1 : min(k, guess_coeffs.shape[0])] = guess_coeffs[
            1 : min(k, guess_coeffs.shape[0])
        ]
    speed = float(bifurcation_speed(m)) if guess_speed is None else float(guess_speed)

    res = residual(coeffs, speed, m)
    res_norm = float(np.linalg.norm(res))
    for iteration in range(max_iter + 1):
        if res_norm <= tol:
            return WavePoint(
                m=m, xi=xi, speed=speed, cosine_coeffs=coeffs, residual_norm=res_norm
            )
        if iteration == max_iter:
            break
        jac = np.column_stack(
            (jacobian_matrix(coeffs, speed, m)[:, 1:], speed_derivative(coeffs, m))
        )
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian at xi={xi:g}") from exc

        scale = 1.0
        while scale >= 1.0 / 1024.0:
            trial = coeffs.copy()
            trial[1:] += scale * delta[:-1]
            trial_speed = speed + scale * delta[-1]
            trial_res = residual(trial, trial_speed, m)
            trial_norm = float(np.linalg.norm(trial_res))
            if trial_norm < res_norm:
                break
            scale *= 0.5
        else:
            raise NewtonError(f"backtracking stalled at xi={xi:g}")
        coeffs, speed, res, res_norm = trial, trial_speed, trial_res, trial_norm
    raise NewtonError(f"no convergence at xi={xi:g}: residual {res_norm:.3e}")


def continue_branch(
    m: int,
    xi_max: float,
    steps: int,
    num_harmonics: int | None = None,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> WaveBranch:
    """March xi from xi_max/steps to xi_max; stop cleanly where the branch
    can no longer be followed.

    The previous point (with the fundamental re-pinned) predicts the next.
    The march stops, keeping the points before, when Newton fails or when a
    converged point's ``tail_ratio`` exceeds MAX_TAIL_RATIO: the truncation
    no longer resolves it, so it is not appended.  A partial branch is a
    valid result; its provenance sets ``terminated_early`` and says in
    ``termination`` where and why it stopped.  Raises ValueError naming each
    bad argument, ``num_harmonics`` above MAX_HARMONICS included.
    """
    problems = _solver_problems(m, num_harmonics, tol, max_iter)
    if not (_finite_real(xi_max) and xi_max > 0):
        problems.append("xi_max: must be a finite number > 0")
    if not (_integer(steps) and steps >= 1):
        problems.append("steps: must be an integer >= 1")
    if problems:
        raise ValueError("; ".join(problems))
    if num_harmonics is None:
        num_harmonics = default_harmonics(m)
    provenance = {
        "tol": tol,
        "max_iter": max_iter,
        "xi_max": xi_max,
        "steps": steps,
        "terminated_early": False,
    }
    points: list[WavePoint] = []
    prev_coeffs = None
    prev_speed = None
    for i in range(1, steps + 1):
        xi = xi_max * i / steps
        try:
            point = newton_solve(
                m,
                xi,
                guess_coeffs=prev_coeffs,
                guess_speed=prev_speed,
                num_harmonics=num_harmonics,
                tol=tol,
                max_iter=max_iter,
            )
        except NewtonError as exc:
            provenance["terminated_early"] = True
            provenance["termination"] = str(exc)
            break
        tail = point.tail_ratio
        if tail > MAX_TAIL_RATIO:
            provenance["terminated_early"] = True
            provenance["termination"] = (
                f"unresolved at xi={xi:g}: tail ratio {tail:.3e} exceeds {MAX_TAIL_RATIO:g}"
            )
            break
        points.append(point)
        prev_coeffs = point.cosine_coeffs
        prev_speed = point.speed
    return WaveBranch(
        m=m, num_harmonics=num_harmonics, points=points, provenance=provenance
    )


def decay_rate(point: WavePoint) -> float:
    """Least-squares exponential decay rate of the cosine coefficients.

    Fits -log|a_k| against the mode k*m over coefficients above NOISE_FLOOR;
    the slope estimates the width of the strip of analyticity.
    Raises ValueError when fewer than four coefficients are resolved.
    """
    amps = np.abs(point.cosine_coeffs)
    modes = point.m * np.arange(1, point.num_harmonics + 1)
    resolved = amps > NOISE_FLOOR
    if np.count_nonzero(resolved) < 4:
        raise ValueError(
            f"only {np.count_nonzero(resolved)} coefficients above the noise "
            f"floor {NOISE_FLOOR:g}; need at least 4"
        )
    slope = np.polyfit(modes[resolved], -np.log(amps[resolved]), 1)[0]
    return float(slope)
