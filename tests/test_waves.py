"""Travelling-wave residual, Newton continuation, and branch diagnostics."""

import re
import warnings

import numpy as np
import pytest

from conftest import assert_same_bits
from sqglab import evolve as ev
from sqglab import waves as wv
from sqglab.field import SpectralField


class TestProducts:
    def test_sin_cos_product_against_grid(self, rng):
        k = 9
        a, b = rng.normal(size=k), rng.normal(size=k)
        product = wv._sin_cos_product(a, b)
        t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        f = sum(a[j - 1] * np.sin(j * t) for j in range(1, k + 1))
        g = sum(b[j - 1] * np.cos(j * t) for j in range(1, k + 1))
        for l in range(1, k + 1):
            coefficient = 2.0 * np.mean(f * g * np.sin(l * t))
            assert product[l - 1] == pytest.approx(coefficient, abs=1e-12)


class TestResidual:
    def test_zero_solution(self):
        for v in (-1.0, 0.0, 0.533):
            assert np.all(wv.residual(np.zeros(12), v, 3) == 0.0)

    def test_linearization_vanishes_at_bifurcation_point(self):
        m = 3
        v = float(wv.bifurcation_speed(m))
        for xi, expect_order in ((1e-3, None), (1e-4, None)):
            c = np.zeros(10)
            c[0] = xi
            r = np.linalg.norm(wv.residual(c, v, m))
            if expect_order is None:
                assert r < 10 * xi**2
        # quadratic smallness: residual drops ~100x when xi drops 10x
        c1, c2 = np.zeros(10), np.zeros(10)
        c1[0], c2[0] = 1e-3, 1e-4
        ratio = np.linalg.norm(wv.residual(c1, v, m)) / np.linalg.norm(
            wv.residual(c2, v, m)
        )
        assert ratio == pytest.approx(100.0, rel=0.05)

    def test_even_components_structurally_absent(self, rng):
        # the sine-sector representation carries no cosine components at all;
        # cross-check parity on the grid: residual samples are odd in alpha
        c = 0.05 * rng.normal(size=8)
        c[0] = 0.05
        r = wv.residual(c, 0.5, 3)
        t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        samples = sum(r[k - 1] * np.sin(3 * k * t) for k in range(1, 9))
        assert np.allclose(samples, -samples[::-1][np.r_[-1, 0:511]], atol=1e-14)


def jacobian_by_columns(cos_coeffs, speed, m):
    """The u-Jacobian of ``residual`` built from ``jacobian_apply``, one column each."""
    k = cos_coeffs.shape[0]
    jac = np.empty((k, k))
    for col in range(k):
        basis = np.zeros(k)
        basis[col] = 1.0
        jac[:, col] = wv.jacobian_apply(cos_coeffs, speed, m, basis)
    return jac


class TestJacobian:
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 16, 64])
    def test_matrix_equals_column_build(self, m, k, rng):
        for _ in range(3):
            c = 10.0 ** rng.uniform(-3, 0) * rng.normal(size=k)
            v = rng.normal()
            assert_same_bits(wv.jacobian_matrix(c, v, m), jacobian_by_columns(c, v, m))
        zero = np.zeros(k)
        v_m = float(wv.bifurcation_speed(m))
        assert_same_bits(
            wv.jacobian_matrix(zero, v_m, m), jacobian_by_columns(zero, v_m, m)
        )

    def test_matches_finite_differences(self, rng):
        m, k = 3, 12
        c = 0.05 * rng.normal(size=k)
        c[0] = 0.05
        w = rng.normal(size=k)
        h = 1e-7
        fd = (wv.residual(c + h * w, 0.51, m) - wv.residual(c - h * w, 0.51, m)) / (
            2 * h
        )
        assert np.max(np.abs(fd - wv.jacobian_apply(c, 0.51, m, w))) < 1e-6

    def test_linear_in_direction(self, rng):
        c = 0.1 * rng.normal(size=8)
        w1, w2 = rng.normal(size=8), rng.normal(size=8)
        lhs = wv.jacobian_apply(c, 0.5, 3, w1 + 2.5 * w2)
        rhs = wv.jacobian_apply(c, 0.5, 3, w1) + 2.5 * wv.jacobian_apply(c, 0.5, 3, w2)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-16)

    def test_kernel_is_one_dimensional_at_bifurcation(self):
        m, k = 3, 16
        v_m = float(wv.bifurcation_speed(m))
        jac = jacobian_by_columns(np.zeros(k), v_m, m)
        assert np.array_equal(wv.jacobian_matrix(np.zeros(k), v_m, m), jac)
        singular_values = np.linalg.svd(jac, compute_uv=False)
        assert singular_values[-1] == pytest.approx(0.0, abs=1e-14)
        assert singular_values[-2] > 1.0


class TestNewton:
    def test_trivial_branch_at_zero(self):
        point = wv.newton_solve(3, 0.0)
        assert point.speed == float(wv.bifurcation_speed(3))
        assert np.all(point.cosine_coeffs == 0.0)

    def test_small_amplitude_speed(self):
        point = wv.newton_solve(3, 1e-3)
        assert point.residual_norm <= 1e-11
        assert point.cosine_coeffs[0] == 1e-3
        assert abs(point.speed - 8 / 15) < 1e-4

    def test_failure_signals_cleanly(self):
        with pytest.raises(wv.NewtonError):
            wv.newton_solve(3, 0.4, max_iter=1)

    @pytest.mark.parametrize("xi,iterations", [(0.3, 4), (0.05, 3)])
    def test_converges_on_the_last_allowed_pass(self, xi, iterations, monkeypatch):
        # the residual is checked once more after the last iteration
        with pytest.raises(wv.NewtonError, match=f"^no convergence at xi={xi:g}"):
            wv.newton_solve(3, xi, max_iter=iterations - 1)
        free = wv.newton_solve(3, xi)
        jacobian, calls = wv.jacobian_matrix, []

        def counted_jacobian(*args):
            calls.append(args)
            return jacobian(*args)

        monkeypatch.setattr(wv, "jacobian_matrix", counted_jacobian)
        point = wv.newton_solve(3, xi, max_iter=iterations)
        assert len(calls) == iterations
        assert point.residual_norm <= 1e-12
        assert point.speed == free.speed
        assert_same_bits(point.cosine_coeffs, free.cosine_coeffs)

    @pytest.mark.parametrize(
        "args,kwargs,field",
        [
            ((2, 0.1), {}, "m"),
            ((3.0, 0.1), {}, "m"),
            ((3, 0.1), {"num_harmonics": 0}, "num_harmonics"),
            ((3, 0.1), {"num_harmonics": 3}, "num_harmonics"),
            ((3, 0.1), {"num_harmonics": 2.5}, "num_harmonics"),
            ((3, 0.1), {"num_harmonics": wv.MAX_HARMONICS + 1}, "num_harmonics"),
            ((3, np.inf), {}, "xi"),
            ((3, np.nan), {}, "xi"),
            ((3, "0.1"), {}, "xi"),
            ((3, True), {}, "xi"),
            ((3, 0.1), {"max_iter": -1}, "max_iter"),
            ((3, 0.1), {"max_iter": 2.5}, "max_iter"),
            ((3, 0.1), {"tol": np.nan}, "tol"),
            ((3, 0.1), {"tol": np.inf}, "tol"),
            ((3, 0.1), {"tol": -1.0}, "tol"),
            ((3, 0.1), {"tol": "1e-12"}, "tol"),
            ((3, 0.1), {"guess_speed": np.inf}, "guess_speed"),
            ((3, 0.1), {"guess_speed": np.nan}, "guess_speed"),
            ((3, 0.1), {"guess_speed": True}, "guess_speed"),
            ((3, 0.1), {"guess_coeffs": [0.1, np.nan]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": [0.1, np.inf]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": [[0.1, 0.0]]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": [0.1, [0.0]]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": ["0.1", "0.0"]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": [True, False]}, "guess_coeffs"),
            ((3, 0.1), {"guess_coeffs": 0.1}, "guess_coeffs"),
        ],
    )
    def test_bad_arguments_are_named_before_any_residual(
        self, args, kwargs, field, monkeypatch
    ):
        def no_residual(*args):
            raise AssertionError("a residual was computed")

        monkeypatch.setattr(wv, "residual", no_residual)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field}: must be "):
                wv.newton_solve(*args, **kwargs)

    def test_backtracking_halves_and_converges(self, monkeypatch):
        # a speed guess far below the branch overshoots the full Newton step
        speed = wv.newton_solve(3, 0.3).speed
        residual, jacobian = wv.residual, wv.jacobian_matrix
        calls = {"residual": 0, "jacobian": 0}

        def counted_residual(*args):
            calls["residual"] += 1
            return residual(*args)

        def counted_jacobian(*args):
            calls["jacobian"] += 1
            return jacobian(*args)

        monkeypatch.setattr(wv, "residual", counted_residual)
        monkeypatch.setattr(wv, "jacobian_matrix", counted_jacobian)
        point = wv.newton_solve(3, 0.3, guess_speed=0.3)
        # one residual for the start and one per full step; the rest are halvings
        assert calls["residual"] - 1 - calls["jacobian"] >= 1
        assert point.residual_norm <= 1e-12
        assert point.speed == pytest.approx(speed, rel=1e-10)

    def test_backtracking_stall_signals_cleanly(self):
        # no trial step lowers a residual at round-off, so tol 0 stalls
        with pytest.raises(wv.NewtonError, match="^backtracking stalled at xi=0.05$"):
            wv.newton_solve(3, 0.05, tol=0.0)

    def test_negative_amplitude_is_half_period_translate(self):
        # u(-xi) equals u(xi) shifted by half a symmetry period:
        # cosine coefficients flip sign on odd harmonics, speed is unchanged
        plus = wv.newton_solve(3, 0.05)
        minus = wv.newton_solve(3, -0.05)
        assert minus.speed == pytest.approx(plus.speed, rel=1e-12)
        signs = (-1.0) ** np.arange(1, plus.num_harmonics + 1)
        assert np.allclose(minus.cosine_coeffs, signs * plus.cosine_coeffs, atol=1e-12)


class TestBranch:
    def test_continuation_and_speed_limit(self):
        branch = wv.continue_branch(3, 0.15, 30)
        assert len(branch.points) == 30
        assert all(p.residual_norm <= 1e-11 for p in branch.points)
        assert all(p.cosine_coeffs[0] == p.xi for p in branch.points)
        speeds = np.array([p.speed for p in branch.points])
        xis = np.array([p.xi for p in branch.points])
        v_m = float(wv.bifurcation_speed(3))
        # v(0+) -> v_m and |v - v_m| = O(xi^2): log-log slope near 2
        assert abs(speeds[0] - v_m) < 1e-4
        slope = np.polyfit(np.log(xis[:10]), np.log(np.abs(speeds[:10] - v_m)), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)
        # speeds vary continuously along the branch
        assert np.max(np.abs(np.diff(speeds))) < 5e-3

    def test_truncation_refinement(self):
        v_coarse = wv.newton_solve(3, 0.03, num_harmonics=21).speed
        v_fine = wv.newton_solve(3, 0.03, num_harmonics=42).speed
        assert abs(v_coarse - v_fine) < 1e-10

    def test_closed_form_jacobian_leaves_branch_unchanged(self, monkeypatch):
        fast = wv.continue_branch(3, 0.12, 24, num_harmonics=32)
        monkeypatch.setattr(wv, "jacobian_matrix", jacobian_by_columns)
        slow = wv.continue_branch(3, 0.12, 24, num_harmonics=32)
        assert len(fast.points) == len(slow.points) == 24
        for a, b in zip(fast.points, slow.points):
            assert (a.xi, a.speed, a.residual_norm) == (b.xi, b.speed, b.residual_norm)
            assert np.array_equal(a.cosine_coeffs, b.cosine_coeffs)

    @pytest.mark.parametrize(
        "args,kwargs,field",
        [
            ((3, 0.1, 2.5), {}, "steps"),
            ((3, "0.1", 2), {}, "xi_max"),
            ((3, True, 2), {}, "xi_max"),
            ((3, 0.1, 2), {"num_harmonics": 2.5}, "num_harmonics"),
            ((3, 0.1, 2), {"max_iter": -1}, "max_iter"),
            ((3, 0.1, 2), {"tol": np.nan}, "tol"),
            ((3, 0.1, 2), {"tol": -1.0}, "tol"),
        ],
    )
    def test_arguments_follow_run_config_number_rules(self, args, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            wv.continue_branch(*args, **kwargs)

    def test_partial_branch_on_failure(self):
        branch = wv.continue_branch(3, 0.2, 10, max_iter=1)
        assert branch.provenance["terminated_early"]
        assert len(branch.points) < 10

    def test_stops_at_first_unresolved_point(self):
        # at 21 harmonics the m=3 branch is resolved up to xi = 0.34 only
        branch = wv.continue_branch(3, 1.0, 50)
        assert len(branch.points) == 17
        assert all(p.tail_ratio <= wv.MAX_TAIL_RATIO for p in branch.points)
        assert branch.provenance["terminated_early"]
        assert re.fullmatch(
            r"unresolved at xi=0\.36: tail ratio 1\.\d{3}e-08 exceeds 1e-08",
            branch.provenance["termination"],
        )

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_criterion_8_branches_resolved(self, m):
        branch = wv.continue_branch(m, 0.12, 24)
        assert len(branch.points) == 24
        assert not branch.provenance["terminated_early"]

    def test_tail_ratio(self):
        coeffs = np.array([-0.5, 0.25, 1e-3, -4e-3, 2e-3])
        assert wv.WavePoint(3, -0.5, 0.5, coeffs, 0.0).tail_ratio == 8e-3

    def test_json_round_trip(self):
        branch = wv.continue_branch(4, 0.05, 3)
        clone = wv.WaveBranch.from_dict(branch.to_dict())
        assert clone.m == branch.m
        for a, b in zip(clone.points, branch.points):
            assert np.array_equal(a.cosine_coeffs, b.cosine_coeffs)
            assert a.speed == b.speed


class TestDecayRate:
    def test_synthetic_geometric_decay(self):
        coeffs = np.exp(-3.0 * np.arange(1, 9))
        point = wv.WavePoint(3, coeffs[0], 0.5, coeffs, 0.0)
        assert wv.decay_rate(point) == pytest.approx(1.0, abs=1e-10)

    def test_computed_wave_has_positive_rate(self):
        point = wv.newton_solve(3, 0.05)
        assert wv.decay_rate(point) > 0.0

    def test_insufficient_modes_rejected(self):
        point = wv.WavePoint(3, 1e-20, 0.5, np.full(8, 1e-20), 0.0)
        with pytest.raises(ValueError):
            wv.decay_rate(point)

    def test_rates_resolved_along_branch(self):
        # the amplitude trend of the rate is reported, not asserted; here we
        # only require every branch point to yield a finite positive rate
        branch = wv.continue_branch(3, 0.15, 15)
        rates = [wv.decay_rate(p) for p in branch.points[4:]]
        assert all(np.isfinite(r) and r > 0 for r in rates)


class TestRigidTranslation:
    @pytest.mark.parametrize("m", [3, 4])
    def test_wave_translates_under_full_solver(self, m):
        point = wv.newton_solve(m, 0.05)
        n_max = point.num_harmonics * m
        f0 = SpectralField(m, n_max, point.cosine_coeffs.astype(complex) / 2.0)
        tau, dt = 2.0, 0.01
        advanced = ev.integrate(f0, dt, int(round(tau / dt)))
        shifted = f0.coeffs * np.exp(-1j * f0.modes * point.speed * tau)
        tolerance = 100.0 * dt**4 + 10.0 * point.residual_norm
        assert np.max(np.abs(advanced.coeffs - shifted)) <= tolerance
