"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
even on success).  Budgets are asserted as hard limits; the heavy searches
and the scaling experiment are the slow items, several minutes in total.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_field
from sqglab import evolve as ev
from sqglab import forms as fm
from sqglab import resonance as rs
from sqglab import waves as wv
from sqglab.dispersion import dispersion, dispersion_float, smoothing_kernel, smoothing_symbol
from sqglab.field import SpectralField, differentiate, smooth


def report(ident, label, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {ident} {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, f"{ident} {label}: {detail}"
    assert elapsed < budget, f"{ident} exceeded budget: {elapsed:.1f}s >= {budget}s"


def test_criterion_1_dispersion_exactness():
    started = time.perf_counter()
    ok = True
    previous = None
    for n in range(3, 10**4 + 1):
        lam = dispersion(n)
        sig = smoothing_symbol(n)
        ok = ok and lam == Fraction(n * n - 1, n * n - 4)
        ok = ok and dispersion(-n) == -lam
        ok = ok and smoothing_symbol(-n) == sig
        ok = ok and lam == n * sig
        ok = ok and Fraction(1) < lam <= Fraction(8, 5)
        ok = ok and (previous is None or lam < previous)
        if not ok:
            break
        previous = lam
    report(
        "C1",
        "dispersion exactness",
        ok,
        "exact rationals, parity and product identity for 3 <= |n| <= 10^4",
        time.perf_counter() - started,
        budget=1.0,
    )


def test_criterion_2_kernel_multiplier_consistency():
    from scipy.integrate import quad

    started = time.perf_counter()
    worst = 0.0
    for n in range(3, 13):
        value, _ = quad(
            lambda a: smoothing_kernel(a) * np.cos(n * a), 0.0, np.pi, limit=200
        )
        quadrature = value / np.pi
        closed_form = float(smoothing_symbol(n)) / (2 * np.pi)
        worst = max(worst, abs(quadrature - closed_form))
    report(
        "C2",
        "kernel-multiplier consistency",
        worst <= 1e-6,
        f"max quadrature mismatch {worst:.2e} over n = 3..12 (tol 1e-6)",
        time.perf_counter() - started,
        budget=10.0,
    )


def test_criterion_3_resonance_bounds():
    started = time.perf_counter()
    p3 = rs.min_denominator(3, 200)
    ok3 = p3.min_value >= Fraction(2, 5) and not p3.exact_zero_tuples
    p5 = rs.min_denominator(5, 30)
    ok5 = p5.min_value >= Fraction(9, 35) and not p5.exact_zero_tuples
    p4 = rs.min_denominator(4, 60)
    # zero iff degenerate: no nondegenerate exact zeros, degenerate all vanish
    degenerate_sample = [(k, -k, l, -l) for k in range(3, 20) for l in (k, k + 7)]
    ok4 = (
        not p4.exact_zero_tuples
        and p4.degenerate_count > 0
        and all(rs.lambda_sum(t) == 0 for t in degenerate_sample)
    )
    fitted = min(float(v) * k**4 for k, v in p4.scaling_by_min.items())
    ok4 = ok4 and fitted > 0
    report(
        "C3",
        "resonance bounds",
        ok3 and ok5 and ok4,
        f"p=3 min {p3.min_value} >= 2/5, p=5 min {p5.min_value} >= 9/35, "
        f"p=4 fitted constant {fitted:.3g} > 0",
        time.perf_counter() - started,
        budget=300.0,
    )


def test_criterion_4_sextic_search_evidence():
    started = time.perf_counter()
    result = rs.search_resonances_p6(20)
    ok = result.exact_zero_tuples == [] and result.tuples_scanned > 10**7
    report(
        "C4",
        "sextic resonance evidence",
        ok,
        f"{result.tuples_scanned} tuples scanned to bound 20, "
        f"{len(result.exact_zero_tuples)} nondegenerate zeros (evidence only)",
        time.perf_counter() - started,
        budget=1800.0,
    )


def test_criterion_4_sextic_resonance_at_bound_174():
    started = time.perf_counter()
    resonance = (174, 78, 74, -68, -88, -170)
    result = rs.search_resonances_p6(174)
    ok = (
        sum(resonance) == 0
        and rs.lambda_sum(resonance) == 0
        and not rs.is_totally_degenerate(resonance)
        and result.exact_zero_tuples == [resonance]
        and result.min_value == 0
    )
    report(
        "C4b",
        "sextic resonance",
        ok,
        f"{resonance}: zero momentum, exact frequency sum 0, not totally "
        f"degenerate, the one zero of the search to bound 174",
        time.perf_counter() - started,
        budget=60.0,
    )


def test_criterion_5_normal_form_cancellation():
    started = time.perf_counter()
    cfg = ev.SimConfig(
        m=3,
        n_max=24,
        s=3.0,
        dt=0.01,
        t_end=20.0,
        epsilon=0.1,
        seed=0,
        initial_profile="random_band",
        diagnostics_stride=20,
    )
    result = ev.lifespan_experiment([0.1, 0.05, 0.025], cfg)
    slopes = result.slopes
    ok = (
        abs(slopes["base"] - 3.0) <= 0.5
        and abs(slopes["minus_c3"] - 4.0) <= 0.5
        and abs(slopes["full_chain"] - 6.0) <= 0.7
    )
    doubled = [t for t in result.doubling_times if t is not None]
    ok = ok and doubled == sorted(doubled)
    report(
        "C5",
        "normal-form cancellation",
        ok,
        f"slopes {slopes['base']:.2f}/{slopes['minus_c3']:.2f}/"
        f"{slopes['full_chain']:.2f} vs 3/4/6",
        time.perf_counter() - started,
        budget=1800.0,
    )


def test_criterion_6_algebraic_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    m, n_max = 3, 24
    worst = {"l_identity": 0.0, "p_idempotent": 0.0, "p_annihilation": 0.0,
             "parity_flip": 0.0}
    for trial in range(100):
        p = 3 if trial % 2 == 0 else 4
        space = fm.tuple_space(m, n_max, p)
        raw = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
        form = fm.make_form(m, n_max, p, lambda mv: raw)
        # row count-1-r holds the negated modes of row r
        assert np.array_equal(space.idx[::-1], space.modes.shape[0] - 1 - space.idx)
        odd = fm.MultilinearForm(
            space, 0.5 * (form.values - form.values[::-1]), symmetric=True
        )
        fields = [random_field(m, n_max, rng) for _ in range(p)]
        scale = max(np.max(np.abs(form.values)), 1.0) * max(
            np.max(np.abs(f.coeffs)) for f in fields
        ) ** p

        divisible = form.plus(fm.resonant_projection(form).scaled(-1.0))
        divided = fm.normal_form_divide(divisible)
        lhs = 0.0 + 0.0j
        for j in range(p):
            args = list(fields)
            minus = differentiate(smooth(args[j]))
            args[j] = minus.with_coeffs(-minus.coeffs)
            lhs += fm.evaluate(divided, args)
        rhs = -1j * fm.evaluate(divisible, fields)
        worst["l_identity"] = max(worst["l_identity"], abs(lhs - rhs) / scale)

        divided_odd = fm.normal_form_divide(odd.plus(fm.resonant_projection(odd).scaled(-1.0)))
        worst["parity_flip"] = max(
            worst["parity_flip"],
            fm.parity_defect(divided_odd, "even")
            / max(np.max(np.abs(divided_odd.values)), 1e-30),
        )

        if p % 2 == 0:
            once = fm.resonant_projection(form)
            twice = fm.resonant_projection(once)
            worst["p_idempotent"] = max(
                worst["p_idempotent"],
                float(np.max(np.abs(once.values - twice.values)))
                / max(float(np.max(np.abs(form.values))), 1e-30),
            )
            ann_scale = float(np.sum(np.abs(odd.values))) * max(
                np.max(np.abs(fields[0].coeffs)), 1e-30
            ) ** p
            worst["p_annihilation"] = max(
                worst["p_annihilation"],
                abs(fm.evaluate_diagonal(fm.resonant_projection(odd), fields[0]))
                / ann_scale,
            )

    ok = all(v <= 1e-12 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(
        "C6",
        "algebraic identities",
        ok,
        f"worst relative defects over 100 random forms: {detail} (tol 1e-12)",
        time.perf_counter() - started,
        budget=300.0,
    )


def test_criterion_7_solver_fidelity():
    started = time.perf_counter()
    # exact linear flow for arbitrary dt
    cfg_lin = ev.SimConfig(m=3, n_max=24, s=3.0, epsilon=0.2, linear_only=True,
                           corrected_energies=False)
    f0 = ev.initial_state(cfg_lin)
    advanced = ev.integrate(f0, 0.37, 100, linear_only=True)
    phases = np.exp(-1j * dispersion_float(f0.modes) * 37.0)
    linear_err = float(np.max(np.abs(advanced.coeffs - phases * f0.coeffs)))

    # fourth-order self-convergence
    cfg_conv = ev.SimConfig(m=3, n_max=24, s=3.0, epsilon=0.2,
                            corrected_energies=False)
    g0 = ev.initial_state(cfg_conv)
    reference = ev.integrate(g0, 0.02 / 16, 16 * 50)
    coarse = np.max(np.abs(ev.integrate(g0, 0.02, 50).coeffs - reference.coeffs))
    fine = np.max(np.abs(ev.integrate(g0, 0.01, 100).coeffs - reference.coeffs))
    ratio = float(coarse / fine)

    # conservation over t = 100
    cfg_run = ev.SimConfig(m=3, n_max=24, s=3.0, dt=0.01, t_end=100.0,
                           epsilon=0.1, diagnostics_stride=100,
                           corrected_energies=False)
    trajectory = ev.run(cfg_run)
    mean_worst = float(np.max(trajectory.column("mean_res")))
    sym_worst = float(np.max(trajectory.column("sym_res")))

    ok = (
        linear_err <= 1e-12
        and 10.0 < ratio < 24.0
        and mean_worst <= 1e-12
        and sym_worst == 0.0
    )
    report(
        "C7",
        "solver fidelity",
        ok,
        f"linear error {linear_err:.1e}, convergence ratio {ratio:.1f}, "
        f"mean drift {mean_worst:.1e}, symmetry residual {sym_worst}",
        time.perf_counter() - started,
        budget=300.0,
    )


def test_criterion_8_travelling_waves():
    started = time.perf_counter()
    expected_speed = {3: Fraction(8, 15), 4: Fraction(5, 16), 5: Fraction(8, 35)}
    ok = True
    details = []
    for m in (3, 4, 5):
        assert wv.bifurcation_speed(m) == expected_speed[m]
        branch = wv.continue_branch(m, 0.12, 24)
        ok = ok and len(branch.points) == 24
        ok = ok and all(p.residual_norm <= 1e-11 for p in branch.points)
        speeds = np.array([p.speed for p in branch.points])
        xis = np.array([p.xi for p in branch.points])
        v_m = float(expected_speed[m])
        slope = np.polyfit(
            np.log(xis[:10]), np.log(np.abs(speeds[:10] - v_m)), 1
        )[0]
        ok = ok and abs(speeds[0] - v_m) < 1e-4 and 1.7 <= slope <= 2.3
        rates = [wv.decay_rate(p) for p in branch.points]
        ok = ok and all(c > 0 for c in rates)

        # rigid translation under the full time-dependent solver, t = 10
        point = branch.points[7]  # xi = 0.04
        n_max = point.num_harmonics * m
        state = SpectralField(m, n_max, point.cosine_coeffs.astype(complex) / 2.0)
        tau, dt = 10.0, 0.005
        evolved = ev.integrate(state, dt, int(round(tau / dt)))
        shifted = state.coeffs * np.exp(-1j * state.modes * point.speed * tau)
        translation_err = float(np.max(np.abs(evolved.coeffs - shifted)))
        tolerance = 100.0 * dt**4 + 10.0 * point.residual_norm
        ok = ok and translation_err <= tolerance
        details.append(
            f"m={m}: v-slope {slope:.2f}, translation {translation_err:.1e}"
            f"<={tolerance:.1e}"
        )
    report(
        "C8",
        "travelling waves",
        ok,
        "; ".join(details),
        time.perf_counter() - started,
        budget=600.0,
    )
