"""Integrator fidelity, conservation, the derivative identities, and scaling.

The corrected-energy identities are checked two independent ways: centered
finite differences of the recorded energies along a trajectory must match
the multilinear derivative forms with second-order accuracy in dt.
"""

import dataclasses
import math
import os
import pickle
import re
import signal
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SPECIAL_PARTS,
    assert_same_bits,
    assert_same_values,
    coefficient_array,
    reduction_product,
    rk4_step,
)
from sqglab import evolve as ev
from sqglab import forms as fm
from sqglab.dispersion import dispersion_float
from sqglab.field import SpectralField, _QuadraticTerm, hs_norm, reflect, sobolev_energy


CHEAP = dict(m=3, n_max=12, s=2.0)


def cheap_chain():
    return fm.build_chain(**CHEAP)


class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(m=2),
            dict(n_max=25),
            dict(dt=0.0),
            dict(t_end=0.001),
            dict(epsilon=-1.0),
            dict(diagnostics_stride=0),
            dict(initial_profile="spike"),
            dict(s=-2.0),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            ev.SimConfig(**bad)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["s", "dt", "t_end", "epsilon"])
    def test_rejects_non_finite_naming_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: must be a finite"):
            ev.SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            (dict(n_max=12, epsilon=True, seed=True, dt=0.3, t_end=1.0),
             ["epsilon", "seed", "t_end"]),
            (dict(dt=-1.0, epsilon=0.0), ["dt", "epsilon"]),
            (dict(m="3"), ["m"]),
            (dict(m=3.0, n_max=12.0), ["m"]),
            (dict(n_max=12.0), ["n_max"]),
            (dict(diagnostics_stride=2.0), ["diagnostics_stride"]),
            (dict(s=10**400), ["s"]),
            (dict(linear_only="no", corrected_energies=1),
             ["corrected_energies", "linear_only"]),
        ],
    )
    def test_rejects_naming_every_field(self, kwargs, named):
        with pytest.raises(ValueError) as info:
            ev.SimConfig(**kwargs)
        assert [part.split(":")[0] for part in str(info.value).split("; ")] == named

    def test_real_fields_stored_as_float(self):
        cfg = ev.SimConfig(n_max=12, s=3, dt=1, t_end=4, epsilon=1)
        assert all(type(v) is float for v in (cfg.s, cfg.dt, cfg.t_end, cfg.epsilon))

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                f.name: st.one_of(
                    st.integers(-5, 30),
                    st.integers(min_value=2**1024),
                    st.floats(),
                    st.booleans(),
                    st.sampled_from(["single_mode", "random_band"]),
                    st.text(max_size=3),
                    st.none(),
                    st.lists(st.integers(), max_size=2),
                )
                for f in dataclasses.fields(ev.SimConfig)
            },
        )
    )
    def test_any_values_build_or_name_a_field(self, kwargs):
        try:
            ev.SimConfig(**kwargs)
        except ValueError as exc:
            names = {f.name for f in dataclasses.fields(ev.SimConfig)}
            for part in str(exc).split("; "):
                assert part.split(": ")[0] in names, str(exc)


class TestInitialData:
    @pytest.mark.parametrize("profile", ["single_mode", "random_band"])
    def test_norm_is_epsilon(self, profile):
        cfg = ev.SimConfig(epsilon=0.07, initial_profile=profile, s=4.0)
        f = ev.initial_state(cfg)
        assert hs_norm(f, 4.0) == pytest.approx(0.07, rel=1e-14)

    def test_seed_determinism_and_proportionality(self):
        base = ev.SimConfig(epsilon=0.1, seed=5)
        f1 = ev.initial_state(base)
        f2 = ev.initial_state(ev.SimConfig(epsilon=0.1, seed=5))
        assert np.array_equal(f1.coeffs, f2.coeffs)
        half = ev.initial_state(ev.SimConfig(epsilon=0.05, seed=5))
        assert np.allclose(half.coeffs, 0.5 * f1.coeffs, rtol=1e-14)
        other = ev.initial_state(ev.SimConfig(epsilon=0.1, seed=6))
        assert not np.allclose(other.coeffs, f1.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 7])
        | st.integers(0, 2**300),
        count=st.integers(1, 64),
    )
    def test_phases_are_numpys_stream(self, seed, count):
        # seeds of more than four 32-bit words take SeedSequence's extra mixing
        expected = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=count)
        assert_same_bits(ev._uniform_phases(seed, count), expected)


def step_once(coeffs, dt, half_phase, quad):
    """``coeffs`` after one step of a stepper built for its shape."""
    state = coeffs.copy()
    ev._Stepper(quad, dt, half_phase, state.shape).step(state)
    return state


class TestStep:
    def test_linear_phases_exact(self):
        cfg = ev.SimConfig(**CHEAP, epsilon=0.3, linear_only=True,
                           corrected_energies=False)
        f0 = ev.initial_state(cfg)
        for dt, steps in ((0.513, 7), (2.9, 3)):
            advanced = ev.integrate(f0, dt, steps, linear_only=True)
            phases = np.exp(-1j * dispersion_float(f0.modes) * dt * steps)
            assert np.max(np.abs(advanced.coeffs - phases * f0.coeffs)) < 1e-14

    def test_zero_field_fixed_point(self):
        z = SpectralField.zero(3, 12)
        assert np.all(ev.integrate(z, 0.1, 1).coeffs == 0)

    def test_fourth_order_self_convergence(self):
        cfg = ev.SimConfig(**CHEAP, epsilon=0.2, corrected_energies=False)
        f0 = ev.initial_state(cfg)
        reference = ev.integrate(f0, 0.02 / 16, 16 * 50)
        coarse = np.max(np.abs(ev.integrate(f0, 0.02, 50).coeffs - reference.coeffs))
        fine = np.max(np.abs(ev.integrate(f0, 0.01, 100).coeffs - reference.coeffs))
        assert 10.0 < coarse / fine < 24.0

    def test_time_reversal(self):
        # reflect, evolve, reflect undoes the flow up to integrator error
        cfg = ev.SimConfig(**CHEAP, epsilon=0.1, corrected_energies=False)
        f0 = ev.initial_state(cfg)
        forward = ev.integrate(f0, 0.005, 200)
        back = reflect(ev.integrate(reflect(forward), 0.005, 200))
        assert np.max(np.abs(back.coeffs - f0.coeffs)) < 1e-9

    def test_instability_detected(self):
        cfg = ev.SimConfig(m=3, n_max=12, s=2.0, epsilon=20.0, dt=1.0, t_end=50.0,
                           corrected_energies=False)
        with pytest.raises(ev.InstabilityError) as info:
            ev.run(cfg)
        assert info.value.last_time >= 0.0
        assert info.value.trajectory is not None
        assert re.fullmatch(
            r"integration unstable at step [1-9]\d*, epsilon=20: the H\^s norm is "
            r"\d[\d.e+]* times the blow-up threshold \(last valid t=\d+\)",
            str(info.value),
        )
        ratio = float(re.search(r"norm is (\S+) times", str(info.value)).group(1))
        assert ratio > 1.0

    def test_non_finite_state_named(self):
        f = ev.initial_state(ev.SimConfig(**CHEAP, epsilon=20.0))
        with pytest.raises(ev.InstabilityError) as info:
            ev.integrate(f, 1.0, 50)
        assert re.fullmatch(
            r"integration unstable at step [1-9]\d*: the state is not finite "
            r"\(last valid t=\d+\)",
            str(info.value),
        )

    # ``run`` steps a batch of one as its bare row: NumPy multiplies a (1, 1)
    # array by a length-1 one without FMA, so that batch would round
    # differently from its row
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(3, 7),
        harmonics=st.integers(1, 13).filter(lambda k: k % 4),
        batch=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_step_matches_rows(self, m, harmonics, batch, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(batch, harmonics)) + 1j * rng.normal(size=(batch, harmonics))
        coeffs *= 10.0 ** rng.uniform(-4, 0, size=(batch, 1))
        dt = float(rng.uniform(0.001, 0.1))
        modes = m * np.arange(1, harmonics + 1)
        half_phase = np.exp(-0.5j * dispersion_float(modes) * dt)
        quad = _QuadraticTerm(m, m * harmonics)
        stepped = step_once(coeffs, dt, half_phase, quad)
        for row, single in zip(stepped, coeffs):
            assert row.tobytes() == step_once(single, dt, half_phase, quad).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(3, 7),
        harmonics=st.integers(1, 13),
        batch=st.integers(0, 5),
        linear=st.booleans(),
        dt=st.floats(0.001, 0.1),
        seed=st.integers(0, 2**32 - 1),
        specials=SPECIAL_PARTS,
    )
    @example(m=3, harmonics=1, batch=0, linear=False, dt=0.01, seed=0, specials=[])
    @example(m=3, harmonics=1, batch=0, linear=True, dt=0.01, seed=0, specials=[])
    @example(m=3, harmonics=8, batch=3, linear=False, dt=0.01, seed=0, specials=[np.inf])
    def test_stepper_matches_rk4_oracle(self, m, harmonics, batch, linear, dt, seed, specials):
        """Two in-place steps on one workspace give the oracle's states, as
        C-contiguous arrays, on bare rows (batch 0) and batches; a row with an
        inf or NaN part steps to a non-finite row, which the blow-up check
        then drops."""
        shape = (harmonics,) if batch == 0 else (batch, harmonics)
        coeffs = coefficient_array(shape, seed, specials)
        modes = m * np.arange(1, harmonics + 1)
        half_phase = np.exp(-0.5j * dispersion_float(modes) * dt)
        op = None if linear else _QuadraticTerm(m, m * harmonics)
        stepper = ev._Stepper(op, dt, half_phase, shape)
        state, expected = coeffs.copy(), coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(2):
                stepper.step(state)
                expected = rk4_step(expected, dt, half_phase, op)
                assert state.flags.c_contiguous
                assert_same_values(state, expected)
        finite_in = np.isfinite(coeffs.view(np.float64)).reshape(-1, 2 * harmonics)
        finite_out = np.isfinite(state.view(np.float64)).reshape(-1, 2 * harmonics)
        assert not finite_out.all(axis=1)[~finite_in.all(axis=1)].any()


class TestRun:
    def test_records_and_residuals(self):
        cfg = ev.SimConfig(**CHEAP, dt=0.01, t_end=2.0, epsilon=0.1,
                           diagnostics_stride=20)
        trajectory = ev.run(cfg)
        assert np.all(np.diff(trajectory.times) > 0)
        assert len(trajectory.states) == trajectory.times.shape[0]
        for name in ev.DIAGNOSTIC_COLUMNS:
            assert trajectory.column(name).shape == trajectory.times.shape
        assert np.max(trajectory.column("mean_res")) <= 1e-12
        assert np.all(trajectory.column("sym_res") == 0.0)

    def test_norm_stays_bounded(self):
        cfg = ev.SimConfig(**CHEAP, dt=0.01, t_end=50.0, epsilon=0.1,
                           diagnostics_stride=100, corrected_energies=False)
        trajectory = ev.run(cfg)
        assert np.max(trajectory.column("hs_norm")) <= 0.2
        assert not trajectory.stopped_early and trajectory.stop_time is None

    @pytest.mark.parametrize("n_max", [3, 12])
    def test_states_match_integrate(self, n_max):
        # n_max = m leaves one harmonic: the (1, 1) case of a batch of one
        cfg = ev.SimConfig(m=3, n_max=n_max, s=2.0, dt=0.01, t_end=1.0, epsilon=0.5,
                           diagnostics_stride=25, corrected_energies=False)
        trajectory = ev.run(cfg)
        for t, state in zip(trajectory.times, trajectory.states):
            alone = ev.integrate(trajectory.states[0], cfg.dt, round(t / cfg.dt))
            assert np.array_equal(state.coeffs, alone.coeffs)

    def test_chain_follows_each_run_and_is_released(self, monkeypatch):
        """Runs that differ only in s record the energy of their own s, and
        the chain a run builds is gone once it returns: no cache can hand a
        run the chain of other parameters."""
        build_chain, built = fm.build_chain, []

        def tracked(*args):
            chain = build_chain(*args)
            built.append(weakref.ref(chain))
            return chain

        monkeypatch.setattr(fm, "build_chain", tracked)
        cfg = ev.SimConfig(**CHEAP, dt=0.02, t_end=0.4, diagnostics_stride=5)
        runs = [ev.run(dataclasses.replace(cfg, s=s)) for s in (2.0, 3.0)]
        assert len(built) == 2 and all(ref() is None for ref in built)
        es = [trajectory.column("es") for trajectory in runs]
        assert not np.array_equal(es[0], es[1])
        for trajectory, column in zip(runs, es):
            s = trajectory.config.s
            assert np.array_equal(column, [sobolev_energy(f, s) for f in trajectory.states])

    def test_stop_norm(self):
        cfg = ev.SimConfig(**CHEAP, dt=0.01, t_end=1.0, epsilon=0.1,
                           corrected_energies=False)
        trajectory = ev.run(cfg, stop_norm=0.05)  # already above at t = 0
        assert trajectory.stopped_early
        assert trajectory.stop_time == 0.0

    def test_restart_on_another_lattice_rejected(self):
        cfg = ev.SimConfig(**CHEAP, dt=0.01, t_end=0.1, corrected_energies=False)
        other = ev.initial_state(dataclasses.replace(cfg, n_max=24))
        lattices = r"\(m=3, n_max=24\) does not match config \(m=3, n_max=12\)"
        with pytest.raises(ValueError, match=lattices):
            ev.run(cfg, initial=other)


def assert_same_trajectory(a, b):
    assert a.config == b.config
    assert a.stop_time == b.stop_time
    assert_same_bits(a.times, b.times)
    assert a.table.keys() == b.table.keys()
    for name in a.table:
        assert_same_bits(a.table[name], b.table[name])
    assert len(a.states) == len(b.states)
    for x, y in zip(a.states, b.states):
        assert_same_bits(x.coeffs, y.coeffs)


def _centered_fd(values, times):
    return (values[2:] - values[:-2]) / (times[2:] - times[:-2])


class TestDerivativeIdentities:
    def _mismatch(self, dt, level, derivative_index):
        chain = cheap_chain()
        cfg = ev.SimConfig(**CHEAP, dt=dt, t_end=0.5, epsilon=0.1,
                           diagnostics_stride=1)
        trajectory = ev.run(cfg)
        names = ("es", "es_c3", "es_c34", "es_c345")
        fd = _centered_fd(trajectory.column(names[level]), trajectory.times)
        forms_values = np.array(
            [
                chain.derivative_values(state)[derivative_index]
                for state in trajectory.states[1:-1]
            ]
        )
        return float(np.max(np.abs(fd - forms_values)))

    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_fd_matches_form_second_order(self, level):
        coarse = self._mismatch(0.02, level, level)
        fine = self._mismatch(0.01, level, level)
        # centered differences converge at second order to the exact form
        assert coarse / fine == pytest.approx(4.0, abs=1.5)

    def test_cascade_of_magnitudes(self):
        # each correction suppresses the derivative by roughly epsilon
        chain = cheap_chain()
        cfg = ev.SimConfig(**CHEAP, dt=0.01, t_end=2.0, epsilon=0.05,
                           diagnostics_stride=10)
        trajectory = ev.run(cfg)
        derivs = np.array(
            [chain.derivative_values(state) for state in trajectory.states]
        )
        means = np.mean(np.abs(derivs), axis=0)
        assert means[0] > 10.0 * means[1] > 10.0 * means[3]


class TestLifespanExperiment:
    def test_slopes_near_homogeneity_orders(self):
        cfg = ev.SimConfig(**CHEAP, dt=0.02, t_end=5.0, epsilon=0.1,
                           diagnostics_stride=25)
        report = ev.lifespan_experiment([0.1, 0.05], cfg)
        assert report.slopes["base"] == pytest.approx(3.0, abs=0.6)
        assert report.slopes["minus_c3"] == pytest.approx(4.0, abs=0.6)
        assert report.slopes["full_chain"] == pytest.approx(6.0, abs=0.8)
        doubled = [t for t in report.doubling_times if t is not None]
        assert doubled == sorted(doubled)
        assert [t.stop_time for t in report.trajectories] == report.doubling_times
        payload = report.to_dict()
        assert set(payload["slopes"]) == {"base", "minus_c3", "full_chain"}

    @pytest.mark.parametrize("t_end", [0.4, 0.02 * ev.FORK_MIN_STEPS])
    def test_chain_is_freed_before_the_slope_fit(self, monkeypatch, t_end):
        """No cache, closure or trajectory keeps the chain's tables past the
        sweep, forked or not: they are gone when the fit starts."""
        build_chain, tables = fm.build_chain, []

        def tracked(*args):
            chain = build_chain(*args)
            for form in chain.corrections:
                tables.extend([weakref.ref(form.values), weakref.ref(form.space)])
            return chain

        polyfit, alive = np.polyfit, []

        def fit(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in tables))
            return polyfit(*args, **kwargs)

        monkeypatch.setattr(fm, "build_chain", tracked)
        monkeypatch.setattr(np, "polyfit", fit)
        cfg = ev.SimConfig(**CHEAP, dt=0.02, t_end=t_end, diagnostics_stride=20)
        ev.lifespan_experiment([0.1, 0.05], cfg)
        assert len(tables) == 6 and alive == [0] * len(ev.DERIVATIVE_KEYS)

    def test_one_quadratic_term_per_record(self, monkeypatch):
        """A record computes the quadratic term once, for the mean drift and
        the inserted derivatives alike, and the derivatives it keeps are the
        chain's own at each recorded state, bit for bit."""
        cfg = ev.SimConfig(**CHEAP, dt=0.02, t_end=1.0, diagnostics_stride=10)
        term = type(_QuadraticTerm(cfg.m, cfg.n_max))
        spectrum = term.product_spectrum
        shapes = []

        def counted(self, coeffs, buffers):
            shapes.append(coeffs.shape)
            return spectrum(self, coeffs, buffers)

        # the stepper and full_product_spectrum both evaluate through it
        monkeypatch.setattr(term, "product_spectrum", counted)
        report = ev.lifespan_experiment([0.1, 0.05], cfg)
        records = sum(len(t.states) for t in report.trajectories)
        assert records == 12 and report.doubling_times == [None, None]
        # four batched calls per RK4 step, one single-state call per record
        assert [len(s) for s in shapes].count(1) == records
        assert len(shapes) == 4 * 50 + records
        monkeypatch.undo()
        chain = cheap_chain()
        for trajectory in report.trajectories:
            expected = [
                [value.real for value in chain._derivatives(state, (0, 1, 3))]
                for state in trajectory.states
            ]
            assert_same_bits(trajectory.derivatives, np.array(expected))

    @pytest.mark.parametrize("n_max", [12, 15])
    def test_sweep_records_what_sequential_runs_record(self, n_max):
        # amplitudes 8 and 6 double at different times before t = 1, so the
        # batch shrinks twice and the last run goes on alone to t_end
        eps_list = [8.0, 6.0, 3.0]
        cfg = ev.SimConfig(m=3, n_max=n_max, s=2.0, dt=0.02, t_end=10.0,
                           diagnostics_stride=5)
        report = ev.lifespan_experiment(eps_list, cfg)
        stops = [t.stop_time for t in report.trajectories]
        assert 0.0 < stops[0] < stops[1] < 1.0 and stops[2] is None
        for eps, swept in zip(eps_list, report.trajectories):
            alone = ev.run(dataclasses.replace(cfg, epsilon=eps), stop_norm=2.0 * eps)
            assert_same_trajectory(swept, alone)

    @pytest.mark.parametrize(
        "seed,stride,eps_list,failing_steps",
        [
            # the second amplitude blows up first, so the first is raised
            (0, 7, [4.62, 4.5], [12, 11]),
            # the first runs to t_end after the second has blown up
            (1, 10, [5.0, 4.25, 4.0], [None, 16, 19]),
        ],
    )
    def test_sweep_raises_first_failing_amplitude(self, seed, stride, eps_list,
                                                  failing_steps):
        cfg = ev.SimConfig(**CHEAP, dt=1.0, t_end=60.0, diagnostics_stride=stride,
                           seed=seed)
        outcomes = []
        for eps in eps_list:
            try:
                ev.run(dataclasses.replace(cfg, epsilon=eps), stop_norm=2.0 * eps)
                outcomes.append(None)
            except ev.InstabilityError as exc:
                outcomes.append(exc)
        steps = [
            None if exc is None else int(re.search(r"step (\d+)", str(exc)).group(1))
            for exc in outcomes
        ]
        assert steps == failing_steps
        expected = next(exc for exc in outcomes if exc is not None)
        with pytest.raises(ev.InstabilityError) as info:
            ev.lifespan_experiment(eps_list, cfg)
        assert str(info.value) == str(expected)
        assert info.value.last_time == expected.last_time
        assert_same_trajectory(info.value.trajectory, expected.trajectory)

    @settings(max_examples=25, deadline=None)
    @given(
        eps_list=st.lists(st.integers(16, 32), min_size=2, max_size=3, unique=True).map(
            lambda quarters: sorted((q / 4 for q in quarters), reverse=True)
        ),
        dt=st.floats(0.5, 1.0),
        n_steps=st.integers(5, 60),
        stride=st.integers(1, 10),
        seed=st.integers(0, 3),
    )
    def test_sweep_matches_sequential_runs_property(self, eps_list, dt, n_steps,
                                                    stride, seed):
        # large amplitudes and steps: runs stop, blow up or reach t_end, in
        # any order and at any step, recorded or not
        cfg = ev.SimConfig(**CHEAP, dt=dt, t_end=n_steps * dt,
                           diagnostics_stride=stride, seed=seed)
        alone, failure = [], None
        for eps in eps_list:
            try:
                alone.append(
                    ev.run(dataclasses.replace(cfg, epsilon=eps), stop_norm=2.0 * eps)
                )
            except ev.InstabilityError as exc:
                failure = exc
                break
        if failure is None:
            report = ev.lifespan_experiment(eps_list, cfg)
            for swept, expected in zip(report.trajectories, alone, strict=True):
                assert_same_trajectory(swept, expected)
        else:
            with pytest.raises(ev.InstabilityError) as info:
                ev.lifespan_experiment(eps_list, cfg)
            assert str(info.value) == str(failure)
            assert info.value.last_time == failure.last_time
            assert_same_trajectory(info.value.trajectory, failure.trajectory)

    @pytest.mark.parametrize("profile", ["random_band", "single_mode"])
    def test_sweep_matches_row_reduction_oracle(self, monkeypatch, profile):
        # the diagonal product from shared prefixes records what the per-row
        # reduction over a row-major gather recorded, bit for bit
        cfg = ev.SimConfig(**CHEAP, dt=0.02, t_end=2.0, diagnostics_stride=5,
                           initial_profile=profile)
        eps_list = [0.1, 0.05, 0.025]
        report = ev.lifespan_experiment(eps_list, cfg)

        def reduction_evaluate_diagonal(form, f):
            amp = fm._mode_amplitudes(f, form.space)
            return complex((form.values * reduction_product(form.space, amp)).sum())

        monkeypatch.setattr(fm, "evaluate_diagonal", reduction_evaluate_diagonal)
        oracle = ev.lifespan_experiment(eps_list, cfg)
        for swept, expected in zip(report.trajectories, oracle.trajectories,
                                   strict=True):
            assert_same_trajectory(swept, expected)
        assert report.to_dict() == oracle.to_dict()

    def test_recorded_levels_are_the_chains(self, forks):
        # a sweep long enough to step in the worker; the batch shrinks twice
        cfg = ev.SimConfig(**CHEAP, dt=0.004, t_end=4.0, diagnostics_stride=50)
        report = ev.lifespan_experiment([8.0, 6.0, 3.0], cfg)
        assert len(forks) == 1
        assert report.doubling_times[0] < report.doubling_times[1] < 4.0
        assert report.doubling_times[2] is None
        chain = cheap_chain()
        names = ("es", "es_c3", "es_c34", "es_c345")
        for trajectory in report.trajectories:
            recorded = np.column_stack([trajectory.column(name) for name in names])
            assert_same_bits(recorded, np.array([chain.levels(s) for s in trajectory.states]))

    def test_requires_corrected_energies(self):
        cfg = ev.SimConfig(**CHEAP, corrected_energies=False)
        with pytest.raises(ValueError, match="^corrected_energies: must be true"):
            ev.lifespan_experiment([0.1, 0.05], cfg)

    def test_requires_the_quadratic_term(self, monkeypatch):
        # the derivatives are the full flow's; a linear run's energies hold still
        monkeypatch.setattr(fm, "build_chain", None)
        cfg = ev.SimConfig(**CHEAP, linear_only=True)
        with pytest.raises(ValueError, match="^linear_only: must be false"):
            ev.lifespan_experiment([0.1, 0.05], cfg)

    def test_requires_decreasing_amplitudes(self):
        cfg = ev.SimConfig(**CHEAP)
        with pytest.raises(ValueError):
            ev.lifespan_experiment([0.05, 0.1], cfg)
        with pytest.raises(ValueError):
            ev.lifespan_experiment([0.1], cfg)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks made by this process while the test runs."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


class TestSteppingWorker:
    """The forked process that steps a long sweep: it records what one
    process records, failures reach the caller, and no path leaves a child
    behind."""

    #: A sweep of FORK_MIN_STEPS steps, eleven records per run.
    CFG = ev.SimConfig(
        **CHEAP, dt=0.02, t_end=0.02 * ev.FORK_MIN_STEPS,
        diagnostics_stride=ev.FORK_MIN_STEPS // 10,
    )

    @pytest.fixture(autouse=True)
    def reaped(self):
        """No test of this class leaves a child behind."""
        yield
        assert_no_child()

    def test_records_what_one_process_records(self, forks, monkeypatch):
        # runs stop at 0.8 and 1.0 and the third goes on: the batch shrinks twice
        cfg = ev.SimConfig(**CHEAP, dt=0.004, t_end=4.0, diagnostics_stride=50)
        forked = ev.lifespan_experiment([8.0, 6.0, 3.0], cfg)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        alone = ev.lifespan_experiment([8.0, 6.0, 3.0], cfg)
        assert forked.to_dict() == alone.to_dict()
        for a, b in zip(forked.trajectories, alone.trajectories, strict=True):
            assert_same_trajectory(a, b)
            assert_same_bits(a.derivatives, b.derivatives)

    def test_instability_is_raised_as_in_one_process(self, forks, monkeypatch):
        cfg = ev.SimConfig(**CHEAP, dt=1.0, t_end=float(ev.FORK_MIN_STEPS),
                           diagnostics_stride=10, seed=1)
        errors = []
        for fork in (True, False):
            if not fork:
                monkeypatch.delattr(os, "fork")
            with pytest.raises(ev.InstabilityError, match="^integration unstable at step 16") as info:
                ev.lifespan_experiment([5.0, 4.25, 4.0], cfg)
            errors.append(info.value)
            assert_no_child()
        assert len(forks) == 1
        forked, alone = errors
        assert str(forked) == str(alone) and forked.last_time == alone.last_time
        assert_same_trajectory(forked.trajectory, alone.trajectory)
        assert_same_bits(forked.trajectory.derivatives, alone.trajectory.derivatives)

    def test_short_sweeps_and_runs_do_not_fork(self, forks):
        short = dataclasses.replace(self.CFG, t_end=0.02 * (ev.FORK_MIN_STEPS - 1))
        ev.lifespan_experiment([0.1, 0.05], short)
        ev.run(self.CFG)
        ev.run(dataclasses.replace(self.CFG, corrected_energies=False))
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            alone = ev.lifespan_experiment([0.1, 0.05], self.CFG)
        finally:
            stop.set()
            thread.join()
        assert forks == []
        forked = ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert len(forks) == 1
        for a, b in zip(forked.trajectories, alone.trajectories, strict=True):
            assert_same_trajectory(a, b)
            assert_same_bits(a.derivatives, b.derivatives)

    def test_no_child_after_return(self, forks):
        ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert len(forks) == 1
        assert_no_child()

    def test_worker_error_reaches_caller(self, monkeypatch):
        def failing(*args):
            raise ZeroDivisionError(f"stepped in {os.getpid()}")

        monkeypatch.setattr(ev._Stepper, "step", failing)
        with pytest.raises(ZeroDivisionError, match=r"^stepped in \d+$") as info:
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert str(info.value) != f"stepped in {os.getpid()}"
        assert "in the stepping worker" in str(info.value.__cause__)
        assert "in failing" in str(info.value.__cause__)
        assert_no_child()

    def test_unpicklable_error_keeps_type_and_message(self, monkeypatch):
        class Local(Exception):
            pass

        def failing(*args):
            raise Local("not picklable")

        monkeypatch.setattr(ev._Stepper, "step", failing)
        with pytest.raises(RuntimeError, match="^Local: not picklable$"):
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert_no_child()

    def test_lost_state_detected(self, monkeypatch):
        dump = pickle.dump
        dropped = []

        def lossy(message, file):
            if message[0] == "record" and not dropped:
                dropped.append(message)
                return
            dump(message, file)

        monkeypatch.setattr(pickle, "dump", lossy)
        with pytest.raises(RuntimeError, match="^the stepping worker sent 22 states; 20 arrived$"):
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert_no_child()

    def test_worker_exit_detected(self, monkeypatch):
        monkeypatch.setattr(ev, "_march", lambda *args: os._exit(3))
        with pytest.raises(RuntimeError, match="exit status 3 before its last record"):
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert_no_child()

    def test_truncated_record_detected(self, monkeypatch):
        def truncating(message, file):
            data = pickle.dumps(message)
            file.write(data[: len(data) // 2])
            file.flush()
            os._exit(5)

        monkeypatch.setattr(pickle, "dump", truncating)
        with pytest.raises(RuntimeError, match="exit status 5 before its last record"):
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert_no_child()

    def test_no_child_after_interrupt(self, monkeypatch):
        calls = []

        def interrupted(f):
            calls.append(f)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return 0.0

        monkeypatch.setattr(ev, "symmetry_residual", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ev.lifespan_experiment([0.1, 0.05], self.CFG)
        assert_no_child()

    def test_interrupt_ends_a_busy_worker(self, monkeypatch):
        # the caller, waiting for a record, is interrupted; the worker is
        # killed rather than left to finish
        monkeypatch.setattr(ev, "_march", lambda *args: time.sleep(5))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(KeyboardInterrupt):
                ev.lifespan_experiment([0.1, 0.05], self.CFG)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 2.5
        assert_no_child()
