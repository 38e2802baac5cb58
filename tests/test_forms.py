"""Multilinear form algebra: evaluation, division, projection, extensions.

The direct-substitution oracles build the inserted product fields by
brute-force convolution (conftest) and evaluate the lower-arity form
slot by slot, independently of the table-level pair-merging code.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    brute_nonlinearity,
    random_field,
    reduction_product,
    whole_table_extension,
    whole_table_orbits,
)
from sqglab import evolve as ev
from sqglab import forms as fm
from sqglab import resonance as rs
from sqglab.field import SpectralField, differentiate, smooth


def random_form(m, n_max, p, rng, parity=None):
    space = fm.tuple_space(m, n_max, p)
    values = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
    form = fm.make_form(m, n_max, p, lambda mv: values, label="random")
    if parity is None:
        return form
    # project onto the requested parity sector, keeping the table symmetric
    neg_rows = space.rows_of(space.modes.shape[0] - 1 - space.idx)
    sign = 1.0 if parity == "even" else -1.0
    projected = 0.5 * (form.values + sign * form.values[neg_rows])
    return fm.MultilinearForm(space, projected, parity=parity, label="random",
                              symmetric=True)


def extension_derivatives(chain):
    """D4, D5, D6 as tables: minus the quadratic term inserted into C3, C4, C5."""
    return [fm.nonlinearity_extension(c).scaled(-1.0) for c in chain.corrections]


def minus_transport_derivative(f):
    """-(d/da K f) as a field: the factor inserted by the division identity."""
    g = differentiate(smooth(f))
    return g.with_coeffs(-g.coeffs)


def brute_force_symmetrize(space, values):
    """Orbit means by a dict over sorted tuples, summed in row order."""
    groups = {}
    for row, mode_row in enumerate(space.mode_values):
        groups.setdefault(tuple(sorted(int(n) for n in mode_row)), []).append(row)
    sums, counts, orbit_of_row = [], [], np.empty(space.count, dtype=np.int64)
    for orbit, rows in enumerate(groups.values()):
        total = 0j
        for row in rows:
            total += complex(values[row])
        sums.append(total)
        counts.append(len(rows))
        orbit_of_row[rows] = orbit
    return (np.array(sums) / np.array(counts))[orbit_of_row], orbit_of_row


SPACES = [(3, 12, p) for p in (3, 4, 5, 6)] + [(4, 16, p) for p in (3, 4, 5)]

CHAIN_SIZES = [(3, 12, 2.0), (3, 24, 3.0), (4, 24, 2.5), (5, 25, 3.0), (3, 36, 3.0)]


def full_grid_rows(space):
    """Every admissible row from one grid over all (p-1)-slot candidates."""
    size, p = space.modes.shape[0], space.p
    grids = np.meshgrid(*([np.arange(size)] * (p - 1)), indexing="ij")
    head = np.stack([g.ravel() for g in grids], axis=1)
    last = space.index_of_mode(-space.modes[head].sum(axis=1))
    keep = last >= 0
    return np.column_stack([head[keep], last[keep]])


class TestTupleSpace:
    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_keys_strictly_ascend(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        assert np.array_equal(space.keys, space.ravel_keys(space.idx))
        assert np.all(np.diff(space.keys) > 0)
        assert np.array_equal(space.rows_of(space.idx), np.arange(space.count))

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_rows_match_full_candidate_grid(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        assert_same_bits(np.ascontiguousarray(space.idx), full_grid_rows(space))
        assert space.idx.flags.f_contiguous and space.mode_values.flags.f_contiguous
        size = space.modes.shape[0]
        prefix = np.zeros(space.count, dtype=np.int64)
        for j in range(p - 2):
            prefix = prefix * size + space.idx[:, j]
        assert_same_bits(space.prefix, prefix)

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_exact_facts_row_by_row(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        frequency_sum, resonant = space.frequency_sum, space.resonant
        degenerate = space.degenerate
        for i, row in enumerate(space.mode_values):
            exact = rs.lambda_sum(row)
            assert frequency_sum[i] == float(exact)
            assert resonant[i] == (exact == 0)
            assert degenerate[i] == rs.is_totally_degenerate(row)

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_symmetrize_equals_brute_force_mean(self, m, n_max, p, rng):
        space = fm.tuple_space(m, n_max, p)
        values = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
        form = fm.symmetrize(fm.MultilinearForm(space, values))
        expected, _ = brute_force_symmetrize(space, values)
        assert np.array_equal(form.values, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 12, 3), (3, 12, 4), (3, 12, 5), (4, 16, 4)]),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 12),
    )
    def test_symmetrize_constant_on_orbits_and_idempotent(self, space_key, seed, spread):
        space = fm.tuple_space(*space_key)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-spread, spread, size=space.count)
        values = scale * (rng.normal(size=space.count) + 1j * rng.normal(size=space.count))
        once = fm.symmetrize(fm.MultilinearForm(space, values))
        _, orbit_of_row = brute_force_symmetrize(space, values)
        first = {}
        for row, orbit in enumerate(orbit_of_row):
            first.setdefault(orbit, row)
        leaders = np.array([first[orbit] for orbit in orbit_of_row])
        assert np.array_equal(once.values, once.values[leaders])
        # the mean of c equal values is exact up to c rounding steps
        again = fm.symmetrize(fm.MultilinearForm(space, once.values))
        counts = np.bincount(orbit_of_row)[orbit_of_row]
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(again.values - once.values) <= counts * eps * np.abs(once.values))


class TestValueTable:
    def test_public_constructor_copies(self, rng):
        space = fm.tuple_space(3, 12, 3)
        values = rng.normal(size=space.count) + 0j
        form = fm.MultilinearForm(space, values)
        values[:] = 0.0
        assert np.all(form.values != 0.0)
        assert not form.values.flags.writeable

    def test_fresh_table_is_taken_over(self, rng):
        space = fm.tuple_space(3, 12, 3)
        table = rng.normal(size=space.count) + 0j
        form = fm.MultilinearForm(space, fm._Fresh(table))
        assert form.values is table and not table.flags.writeable


class TestEvaluate:
    def test_zero_field(self, rng):
        form = random_form(3, 12, 3, rng)
        assert fm.evaluate_diagonal(form, SpectralField.zero(3, 12)) == 0

    def test_hand_enumerated_unit_multiplier(self):
        # f = cos 3a + cos 6a: the six orderings of (+-3, +-3, -+6) each give
        # (1/2)^3, so the unit trilinear form evaluates to 6/8
        f = SpectralField.from_modes(3, 12, {3: 0.5, 6: 0.5})
        one = fm.make_form(3, 12, 3, lambda mv: np.ones(mv.shape[0]), parity="even")
        assert fm.evaluate_diagonal(one, f) == pytest.approx(0.75, rel=1e-14)

    def test_homogeneity(self, rng):
        form = random_form(3, 24, 4, rng)
        f = random_field(3, 24, rng)
        base = fm.evaluate_diagonal(form, f)
        scaled = fm.evaluate_diagonal(form, f.with_coeffs(0.37 * f.coeffs))
        assert scaled == pytest.approx(0.37**4 * base, rel=1e-12)

    def test_multilinearity_per_slot(self, rng):
        form = random_form(3, 12, 3, rng)
        u, v, w, x = (random_field(3, 12, rng) for _ in range(4))
        lhs = fm.evaluate(form, [u, v.with_coeffs(v.coeffs + 2.0 * x.coeffs), w])
        rhs = fm.evaluate(form, [u, v, w]) + 2.0 * fm.evaluate(form, [u, x, w])
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_lattice_mismatch_rejected(self, rng):
        form = random_form(3, 12, 3, rng)
        with pytest.raises(ValueError):
            fm.evaluate_diagonal(form, SpectralField.zero(3, 24))

    @settings(max_examples=120, deadline=None)
    @given(
        space_key=st.sampled_from(SPACES),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 8),
        zero_share=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    )
    def test_diagonal_product_is_the_row_reduction(self, space_key, seed, spread,
                                                   zero_share):
        space = fm.tuple_space(*space_key)
        rng = np.random.default_rng(seed)
        k = space.num_harmonics
        scale = 10.0 ** rng.uniform(-spread, spread, size=k)
        coeffs = scale * (rng.normal(size=k) + 1j * rng.normal(size=k))
        # exact zeros: whole amplitudes, and real or imaginary parts of either sign
        coeffs[rng.random(k) < zero_share] = 0.0
        coeffs.real[rng.random(k) < zero_share / 2] = -0.0
        coeffs.imag[rng.random(k) < zero_share / 2] = 0.0
        f = SpectralField(space.m, space.n_max, coeffs)
        amp = fm._mode_amplitudes(f, space)
        expected = reduction_product(space, amp)
        assert_same_bits(fm._diagonal_product(space, amp), expected)
        values = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
        form = fm.MultilinearForm(space, values)
        total = complex((form.values * expected).sum())
        assert_same_bits(fm.evaluate_diagonal(form, f), total)

    def test_table_matches_slow_summation(self, rng):
        # memoized table vs a from-scratch python loop over admissible tuples
        form = random_form(3, 12, 3, rng)
        f = random_field(3, 12, rng)
        total = 0.0 + 0.0j
        for row, value in zip(form.space.mode_values, form.values):
            term = value
            for n in row:
                term *= f.coeff(int(n))
            total += term
        assert fm.evaluate_diagonal(form, f) == pytest.approx(total, rel=1e-12)


class TestDivision:
    def test_identity_under_transport_insertion(self, rng):
        # sum_j divided(M)(u_1, .., -(d/da K u_j), .., u_p) = -i M(u_1, .., u_p)
        for p in (3, 4):
            form = random_form(3, 24, p, rng)
            if p % 2 == 0:
                form = form.plus(
                    fm.degenerate_projection(form).scaled(-1.0), label="projected"
                )
            divided = fm.normal_form_divide(form)
            fields = [random_field(3, 24, rng) for _ in range(p)]
            lhs = 0.0 + 0.0j
            for j in range(p):
                args = list(fields)
                args[j] = minus_transport_derivative(args[j])
                lhs += fm.evaluate(divided, args)
            rhs = -1j * fm.evaluate(form, fields)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_degenerate_support(self, rng):
        space = fm.tuple_space(3, 12, 4)
        form = fm.make_form(3, 12, 4, lambda mv: np.ones(mv.shape[0]), parity="even")
        with pytest.raises(fm.ResonanceError) as info:
            fm.normal_form_divide(form)
        assert sum(info.value.resonant_tuple) == 0

    def test_cubic_never_resonates(self, rng):
        form = random_form(3, 24, 3, rng)
        divided = fm.normal_form_divide(form)
        # denominators at arity 3 stay above 2/5
        assert np.max(np.abs(divided.values)) <= 2.5 * np.max(np.abs(form.values))

    def test_parity_flip(self, rng):
        odd = random_form(3, 12, 3, rng, parity="odd")
        assert fm.parity_defect(odd) < 1e-12
        divided = fm.normal_form_divide(odd)
        assert divided.parity == "even"
        assert fm.parity_defect(divided) < 1e-12

    def test_parity_defect_checks_every_row(self):
        # 526,672 rows, of which only the first (its negation is the last)
        # breaks the declared parity
        space = fm.TupleSpace(3, 24, 6)
        values = space.mode_values[:, 0].astype(np.complex128)  # odd under n -> -n
        values[0] += 1.0
        odd = fm.MultilinearForm(space, values, parity="odd")
        assert fm.parity_defect(odd) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 12, 3), (3, 24, 3), (4, 16, 3), (3, 12, 4),
                                   (4, 16, 4), (3, 12, 5)]),
        parity=st.sampled_from(["even", "odd"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_flip_property(self, space_key, parity, seed):
        form = random_form(*space_key, np.random.default_rng(seed), parity=parity)
        if form.p % 2 == 0:
            form = form.plus(fm.degenerate_projection(form).scaled(-1.0))
        assert form.parity == parity
        divided = fm.normal_form_divide(form)
        assert divided.parity == {"even": "odd", "odd": "even"}[parity]
        assert fm.parity_defect(divided) < 1e-12


class TestProjection:
    def test_idempotent(self, rng):
        form = random_form(3, 24, 4, rng)
        once = fm.degenerate_projection(form)
        twice = fm.degenerate_projection(once)
        assert np.array_equal(once.values, twice.values)

    def test_odd_form_annihilated_on_diagonal(self, rng):
        odd = random_form(3, 24, 4, rng, parity="odd")
        projected = fm.degenerate_projection(odd)
        for _ in range(5):
            f = random_field(3, 24, rng)
            scale = np.sum(np.abs(projected.values)) * np.max(np.abs(f.coeffs)) ** 4
            assert abs(fm.evaluate_diagonal(projected, f)) <= 1e-13 * scale

    def test_supported_off_degenerate_set_maps_to_zero(self, rng):
        form = random_form(3, 24, 4, rng)
        off = form.plus(fm.degenerate_projection(form).scaled(-1.0))
        assert np.all(fm.degenerate_projection(off).values == 0)

    def test_odd_arity_rejected(self, rng):
        with pytest.raises(ValueError):
            fm.degenerate_projection(random_form(3, 12, 3, rng))


class TestExtensions:
    def test_zero_form_maps_to_zero(self):
        zero = fm.make_form(3, 12, 3, lambda mv: np.zeros(mv.shape[0]))
        assert np.all(fm.nonlinearity_extension(zero).values == 0)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_equal_argument_identity(self, p, rng):
        # oracle: replace one slot by the brute-force convolved N(f) directly
        form = random_form(3, 12, p, rng)
        extended = fm.nonlinearity_extension(form)
        for _ in range(3):
            f = random_field(3, 12, rng)
            inserted, _ = brute_nonlinearity(f)
            direct = p * fm.evaluate(form, [inserted] + [f] * (p - 1))
            table = fm.evaluate_diagonal(extended, f)
            assert table == pytest.approx(direct, rel=1e-12)

    def test_parity_bookkeeping(self, rng):
        even = random_form(3, 12, 4, rng, parity="even")
        extended = fm.nonlinearity_extension(even)
        assert extended.parity == "odd"
        assert fm.parity_defect(extended) < 1e-12

    def test_arity_overflow(self, rng):
        form = random_form(3, 12, 6, rng)
        with pytest.raises(ValueError):
            fm.nonlinearity_extension(form)


class TestEnergyForm:
    def test_odd_parity_exact(self):
        d3 = fm.build_energy_form(3, 24, 3.0)
        assert d3.parity == "odd"
        assert fm.parity_defect(d3) == 0.0

    def test_real_on_real_fields(self, rng):
        d3 = fm.build_energy_form(3, 24, 2.0)
        for _ in range(5):
            f = random_field(3, 24, rng, decay=3.0)
            value = fm.evaluate_diagonal(d3, f)
            assert abs(value.imag) <= 1e-12 * max(abs(value.real), 1e-30)


class TestChain:
    def test_parity_ladder(self):
        chain = fm.build_chain(3, 12, 2.0)
        derivatives = (chain.energy_derivative, *extension_derivatives(chain))
        assert [c.parity for c in chain.corrections] == ["even", "even", "even"]
        assert [d.parity for d in derivatives] == ["odd", "odd", "odd", "odd"]
        for form in chain.corrections + derivatives:
            assert fm.parity_defect(form) < 1e-10

    def test_insertion_matches_extension_tables(self, rng):
        chain = fm.build_chain(3, 12, 2.0)
        tables = extension_derivatives(chain)
        for _ in range(5):
            f = random_field(3, 12, rng, scale=0.05, decay=3.0)
            values = chain.derivative_values(f)
            assert values[0] == fm.evaluate_diagonal(chain.energy_derivative, f).real
            for value, table in zip(values[1:], tables):
                expected = fm.evaluate_diagonal(table, f).real
                assert value == pytest.approx(expected, rel=1e-12)

    def test_levels_real_and_finite(self, rng):
        chain = fm.build_chain(3, 12, 2.0)
        f = random_field(3, 12, rng, scale=0.05, decay=3.0)
        levels = chain.levels(f)
        assert np.all(np.isfinite(levels))
        assert chain.imaginary_defect(f) <= 1e-10

    @pytest.mark.parametrize("m,n_max,s", CHAIN_SIZES)
    def test_chain_matches_whole_table_oracle(self, m, n_max, s):
        chain = fm.build_chain(m, n_max, s)
        d3 = fm.build_energy_form(m, n_max, s)
        c3 = fm.normal_form_divide(d3).scaled(1j)
        d4 = whole_table_extension(c3).scaled(-1.0)
        c4 = fm.normal_form_divide(d4.plus(fm.degenerate_projection(d4).scaled(-1.0)))
        c4 = c4.scaled(1j)
        c5 = fm.normal_form_divide(whole_table_extension(c4).scaled(-1.0)).scaled(1j)
        built = (chain.energy_derivative, *chain.corrections)
        for form, expected in zip(built, (d3, c3, c4, c5)):
            assert_same_bits(form.values, expected.values)
        for p in (3, 4, 5):
            space = fm.tuple_space(m, n_max, p)
            rows = full_grid_rows(space)
            shape = (space.modes.shape[0],) * p
            assert_same_bits(np.ascontiguousarray(space.idx), rows)
            assert_same_bits(space.keys, np.ravel_multi_index(rows.T, shape))
            assert_same_bits(space.prefix, np.ravel_multi_index(rows[:, :-2].T, shape[2:]))
            for built_part, expected_part in zip(space.orbits, whole_table_orbits(space)):
                assert_same_bits(built_part, expected_part)

    def test_cold_build_peak_memory(self, monkeypatch):
        # the whole-table extension and stored mode table peaked at 9.46 MB;
        # copying every fresh table and sorting the quintic orbits while D5
        # was held, at 4.41 MB
        monkeypatch.setattr(fm, "_SPACE_CACHE", {})
        tracemalloc.start()
        try:
            fm.build_chain(3, 24, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.3e6

    def test_lifespan_experiment_builds_no_sextic_space(self, monkeypatch):
        monkeypatch.setattr(fm, "_SPACE_CACHE", {})
        monkeypatch.setattr(ev, "_CHAIN_CACHE", {})
        cfg = ev.SimConfig(m=3, n_max=12, s=2.0, dt=0.02, t_end=0.2,
                           diagnostics_stride=5)
        ev.lifespan_experiment([0.1, 0.05], cfg)
        assert sorted(p for _, _, p in fm._SPACE_CACHE) == [3, 4, 5]


class TestPersistence:
    def test_form_round_trip_bit_exact(self, tmp_path, rng):
        form = random_form(3, 12, 4, rng, parity="odd")
        path = tmp_path / "table.form"
        fm.save_form(form, path)
        loaded = fm.load_form(path)
        assert_same_bits(loaded.values, form.values)
        assert loaded.parity == form.parity
        assert loaded.space is form.space

    @settings(max_examples=30, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 12, 3), (3, 12, 4), (4, 16, 4), (3, 12, 5)]),
        parity=st.sampled_from(["even", "odd", "none"]),
        label=st.text(max_size=12),
        symmetric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 300),
    )
    def test_form_round_trip_property(self, space_key, parity, label, symmetric,
                                      seed, spread):
        space = fm.tuple_space(*space_key)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-spread, spread, size=space.count)
        values = scale * (rng.normal(size=space.count) + 1j * rng.normal(size=space.count))
        values[rng.random(space.count) < 0.1] = -0.0
        form = fm.MultilinearForm(space, values, parity=parity, label=label,
                                  symmetric=symmetric)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "table.form"
            fm.save_form(form, path)
            loaded = fm.load_form(path)
        assert loaded.values.tobytes() == form.values.tobytes()
        assert loaded.space is form.space
        assert (loaded.parity, loaded.label, loaded.symmetric) == (parity, label, symmetric)

    @pytest.mark.parametrize("cut", [3, 16])
    def test_truncated_table_rejected(self, tmp_path, rng, cut):
        path = tmp_path / "table.form"
        fm.save_form(random_form(3, 12, 4, rng), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="bytes, expected"):
            fm.load_form(path)
