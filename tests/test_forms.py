"""Multilinear form algebra: evaluation, division, projection, extensions.

The direct-substitution oracles build the inserted product fields by
brute-force convolution (conftest) and evaluate the lower-arity form
slot by slot, independently of the table-level pair-merging code.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_bits,
    brute_nonlinearity,
    make_form,
    random_field,
    reduction_product,
    whole_table_evaluate,
    whole_table_extension,
    whole_table_orbits,
)
from sqglab import evolve as ev
from sqglab import forms as fm
from sqglab import resonance as rs
from sqglab.field import SpectralField, differentiate, nonlinearity, smooth


def random_form(m, n_max, p, rng, parity=None):
    space = fm.tuple_space(m, n_max, p)
    values = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
    form = make_form(m, n_max, p, lambda mv: values)
    if parity is None:
        return form
    # project onto the requested parity sector, keeping the table symmetric:
    # row count-1-r holds the negated modes of row r
    assert np.array_equal(space.idx[::-1], space.modes.shape[0] - 1 - space.idx)
    sign = 1.0 if parity == "even" else -1.0
    projected = 0.5 * (form.values + sign * form.values[::-1])
    return fm.MultilinearForm(space, projected, symmetric=True)


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


def narrow(top):
    """The documented storage dtype of the integers 0..top: the smallest
    unsigned one."""
    return np.dtype(np.uint8 if top < 2**8 else np.uint16 if top < 2**16 else np.uint32)


def drawn_field(m, n_max, rng, spread, zero_share):
    """A field whose amplitudes spread over 10^+-spread, with exact zeros:
    whole amplitudes, and real or imaginary parts of either sign."""
    k = n_max // m
    scale = 10.0 ** rng.uniform(-spread, spread, size=k)
    coeffs = scale * (rng.normal(size=k) + 1j * rng.normal(size=k))
    coeffs[rng.random(k) < zero_share] = 0.0
    coeffs.real[rng.random(k) < zero_share / 2] = -0.0
    coeffs.imag[rng.random(k) < zero_share / 2] = 0.0
    return SpectralField(m, n_max, coeffs)


def mirror_calls(monkeypatch):
    """(table rows, rows computed directly) of every product over a table."""
    calls = []
    mirror = fm._mirror

    def spy(product, rows):
        calls.append((product.shape[0], rows))
        mirror(product, rows)

    monkeypatch.setattr(fm, "_mirror", spy)
    return calls


class TestTupleSpace:
    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_keys_strictly_ascend(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        assert np.all(np.diff(space.ravel_keys(space.idx)) > 0)

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_negation_reverses_rows(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        assert_same_bits(space.idx[::-1], space.modes.shape[0] - 1 - space.idx)

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_rows_match_full_candidate_grid(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        size = space.modes.shape[0]
        assert space.idx.dtype == narrow(size - 1)
        rows = full_grid_rows(space)
        assert_same_bits(np.ascontiguousarray(space.idx), rows.astype(narrow(size - 1)))
        assert space.idx.flags.f_contiguous and space.mode_values.flags.f_contiguous
        prefix = np.zeros(space.count, dtype=np.int64)
        for j in range(p - 2):
            prefix = prefix * size + rows[:, j]
        assert space.prefix.dtype == narrow(size ** (p - 2) - 1)
        assert_same_bits(space.prefix, prefix.astype(narrow(size ** (p - 2) - 1)))

    @pytest.mark.parametrize("p", range(3, fm.MAX_ARITY + 1))
    def test_table_row_limit(self, p):
        k = fm.max_table_harmonics(p)
        assert (2 * k) ** (p - 1) <= fm.MAX_TABLE_ROWS < (2 * k + 2) ** (p - 1)
        with pytest.raises(ValueError, match=f"would need {(2 * k + 2) ** (p - 1)} "):
            fm.TupleSpace(5, 5 * (k + 1), p)

    @pytest.mark.parametrize("m,n_max,p", SPACES)
    def test_exact_facts_row_by_row(self, m, n_max, p):
        space = fm.tuple_space(m, n_max, p)
        frequency_sum = space.orbits.frequency_sum[space.orbits.inverse]
        resonant = space.resonant
        for i, row in enumerate(space.mode_values):
            exact = rs.lambda_sum(row)
            assert frequency_sum[i] == float(exact)
            assert resonant[i] == (exact == 0)
            # the lemma that the resonant projection rests on
            assert resonant[i] == rs.is_totally_degenerate(row)

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


class TestNarrowIndices:
    """Tables stored in one or two bytes per index, widened where they index
    or multiply, give the bits of the int64 tables."""

    def test_two_byte_tables_match_the_int64_oracle(self, rng):
        # 130 harmonics: 260 modes, more than one byte indexes
        space = fm.tuple_space(3, 390, 3)
        rows = full_grid_rows(space)
        assert space.idx.dtype == narrow(space.modes.shape[0] - 1) == np.uint16
        assert_same_bits(np.ascontiguousarray(space.idx), rows.astype(np.uint16))
        assert space.prefix.dtype == np.uint16
        assert_same_bits(space.prefix, rows[:, 0].astype(np.uint16))
        inverse, *facts = whole_table_orbits(space)
        orbits = space.orbits
        assert orbits.inverse.dtype == narrow(orbits.counts.shape[0] - 1) == np.uint16
        assert_same_bits(orbits.inverse, inverse.astype(np.uint16))
        for built_part, expected_part in zip(orbits[1:], facts):
            assert_same_bits(built_part, expected_part)
        values = rng.normal(size=space.count) + 1j * rng.normal(size=space.count)
        form = fm.MultilinearForm(space, 0.5 * (values + np.conj(values[::-1])))
        assert form.conjugate_symmetric
        f, g = (drawn_field(3, 390, rng, 4, 0.0) for _ in range(2))
        args = [g, f, f]
        assert_same_bits(fm.evaluate(form, args), whole_table_evaluate(form, args))
        product = reduction_product(space, fm._mode_amplitudes(f, space))
        assert_same_bits(fm.evaluate_diagonal(form, f), complex((form.values * product).sum()))

    @pytest.mark.parametrize("block", [1, 2, 3, 1000, 4096])
    def test_row_blocks_round_as_the_whole_table(self, monkeypatch, block):
        """Blocks of any size, one row included, with a last block shorter
        than the rest (C5 has 1,015 rows in its half table and 2,030 in all),
        give the bits of a whole-table pass, over half the rows and over all
        of them."""
        chain = fm.build_chain(3, 12, 2.0)
        c4, c5 = chain.corrections[1:]
        monkeypatch.setattr(fm, "ROW_BLOCK", block)
        calls = mirror_calls(monkeypatch)
        f = drawn_field(3, 12, np.random.default_rng(block), 4, 0.0)
        coeffs = f.coeffs.copy()
        coeffs.imag[1] = 0.0  # an exact-zero component: every row is computed
        for g in (f, f.with_coeffs(coeffs)):
            amp = fm._mode_amplitudes(g, c5.space)
            product = reduction_product(c5.space, amp)
            assert_same_bits(fm._diagonal_product(c5.space, amp), product)
            np.multiply(c5.values, product, out=product)
            assert_same_bits(fm.evaluate_diagonal(c5, g), complex(product.sum()))
            args = [nonlinearity(g)] + [g] * 4
            assert_same_bits(fm.evaluate(c5, args), whole_table_evaluate(c5, args))
        count = c5.space.count
        assert calls == [(count, count // 2)] * 3 + [(count, count)] * 3
        assert_same_bits(fm.nonlinearity_extension(c4).values,
                         whole_table_extension(c4).values)


class TestValueTable:
    def test_plus_compares_lattices_not_objects(self, rng):
        a, b = random_form(3, 12, 3, rng), random_form(3, 12, 3, rng)
        assert a.space is not b.space
        assert_same_bits(a.plus(b).values, a.values + b.values)
        for other in (random_form(3, 15, 3, rng), random_form(3, 12, 4, rng)):
            with pytest.raises(ValueError, match="different tuple spaces"):
                a.plus(other)

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
        one = make_form(3, 12, 3, lambda mv: np.ones(mv.shape[0]))
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

    @settings(max_examples=120, deadline=None)
    @given(
        chain_key=st.sampled_from(CHAIN_SIZES[:4]),
        kind=st.sampled_from(["C3", "C4", "C5", "D3", "random", "random-conjugate",
                              "zero"]),
        seed=st.integers(0, 2**32 - 1),
        spread=st.integers(0, 8),
        # drawn twice as often: only fields without zeros take the half table
        zero_share=st.sampled_from([0.0, 0.0, 0.2, 0.5, 1.0]),
    )
    def test_evaluate_matches_whole_table(self, chain_key, kind, seed, spread,
                                          zero_share):
        m, n_max, s = chain_key
        chain = fm.build_chain(m, n_max, s)
        rng = np.random.default_rng(seed)
        if kind in ("C3", "C4", "C5"):
            form = chain.corrections[int(kind[1]) - 3]
        elif kind == "D3":
            form = chain.energy_derivative
        else:
            form = random_form(m, n_max, int(rng.integers(3, 6)), rng)
            if kind == "random-conjugate":
                values = 0.5 * (form.values + np.conj(form.values[::-1]))
                form = fm.MultilinearForm(form.space, values)
                assert form.conjugate_symmetric
            elif kind == "zero":
                form = fm.MultilinearForm(form.space, np.zeros(form.space.count))
        fields = [drawn_field(m, n_max, rng, spread, zero_share) for _ in range(2)]
        args = fields[:1] + fields[1:] * (form.p - 1)
        assert_same_bits(fm.evaluate(form, args), whole_table_evaluate(form, args))
        other = [drawn_field(m, n_max, rng, spread, zero_share) for _ in range(form.p)]
        assert_same_bits(fm.evaluate(form, other), whole_table_evaluate(form, other))

    def test_half_table_for_every_chain_form(self, monkeypatch):
        calls = mirror_calls(monkeypatch)
        chain = fm.build_chain(3, 24, 3.0)
        f = ev.initial_state(ev.SimConfig(m=3, n_max=24, s=3.0, epsilon=0.1))
        chain.levels(f)
        chain._derivatives(f, inserted=nonlinearity(f))
        # C3, C4, C5 diagonals; D3 diagonal and C3, C4, C5 insertions
        assert len(calls) == 7
        assert all(rows == count // 2 for count, rows in calls)
        for form in chain.corrections + (chain.energy_derivative,):
            assert form.conjugate_symmetric

        # a zero or -0 amplitude component takes every row
        c5 = chain.corrections[2]
        for part in ("zero", "real", "imag"):
            coeffs = f.coeffs.copy()
            if part == "zero":
                coeffs[3] = 0.0
            elif part == "real":
                coeffs.real[3] = -0.0
            else:
                coeffs.imag[3] = -0.0
            g = f.with_coeffs(coeffs)
            del calls[:]
            fm.evaluate_diagonal(c5, g)
            fm.evaluate(c5, [nonlinearity(f)] + [g] * 4)
            assert calls == [(c5.space.count, c5.space.count)] * 2

        # so does a form that is not conjugate-symmetric, in ``evaluate`` only
        form = random_form(3, 24, 4, np.random.default_rng(7))
        assert not form.conjugate_symmetric
        del calls[:]
        fm.evaluate(form, [f] * 4)
        fm.evaluate_diagonal(form, f)
        count = form.space.count
        assert calls == [(count, count), (count, count // 2)]

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
            form = form.plus(fm.resonant_projection(form).scaled(-1.0))
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
        form = make_form(3, 12, 4, lambda mv: np.ones(mv.shape[0]))
        with pytest.raises(fm.ResonanceError) as info:
            fm.normal_form_divide(form)
        assert sum(info.value.resonant_tuple) == 0

    def test_cubic_never_resonates(self, rng):
        form = random_form(3, 24, 3, rng)
        divided = fm.normal_form_divide(form)
        # denominators at arity 3 stay above 1
        assert np.max(np.abs(divided.values)) <= 2.5 * np.max(np.abs(form.values))

    def test_parity_flip(self, rng):
        odd = random_form(3, 12, 3, rng, parity="odd")
        assert fm.parity_defect(odd, "odd") < 1e-12
        divided = fm.normal_form_divide(odd)
        assert fm.parity_defect(divided, "even") < 1e-12

    def test_parity_defect_checks_every_row(self):
        # 526,672 rows, of which only the first (its negation is the last)
        # breaks odd parity
        space = fm.TupleSpace(3, 24, 6)
        values = space.mode_values[:, 0].astype(np.complex128)  # odd under n -> -n
        values[0] += 1.0
        odd = fm.MultilinearForm(space, values)
        assert fm.parity_defect(odd, "odd") == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        space_key=st.sampled_from([(3, 12, 3), (3, 24, 3), (4, 16, 3), (3, 12, 4),
                                   (4, 16, 4), (3, 12, 5)]),
        parity=st.sampled_from(["even", "odd"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_flip_property(self, space_key, parity, seed):
        form = random_form(*space_key, np.random.default_rng(seed), parity=parity)
        form = form.plus(fm.resonant_projection(form).scaled(-1.0))
        assert fm.parity_defect(form, parity) < 1e-12
        divided = fm.normal_form_divide(form)
        assert fm.parity_defect(divided, {"even": "odd", "odd": "even"}[parity]) < 1e-12


class TestProjection:
    def test_idempotent(self, rng):
        form = random_form(3, 24, 4, rng)
        once = fm.resonant_projection(form)
        twice = fm.resonant_projection(once)
        assert np.array_equal(once.values, twice.values)

    def test_odd_form_annihilated_on_diagonal(self, rng):
        odd = random_form(3, 24, 4, rng, parity="odd")
        projected = fm.resonant_projection(odd)
        for _ in range(5):
            f = random_field(3, 24, rng)
            scale = np.sum(np.abs(projected.values)) * np.max(np.abs(f.coeffs)) ** 4
            assert abs(fm.evaluate_diagonal(projected, f)) <= 1e-13 * scale

    def test_supported_off_degenerate_set_maps_to_zero(self, rng):
        form = random_form(3, 24, 4, rng)
        off = form.plus(fm.resonant_projection(form).scaled(-1.0))
        assert np.all(fm.resonant_projection(off).values == 0)

    def test_odd_arity_projects_to_zero(self, rng):
        # arities 3 and 5 have no resonant tuple
        for space_key in [(3, 12, 3), (3, 12, 5), (4, 16, 5)]:
            form = random_form(*space_key, rng)
            zero = np.zeros(form.space.count, dtype=np.complex128)
            assert_same_bits(fm.resonant_projection(form).values, zero)


class TestExtensions:
    def test_zero_form_maps_to_zero(self):
        zero = make_form(3, 12, 3, lambda mv: np.zeros(mv.shape[0]))
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
        assert fm.parity_defect(extended, "odd") < 1e-12

    def test_arity_overflow(self, rng):
        form = random_form(3, 12, 6, rng)
        with pytest.raises(ValueError):
            fm.nonlinearity_extension(form)


class TestEnergyForm:
    def test_odd_parity_exact(self):
        d3 = fm.build_energy_form(3, 24, 3.0)
        assert fm.parity_defect(d3, "odd") == 0.0

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
        for form in chain.corrections:
            assert fm.parity_defect(form, "even") < 1e-10
        for form in derivatives:
            assert fm.parity_defect(form, "odd") < 1e-10

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
        c4 = fm.normal_form_divide(d4.plus(fm.resonant_projection(d4).scaled(-1.0)))
        c4 = c4.scaled(1j)
        c5 = fm.normal_form_divide(whole_table_extension(c4).scaled(-1.0)).scaled(1j)
        built = (chain.energy_derivative, *chain.corrections)
        for form, expected in zip(built, (d3, c3, c4, c5)):
            assert_same_bits(form.values, expected.values)
        for form in built[1:]:
            space = form.space
            size = space.modes.shape[0]
            rows = full_grid_rows(space)
            shape = (size,) * space.p
            assert space.idx.dtype == narrow(size - 1)
            assert_same_bits(np.ascontiguousarray(space.idx), rows.astype(narrow(size - 1)))
            keys = np.ravel_multi_index(rows.T, shape)
            assert_same_bits(space.ravel_keys(space.idx), keys)
            prefix = np.ravel_multi_index(rows[:, :-2].T, shape[2:])
            assert space.prefix.dtype == narrow(size ** (space.p - 2) - 1)
            assert_same_bits(space.prefix, prefix.astype(narrow(size ** (space.p - 2) - 1)))
            inverse, *facts = whole_table_orbits(space)
            orbits = space.orbits
            assert orbits.inverse.dtype == narrow(orbits.counts.shape[0] - 1)
            assert_same_bits(orbits.inverse, inverse.astype(narrow(orbits.counts.shape[0] - 1)))
            for built_part, expected_part in zip(orbits[1:], facts):
                assert_same_bits(built_part, expected_part)

    def test_cold_build_peak_memory(self):
        # the whole-table extension and stored mode table peaked at 9.46 MB;
        # copying every fresh table and sorting the quintic orbits while D5
        # was held, at 4.41 MB; eight-byte index tables, at 3.54 MB
        tracemalloc.start()
        try:
            fm.build_chain(3, 24, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.9e6

    def test_cold_build_held_memory(self):
        # a tuple space that also stored its raveled keys held 14.07 MB here,
        # and with eight-byte index and orbit tables 12.51 MB
        tracemalloc.start()
        try:
            chain = fm.build_chain(3, 36, 3.0)  # held, as a caller holds it
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del chain
        assert held <= 6.5e6

    def test_whole_table_evaluate_peak_memory(self):
        # the product, one gather buffer of half the rows and the intp copy
        # that ``take`` makes of one block's narrow index column; a
        # full-length buffer and block peaked at 1.43 MB, and glibc mapped
        # the product and the buffer afresh at every call
        c5 = fm.build_chain(3, 24, 3.0).corrections[2]
        f = ev.initial_state(ev.SimConfig(m=3, n_max=24, s=3.0, epsilon=0.1))
        coeffs = f.coeffs.copy()
        coeffs.imag[1] = 0.0  # an exact-zero component: every row is computed
        g = f.with_coeffs(coeffs)
        args = [nonlinearity(g)] + [g] * 4
        count = c5.space.count
        amplitudes = [fm._mode_amplitudes(h, c5.space) for h in args]
        assert fm._direct_rows(c5.space, amplitudes, c5) == count
        fm.evaluate(c5, args)
        tracemalloc.start()
        try:
            fm.evaluate(c5, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * 16 + (count + 1) // 2 * (16 + 8) + 4096

    def test_record_evaluation_holds_nothing(self):
        # one record of a sweep: the levels and the measured derivatives.
        # Widened index blocks and a fresh array for every operation of the
        # diagonal product peaked at 1.36 MB in ``levels``; the derivatives
        # peak at 1.00 MB, mostly the product over C5's table.
        chain = fm.build_chain(3, 24, 3.0)
        f = ev.initial_state(ev.SimConfig(m=3, n_max=24, s=3.0, epsilon=0.1))
        inserted = nonlinearity(f)
        forms = list(chain.corrections) + [chain.energy_derivative]
        spaces = list({id(form.space): form.space for form in forms}.values())
        steps = [
            ("levels", lambda: chain.levels(f), 1.1e6),
            ("derivatives",
             lambda: chain._derivatives(f, ev._MEASURED_LEVELS, inserted), 1.1e6),
        ]
        attributes = [set(vars(item)) for item in spaces + forms]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _, call, _ in steps:
                call()
            first = tracemalloc.get_traced_memory()[0] - start
            for name, call, bound in steps:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call()
                held, peak = (value - start for value in tracemalloc.get_traced_memory())
                assert held < 1e3, (name, held)
                assert peak <= bound, (name, peak)
        finally:
            tracemalloc.stop()
        # the first record builds the prefix ids and decides conjugate
        # symmetry; it keeps nothing else
        added = [set(vars(item)) - had for item, had in zip(spaces + forms, attributes)]
        assert all(new <= {"prefix"} for new in added[:len(spaces)])
        assert all(new <= {"conjugate_symmetric"} for new in added[len(spaces):])
        assert first - sum(space.prefix.nbytes for space in spaces) < 4e3

    @pytest.mark.parametrize("args,name", [
        ((3, 12, float("nan")), "s"),
        ((3, 12, float("inf")), "s"),
        ((3, 12, True), "s"),
        ((3, 12, -1.0), "s"),
        ((3, 13, 3.0), "n_max"),
        ((3, 0, 3.0), "n_max"),
        ((3, 12.0, 3.0), "n_max"),
        ((3.5, 12, 3.0), "m"),
        ((2, 12, 3.0), "m"),
        ((True, 12, 3.0), "m"),
        # (1 + 24^2)^200 is past 2^900, where the chain overflows
        ((3, 24, 200.0), "s"),
        ((3, 12, 126.0), "s"),
    ])
    def test_bad_arguments_rejected_by_name(self, args, name, monkeypatch):
        def no_table(*args):
            raise AssertionError("a tuple table was built")

        monkeypatch.setattr(fm, "tuple_space", no_table)
        for build in (fm.build_chain, fm.build_energy_form):
            with pytest.raises(ValueError, match=f"^{name}: "):
                build(*args)

    def test_lifespan_experiment_builds_no_sextic_space(self, monkeypatch):
        tuple_space, arities = fm.tuple_space, []

        def recorded(m, n_max, p):
            arities.append(p)
            return tuple_space(m, n_max, p)

        monkeypatch.setattr(fm, "tuple_space", recorded)
        cfg = ev.SimConfig(m=3, n_max=12, s=2.0, dt=0.02, t_end=0.2,
                           diagnostics_stride=5)
        ev.lifespan_experiment([0.1, 0.05], cfg)
        assert sorted(arities) == [3, 4, 5]

