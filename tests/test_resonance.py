"""Exact frequency-sum arithmetic and the exhaustive search machinery.

Small-radius searches are cross-checked against an unpruned itertools
enumeration, a Fraction enumeration of every sign split over multisets and
an independent multiset count of the degenerate tuples; larger ones against
certificates kept under ``tests/certificates``.
"""

import itertools
import re
import tempfile
import tracemalloc
from fractions import Fraction
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqglab import resonance as rs
from sqglab.dispersion import dispersion, lam_float

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
CERTIFICATES = Path(__file__).resolve().parent / "certificates"


class TestLambdaSum:
    def test_reference_values(self):
        assert rs.lambda_sum((3, 3, -6)) == Fraction(337, 160)
        assert rs.lambda_sum((5, 3, -4, -4)) == Fraction(17, 70)
        assert rs.lambda_sum((4, -4, 9, -9)) == 0
        assert rs.lambda_sum((3, -3, 3, -3)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            rs.lambda_sum((3, 4, -6))  # sum != 0
        with pytest.raises(ValueError):
            rs.lambda_sum((2, 4, -6))  # |entry| < 3

    def test_negation_antisymmetry(self, rng):
        for _ in range(50):
            entries = rng.integers(3, 40, size=4)
            signs = rng.choice([-1, 1], size=4)
            head = list(entries * signs)
            tail = -sum(head)
            if abs(tail) < 3:
                continue
            t = head + [tail]
            assert rs.lambda_sum([-n for n in t]) == -rs.lambda_sum(t)

    @settings(max_examples=60, deadline=None)
    @given(
        heads=st.integers(2, 5).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(3, 60).flatmap(lambda n: st.sampled_from([n, -n])),
                         min_size=k, max_size=k).filter(lambda h: abs(sum(h)) >= 3),
                min_size=1, max_size=6,
            )
        )
    )
    @example(heads=[])
    def test_lambda_sums_match_fraction_sums(self, heads):
        # one Fraction per distinct mode and one reduction per row give the
        # sums of adding each entry's Fraction in turn
        rows = [h + [-sum(h)] for h in heads]
        expected = [sum((dispersion(n) for n in row), Fraction(0)) for row in rows]
        assert rs.lambda_sums(rows) == expected
        assert rs.lambda_sums(np.array(rows)) == expected
        assert [rs.lambda_sum(row) for row in rows] == expected

    @pytest.mark.parametrize("bad", [(3, 4, -6), (2, 4, -6)])
    def test_lambda_sums_validation(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"tuple {bad} ")):
            rs.lambda_sums(np.array([(3, 3, -6), bad]))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: rs.check_tuple((3.9, 3, -6.9)), "has a non-integer entry 3.9"),
            (lambda: rs.check_tuple((3.5, 3, -6.5)), "has a non-integer entry 3.5"),
            (lambda: rs.lambda_sum((3.9, 3, -6.9)), "has a non-integer entry 3.9"),
            (lambda: rs.lambda_sums([(3, 3, -6), (3.5, 3, -6.5)]), "has a non-integer entry 3.5"),
            (lambda: rs.lambda_sums(np.array([(3.5, 3, -6.5)])), "has a non-integer entry 3.5"),
            (lambda: rs.lambda_sums([(3, 3, -6), (3.0, 3, -6)]), "has a non-integer entry 3.0"),
            (lambda: rs.lambda_sum((True, 3, -4)), "has a non-integer entry True"),
        ],
    )
    def test_non_integer_entry_is_named(self, call, message):
        """A float or boolean entry is refused, not truncated to an integer."""
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_numpy_and_big_integers(self):
        """NumPy integers pass; integers beyond int64, and beyond float range,
        are summed exactly."""
        assert rs.check_tuple(np.array([3, 3, -6], dtype=np.int16)) == (3, 3, -6)
        assert rs.lambda_sums(np.array([(3, 3, -6)], dtype=np.int16)) == [Fraction(337, 160)]
        for big in (2**63, 10**400):
            expected = dispersion(3) + dispersion(big) + dispersion(-(big + 3))
            assert rs.lambda_sum((3, big, -(big + 3))) == expected != 0


class TestDegeneracy:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((3, -3, 6, -6), True),
            ((5, 3, -4, -4), False),
            ((3, -3, 3, -3), True),
            ((3, 3, -3, -3), True),
            ((3, 3, -6), False),  # odd arity is never degenerate
            ((7, -7, 9, -9, 12, -12), True),
        ],
    )
    def test_examples(self, entries, expected):
        assert rs.is_totally_degenerate(entries) is expected

    @pytest.mark.parametrize(
        "entries", [(3, -3, 5), (2, -2, 3, -3), (3.9, 3, -6.9), (3.5, -3, 4, -4.2)]
    )
    def test_rejected_inputs(self, entries):
        """What ``check_tuple`` refuses is refused, not truncated: a non-zero
        sum, a mode below 3, a non-integer entry."""
        for call in (rs.is_totally_degenerate, rs.canonical_tuple):
            with pytest.raises(ValueError, match=re.escape(f"tuple {entries} ")):
                call(entries)

    def test_degenerate_implies_zero_sum(self, rng):
        for _ in range(50):
            pairs = rng.integers(3, 30, size=3)
            tup = [int(x) for k in pairs for x in (k, -k)]
            rng.shuffle(tup)
            assert rs.is_totally_degenerate(tup)
            assert rs.lambda_sum(tup) == 0


def brute_force_min(p, bound):
    """Unpruned itertools enumeration: exact minimum and degenerate count."""
    values = [n for n in range(-bound, bound + 1) if abs(n) >= 3]
    best = None
    degenerate = 0
    scanned = 0
    for head in itertools.product(values, repeat=p - 1):
        tail = -sum(head)
        if abs(tail) < 3 or abs(tail) > bound:
            continue
        scanned += 1
        t = head + (tail,)
        if rs.is_totally_degenerate(t):
            degenerate += 1
            continue
        value = abs(sum((dispersion(n) for n in t), Fraction(0)))
        if best is None or value < best:
            best = value
    return best, degenerate, scanned


def brute_force_scaling(bound):
    """Unpruned itertools enumeration of ordered 4-tuples: for each min |n_j|,
    the exact minimum of |frequency sum| over the nondegenerate tuples."""
    values = [n for n in range(-bound, bound + 1) if abs(n) >= 3]
    lam = {n: dispersion(n) for n in values}
    best = {}
    for head in itertools.product(values, repeat=3):
        tail = -sum(head)
        if abs(tail) < 3 or abs(tail) > bound:
            continue
        t = head + (tail,)
        if sorted(t) == sorted(-n for n in t):
            continue  # the multiset is its own negation: (k, -k) pairs
        smallest = min(abs(n) for n in t)
        value = abs(sum((lam[n] for n in t), Fraction(0)))
        best[smallest] = min(value, best.get(smallest, value))
    return best


def search(p, bound):
    if p == 6:
        return rs.search_resonances_p6(bound)
    return rs.min_denominator(p, bound)


class TestSearches:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_matches_unpruned_enumeration(self, p):
        report = rs.min_denominator(p, 10)
        oracle_min, oracle_degenerate, oracle_scanned = brute_force_min(p, 10)
        assert report.min_value == oracle_min
        assert report.degenerate_count == oracle_degenerate
        assert report.tuples_scanned == oracle_scanned
        assert rs.lambda_sum(report.argmin) in (report.min_value, -report.min_value)

    def test_p3_bound(self):
        report = rs.min_denominator(3, 50)
        assert report.min_value > 1
        assert report.exact_zero_tuples == []
        assert report.degenerate_count == 0

    def test_p5_bound(self):
        report = rs.min_denominator(5, 14)
        assert report.min_value >= Fraction(9, 35)
        assert report.exact_zero_tuples == []

    def test_p4_zero_iff_degenerate_and_scaling(self):
        report = rs.min_denominator(4, 24)
        assert report.exact_zero_tuples == []
        assert report.degenerate_count > 0
        assert report.min_value > 0
        # min |n_j| in {23, 24} forces total degeneracy, so keys stop at 22
        assert set(report.scaling_by_min) == set(range(3, 23))
        fitted = min(float(v) * k**4 for k, v in report.scaling_by_min.items())
        assert fitted > 0
        # the per-minimum values decrease as the smallest entry grows
        assert report.scaling_by_min[3] > report.scaling_by_min[22]

    @pytest.mark.parametrize("bound", [10, 16])
    def test_scaling_by_min_matches_unpruned_enumeration(self, bound):
        report = rs.min_denominator(4, bound)
        assert report.scaling_by_min == brute_force_scaling(bound)

    def test_scaling_by_min_decays_like_18_over_v4(self):
        """v^4 M_v < 18 < (v + 1)^4 M_v for every v from 4, exactly; at v = 3,
        3^4 M_3 = 19.67 exceeds 18."""
        table = rs.min_denominator(4, 200).scaling_by_min
        assert set(table) == set(range(3, 199))
        assert 3**4 * table[3] > 18
        for v in range(4, 199):
            assert v**4 * table[v] < 18 < (v + 1) ** 4 * table[v]

    def test_search_disagreeing_with_quartic_law_raises(self, monkeypatch):
        search = rs._search

        def wrong_minimum(p, bound):
            report = search(p, bound)
            report.min_value *= 2
            return report

        monkeypatch.setattr(rs, "_search", wrong_minimum)
        with pytest.raises(AssertionError, match="p=4 minimum"):
            rs.min_denominator(4, 60)

    @pytest.mark.parametrize("p", [3, 5])
    def test_exact_zero_violates_proven_bound(self, monkeypatch, p):
        """A search that reports an exact resonance at p = 3 or 5 contradicts
        the proven bound: it raises rather than being certified."""
        search = rs._search

        def with_zero(p, bound):
            report = search(p, bound)
            report.min_value, report.exact_zero_tuples = Fraction(0), [report.argmin]
            return report

        monkeypatch.setattr(rs, "_search", with_zero)
        with pytest.raises(AssertionError, match=f"p={p} minimum 0 violates the proven bound"):
            rs.min_denominator(p, 12)

    @pytest.mark.parametrize("minimum", [Fraction(1), Fraction(1, 2)], ids=["at_1", "below_1"])
    def test_cubic_minimum_at_or_below_one_raises(self, monkeypatch, minimum):
        """Every triple's |frequency sum| exceeds 1, so a p = 3 report at 1,
        the infimum, or below it is rejected."""
        search = rs._search

        def low(p, bound):
            report = search(p, bound)
            report.min_value = minimum
            return report

        monkeypatch.setattr(rs, "_search", low)
        with pytest.raises(AssertionError, match=f"p=3 minimum {minimum} violates"):
            rs.min_denominator(3, 12)

    @pytest.mark.parametrize("p", [4, 5, 6])
    def test_search_at_unbalanced_bound_raises(self, monkeypatch, p):
        """A near-balanced minimum at the lemma's bound for the unbalanced
        splits could hide a smaller unsearched tuple: it raises."""
        balanced_search = rs._search

        def at_bound(p, bound):
            report = balanced_search(p, bound)
            report.min_value = rs.UNBALANCED_BOUNDS[p]
            return report

        monkeypatch.setattr(rs, "_search", at_bound)
        with pytest.raises(AssertionError, match=f"p={p} minimum .* unbalanced"):
            search(p, 12)

    def test_unbalanced_bounds_are_the_least_over_splits(self):
        """Each bound is the least (q' - r') - 3 r'/5 over the unbalanced
        splits, q' >= r' + 2 and r' >= 1; p = 3 has none."""
        for p in (3, 4, 5, 6):
            bounds = [Fraction(p - 2 * r) - Fraction(3 * r, 5)
                      for r in range(1, p) if p - 2 * r >= 2]
            assert rs.UNBALANCED_BOUNDS.get(p) == min(bounds, default=None)

    def test_quartic_search_scans_once_per_chunk(self, monkeypatch):
        """p = 4 runs one window per momentum group, and builds the rows of
        its pairs only."""
        windows, rows = [], []
        window, multiset = rs._window, rs._multiset

        def counted_window(*args):
            pairs, nearest = window(*args)
            windows.append(len(pairs))
            return pairs, nearest

        def counted_multiset(*args):
            rows.append(multiset(*args))
            return rows[-1]

        monkeypatch.setattr(rs, "_window", counted_window)
        monkeypatch.setattr(rs, "_multiset", counted_multiset)
        rs.min_denominator(4, 60)
        assert len(windows) == 2 * 60 - 2 * 3 + 1
        assert 0 < len(rows) <= 2 * sum(windows) < len(windows) * 4

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            rs.min_denominator(6, 20)
        with pytest.raises(ValueError):
            rs.min_denominator(3, 8)

    @pytest.mark.parametrize(
        "search,args,message",
        [
            (rs.min_denominator, (5, 9.5), "bound: must be an integer >= 9"),
            (rs.min_denominator, (4, True), "bound: must be an integer >= 9"),
            (rs.search_resonances_p6, (12.0,), "bound: must be an integer >= 9"),
            (rs.min_denominator, (3.0, 9), "p: must be one of 3, 4, 5"),
            (rs.min_denominator, (6, 8),
             "p: must be one of 3, 4, 5; bound: must be an integer >= 9"),
            (rs.min_denominator, (7, 10**30), "p: must be one of 3, 4, 5"),
        ],
    )
    def test_arguments_follow_run_config_number_rules(self, search, args, message):
        with pytest.raises(ValueError) as info:
            search(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_bound_limit(self, monkeypatch, p):
        """The largest bound keeps the C(N + q - 1, q) q-multisets of its
        N = bound - 2 magnitudes within MAX_ROWS and every mode below 2**15;
        it accepts every bound the ordered search took, and 174 for p = 6.
        Any bound above it is refused before a multiset is built."""
        bound, q = rs.max_bound(p), p - p // 2
        assert comb(bound - 2 + q - 1, q) <= rs.MAX_ROWS < comb(bound - 1 + q - 1, q)
        assert {3: 3164, 4: 3164, 5: 172, 6: 174}[p] <= bound < 2**15

        def unexpected(*args, **kwargs):
            raise AssertionError("a multiset was built")

        monkeypatch.setattr(rs, "_sums", unexpected)
        for excess in (1, 10**6, 10**30):
            with pytest.raises(ValueError) as info:
                search(p, bound + excess)
            assert str(info.value) == f"bound: must be at most {bound} for p={p}"

    @pytest.mark.parametrize(
        "p,bound,share", [(4, 12, 5e-3), (4, 60, 2e-5), (5, 12, 1e-4), (6, 12, 1e-4)]
    )
    def test_each_multiset_built_once(self, monkeypatch, p, bound, share):
        """Each momentum group's float sums are formed once, from the sorted
        q-multisets that can have a partner: all C(N + q - 1, q) of them for
        even p, those of momentum up to (p // 2) bound for odd p, whose
        (q - 1)-multisets are summed once too.  The sums are the multisets'
        lam sums, bit for bit, in ``_multiset`` order.  The windows build few
        p-tuples, at most two a group; exact confirmation sees at most
        ``share`` of the tuples scanned, and no degenerate one."""
        q, r = p - p // 2, p // 2
        top = (r if p % 2 else q) * bound
        total = sum(sum(row) <= top for row in
                    itertools.combinations_with_replacement(range(3, bound + 1), q))
        assert (total < comb(bound - 2 + q - 1, q)) == (p % 2 == 1)
        groups, built, confirmed, depth = [], [], [], [0]
        sums, window, exact = rs._sums, rs._window, rs._exact
        lam = [0.0] * 3 + [lam_float(n) for n in range(3, bound + 1)]

        def float_sum(row):
            return lam[row[0]] + float_sum(row[1:]) if len(row) > 1 else lam[row[0]]

        def counted_sums(k, momentum, low, table):
            depth[0] += 1
            made = sums(k, momentum, low, table)
            depth[0] -= 1
            if depth[0] == 0:
                groups.append((k, momentum, made))
            return made

        def counted_window(*args):
            pairs, nearest = window(*args)
            built.append(len(pairs))
            return pairs, nearest

        def nondegenerate(rows):
            assert not any(map(rs.is_totally_degenerate, rows))
            confirmed.extend(rows)
            return exact(rows)

        monkeypatch.setattr(rs, "_sums", counted_sums)
        monkeypatch.setattr(rs, "_window", counted_window)
        monkeypatch.setattr(rs, "_exact", nondegenerate)
        report = search(p, bound)
        for k in {q, r}:
            mine = [(momentum, made) for size, momentum, made in groups if size == k]
            assert [momentum for momentum, _ in mine] == list(range(3 * q, top + 1))
            rows = [rs._multiset(k, momentum, 3, bound, m)
                    for momentum, made in mine for m in range(len(made))]
            assert rows == sorted((row for row in itertools.combinations_with_replacement(
                range(3, bound + 1), k) if 3 * q <= sum(row) <= top),
                key=lambda row: (sum(row), row))
            assert [value for _, made in mine for value in made] == list(map(float_sum, rows))
            if k == q:
                assert len(rows) == total
        assert 0 < sum(built) <= 2 * len(built)
        assert 0 < len(confirmed) <= share * report.tuples_scanned

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_matches_reference_certificate(self, p, tmp_path):
        """Byte for byte, at bound 9 and at the benchmark's size."""
        references = sorted(REFERENCE.glob(f"p{p}_b*.json"))
        assert len(references) == 2
        for reference in references:
            bound = int(reference.stem.split("_b")[1])
            rs.certify(search(p, bound), tmp_path / reference.name)
            assert (tmp_path / reference.name).read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_matches_bound_40_certificate(self, p, tmp_path):
        """Byte for byte against certificates written by the search that
        built every degenerate tuple."""
        name = f"p{p}_b40.json"
        rs.certify(search(p, 40), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (CERTIFICATES / name).read_bytes()

    @pytest.mark.parametrize("p", [5, 6])
    def test_matches_every_split_oracle(self, p):
        """Minimum, argmin and exact zeros against a Fraction enumeration of
        every sign split over multisets, the unbalanced ones included."""
        for bound in range(9, 15):
            report = search(p, bound)
            best, zeros = every_split_oracle(p, bound)
            assert (report.min_value, report.argmin) == best
            assert report.exact_zero_tuples == zeros

    @pytest.mark.parametrize("among", [False, True])
    def test_scaling_by_min_partner_shares_momentum(self, among):
        """The nearest partner must have the same momentum.

        The pair (3, 10) has momentum 13; its one nondegenerate partner is
        (6, 7), at |frequency sum| 0.471.  In float order the pair (4, 10)
        of momentum 14 sits between them, at 0.350 from (3, 10): the tuple
        (3, 10, -10, -4) does not sum to zero, and taken for a partner it
        would narrow the window and leave (3, 10, -7, -6) out.  The search
        sums each momentum group apart, so the two never meet, and both
        windows find (6, 7): the even one, which pairs a group's sums among
        themselves, and the odd one, which pairs them with separate partner
        sums.
        """
        lam = [0.0] * 3 + [lam_float(n) for n in range(3, 11)]
        six_seven, three_ten, four_ten = (lam[a] + lam[b] for a, b in [(6, 7), (3, 10), (4, 10)])
        assert six_seven < four_ten < three_ten
        assert three_ten - four_ten < three_ten - six_seven
        group = rs._sums(2, 13, 3, lam)
        assert four_ten not in group and {six_seven, three_ten} <= set(group)
        mine, theirs = ([six_seven, three_ten],) * 2 if among else ([three_ten], [six_seven])
        pairs, nearest = rs._window(mine, theirs, inf, among)
        assert pairs == [(0, 1) if among else (0, 0)]
        assert nearest == three_ten - six_seven
        assert min(rs._exact([(3, 10, -7, -6)]))[0] == abs(rs.lambda_sum((3, 10, -7, -6)))

    def test_quintic_window_reaches_nearest_partner(self, monkeypatch):
        """Every quintic sum exceeds 9/35, so every window, one per momentum
        group, is wider than that: only the nearest partners locate the
        minimum, and the last window is the float minimum."""
        widths = []
        window = rs._window

        def recorded(*args):
            pairs, nearest = window(*args)
            widths.append(nearest)
            return pairs, nearest

        monkeypatch.setattr(rs, "_window", recorded)
        report = rs.min_denominator(5, 10)
        assert len(widths) > 4 and min(widths) > rs.KNOWN_LOWER_BOUNDS[5]
        assert abs(widths[-1] - float(report.min_value)) < 1e-14
        oracle_min, oracle_degenerate, oracle_scanned = brute_force_min(5, 10)
        assert report.min_value == oracle_min
        assert report.degenerate_count == oracle_degenerate
        assert report.tuples_scanned == oracle_scanned

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_chunk_boundaries_keep_certificates(self, monkeypatch, tmp_path, p):
        """Each momentum group's window is narrowed by the gaps of the groups
        before it.  With windows that ignore them, as if every group were
        searched alone, the certificates under ``tests/certificates`` and at
        the reference sizes keep their bytes."""
        window = rs._window

        def alone(values, partners, nearest, among):
            pairs, own = window(values, partners, inf, among)
            return pairs, min(nearest, own)

        monkeypatch.setattr(rs, "_window", alone)
        expected = [*sorted(CERTIFICATES.glob(f"p{p}_b*.json")),
                    *sorted(REFERENCE.glob(f"p{p}_b*.json"))]
        for reference in expected:
            rs.certify(search(p, int(reference.stem.split("_b")[1])), tmp_path / reference.name)
            assert (tmp_path / reference.name).read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "p,bound,ceiling_mb,whole_exceeds",
        [(5, 60, 6, False), (6, 40, 5, False), (6, 150, 5, True)],
    )
    def test_peak_memory_is_one_chunk(self, p, bound, ceiling_mb, whole_exceeds):
        """Summing the q-multisets one momentum group at a time bounds the
        peak that tracemalloc sees.  At p = 6, bound 150, the float sums of
        all 551,300 triples, 32 bytes each in a list, would alone exceed
        5 MB."""
        q = p - p // 2
        whole = comb(bound - 2 + q - 1, q) * 32
        assert (whole > ceiling_mb * 1e6) == whole_exceeds
        tracemalloc.start()
        try:
            search(p, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling_mb * 1e6


def every_split_oracle(p, bound):
    """Fraction enumeration over every sign split: the multisets A of
    positive entries and B of negative magnitudes with equal sums and
    |A| + |B| = p, |A| > |B| or |A| = |B| (the other splits negate these).
    Returns (exact minimum, canonical argmin) over the nondegenerate tuples,
    and their exact zeros."""
    magnitudes = range(3, bound + 1)
    by_momentum = {}
    for size in range(1, p):
        for entries in itertools.combinations_with_replacement(magnitudes, size):
            value = sum((dispersion(n) for n in entries), Fraction(0))
            by_momentum.setdefault((size, sum(entries)), []).append((value, entries))
    best, zeros = None, set()
    for negatives in range(1, p // 2 + 1):
        for (size, momentum), tops in by_momentum.items():
            if size != p - negatives:
                continue
            for top, a in tops:
                for bottom, b in by_momentum.get((negatives, momentum), []):
                    if a == b:
                        continue  # the multisets agree: (k, -k) pairs
                    candidate = (abs(top - bottom), rs.canonical_tuple(a + tuple(-n for n in b)))
                    best = candidate if best is None else min(best, candidate)
                    if candidate[0] == 0:
                        zeros.add(candidate[1])
    return best, sorted(zeros)


def degenerate_tuple_count(p, bound):
    """Independent count of ordered degenerate p-tuples (p even): for each
    multiset of p/2 pair magnitudes, the distinct orderings of its entries."""
    from collections import Counter
    from math import factorial, prod

    total = 0
    for magnitudes in itertools.combinations_with_replacement(range(3, bound + 1), p // 2):
        entries = Counter(n for a in magnitudes for n in (a, -a))
        total += factorial(p) // prod(factorial(c) for c in entries.values())
    return total


class TestSexticSearch:
    def test_no_nondegenerate_zeros_small_radius(self):
        report = rs.search_resonances_p6(10)
        assert report.exact_zero_tuples == []
        assert report.min_value > 0

    def test_degenerate_count_against_multiset_formula(self):
        report = rs.search_resonances_p6(9)
        assert report.degenerate_count == degenerate_tuple_count(6, 9)

    def test_sextic_resonance_certificate(self, tmp_path):
        """Byte for byte: the one nondegenerate resonance to bound 174."""
        rs.certify(rs.search_resonances_p6(174), tmp_path / "p6_b174.json")
        certificate = CERTIFICATES / "p6_b174.json"
        assert (tmp_path / "p6_b174.json").read_bytes() == certificate.read_bytes()
        assert rs.load_certificate(certificate).exact_zero_tuples == [
            (174, 78, 74, -68, -88, -170)]


@pytest.mark.parametrize("p,bound", [(4, 9), (4, 31), (4, 60), (6, 17), (6, 40)])
def test_degenerate_count_matches_multiset_count(p, bound):
    """``degenerate_count``, the multiset formula of ``_degenerate_total``,
    agrees with an independent count of the degenerate tuples."""
    assert search(p, bound).degenerate_count == degenerate_tuple_count(p, bound)


class TestCertificates:
    def test_round_trip(self, tmp_path):
        report = rs.min_denominator(4, 12)
        path = tmp_path / "report.json"
        rs.certify(report, path)
        loaded = rs.load_certificate(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.min_value == report.min_value

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            rs.ResonanceReport,
            p=st.integers(3, 6),
            bound=st.integers(9, 10**6),
            min_value=st.none() | st.fractions(min_value=0),
            argmin=st.none() | st.tuples(*[st.integers(-10**6, 10**6)] * 4),
            degenerate_count=st.integers(0, 10**12),
            exact_zero_tuples=st.lists(st.lists(st.integers(-999, 999), min_size=3,
                                                max_size=6).map(tuple), max_size=3),
            scaling_by_min=st.none() | st.dictionaries(st.integers(1, 10**4),
                                                       st.fractions(min_value=0),
                                                       max_size=5),
            tuples_scanned=st.integers(0, 10**15),
        )
    )
    def test_round_trip_exact_property(self, report):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "report.json"
            rs.certify(report, path)
            loaded = rs.load_certificate(path)
            again = Path(directory) / "again.json"
            rs.certify(loaded, again)
            assert again.read_bytes() == path.read_bytes()
        assert loaded == report

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rs.certify(rs.min_denominator(3, 20), a)
        rs.certify(rs.min_denominator(3, 20), b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        taken = tmp_path / "taken"
        taken.mkdir()
        with pytest.raises(IsADirectoryError):
            rs.certify(rs.min_denominator(3, 9), taken)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any(taken.iterdir())
