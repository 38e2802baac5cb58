"""Exact frequency-sum arithmetic and the exhaustive search machinery.

Small-radius searches are cross-checked against an unpruned itertools
enumeration and against an independent multiset count of the degenerate
tuples; larger ones against certificates kept under ``tests/certificates``.
"""

import itertools
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqglab import resonance as rs
from sqglab.dispersion import dispersion, dispersion_float

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


class TestDegeneracy:
    @pytest.mark.parametrize(
        "entries,expected",
        [
            ((3, -3, 6, -6), True),
            ((5, 3, -4, -4), False),
            ((3, -3, 3, -3), True),
            ((3, 3, -3, -3), True),
            ((3, -3, 5), False),  # odd arity is never degenerate
            ((7, -7, 9, -9, 12, -12), True),
        ],
    )
    def test_examples(self, entries, expected):
        assert rs.is_totally_degenerate(entries) is expected

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                min_size=1, max_size=8,
            )
        )
    )
    @example(rows=[[0, 3, -3]])
    def test_vectorised_test_matches_scalar(self, rows):
        expected = [rs.is_totally_degenerate(row) for row in rows]
        assert rs._degenerate_rows(np.array(rows)).tolist() == expected

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
        assert report.min_value >= Fraction(2, 5)
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
        """The largest bound keeps the larger half set within MAX_HALF_ROWS,
        and any bound above it is refused before a prefix or a slab is built."""
        bound, k = rs.max_bound(p), p - p // 2
        assert (2 * (bound - 2)) ** k <= rs.MAX_HALF_ROWS[p] < (2 * (bound - 1)) ** k

        def unexpected(*args, **kwargs):
            raise AssertionError("a prefix or a slab was built")

        monkeypatch.setattr(rs, "_slab", unexpected)
        for excess in (1, 10**6, 10**30):
            with pytest.raises(ValueError) as info:
                if p == 6:
                    rs.search_resonances_p6(bound + excess)
                else:
                    rs.min_denominator(p, bound + excess)
            assert str(info.value) == f"bound: must be at most {bound} for p={p}"

    @pytest.mark.parametrize(
        "p,bound,share", [(4, 12, 1.0), (4, 60, 0.002), (5, 12, 0.0), (6, 12, 0.01)]
    )
    def test_each_half_built_once(self, monkeypatch, p, bound, share):
        """Each prefix length is built once and each momentum group of the
        larger halves in exactly one of about eight slabs, which together
        hold every ordered (p - p // 2)-tuple; p = 4 (global and per-min
        windows together) and p = 6 build few tuples, none of the degenerate
        band, and odd p has no degenerate tuples to test."""
        k = p - p // 2
        monkeypatch.setattr(rs, "SLAB_ROWS", (2 * (bound - 2)) ** k // 8)
        slabs, prefixes, built = [], [], []
        slab, degenerate_rows = rs._slab, rs._degenerate_rows

        def counted_slab(*args):
            made = slab(*args)
            (slabs if made.rows.shape[1] == k else prefixes).append(made.rows)
            return made

        def counted_rows(rows):
            built.append(rows.shape[0])
            return degenerate_rows(rows)

        monkeypatch.setattr(rs, "_slab", counted_slab)
        monkeypatch.setattr(rs, "_degenerate_rows", counted_rows)
        report = search(p, bound)
        assert [rows.shape[1] for rows in prefixes] == list(range(1, k))
        momenta = [set(rows.sum(axis=1).tolist()) for rows in slabs]
        assert len(slabs) > 4 and sum(map(len, momenta)) == len(set().union(*momenta))
        rows = np.concatenate(slabs)
        assert rows.shape[0] == np.unique(rows, axis=0).shape[0] == (2 * (bound - 2)) ** k
        assert sum(built) <= share * report.tuples_scanned

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

    @pytest.mark.parametrize(
        "disagreement,p",
        [("wide_band", 4), ("wide_band", 6), ("wrong_total", 3), ("wrong_total", 4),
         ("wrong_total", 5), ("wrong_total", 6)],
    )
    def test_band_fallback_keeps_certificate(self, monkeypatch, tmp_path, p, disagreement):
        """If the band count disagrees with the degenerate total, the band is
        built and its rows tested, and the certificate keeps its bytes."""
        if disagreement == "wide_band":
            # the nondegenerate minima, 1.5e-6 (p = 4) and 1.2e-5 (p = 6), lie inside
            monkeypatch.setattr(rs, "DEGENERATE_BAND", 1e-4)
        else:
            monkeypatch.setattr(rs, "_degenerate_total", lambda p, bound: -1)
        built = []
        degenerate_rows = rs._degenerate_rows

        def counted_rows(rows):
            built.append(rows.shape[0])
            return degenerate_rows(rows)

        monkeypatch.setattr(rs, "_degenerate_rows", counted_rows)
        reference = REFERENCE / {3: "p3_b200.json", 4: "p4_b60.json",
                                 5: "p5_b30.json", 6: "p6_b20.json"}[p]
        report = search(p, int(reference.stem.split("_b")[1]))
        if p % 2 == 0:  # odd p has no degenerate tuples, and an empty band
            assert sum(built) > report.degenerate_count > 0
        rs.certify(report, tmp_path / reference.name)
        assert (tmp_path / reference.name).read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("band_built", [False, True])
    def test_scaling_by_min_partner_shares_momentum(self, band_built):
        """The nearest partner outside the band must have the opposite momentum.

        The left half (3, 10) has momentum 13; its one nondegenerate partner
        is (-7, -6), at |frequency sum| 0.471.  In the sorted keys the pair
        (-10, -4) of momentum -14 sits just below the band, at 0.350: taken
        for a partner, it would narrow the window and leave (-7, -6) out.
        Building the band as well adds only the degenerate (3, 10, -3, -10).
        """

        def slab(rows):
            rows = np.array(rows, dtype=np.int16)
            keys = np.empty(rows.shape[0], dtype=complex)
            keys.real, keys.imag = rows.sum(axis=1), dispersion_float(rows).sum(axis=1)
            return rs._Slab(rows, keys)

        right = slab([(-10, -4), (-3, -10), (-7, -6)])
        assert np.all(np.diff(right.keys) > 0)
        windows = {}
        for band_only in (False, True)[: 1 + band_built]:
            rs._scaling_by_min(windows, slab([(3, 10)]), right, band_only)
        assert windows[3].degenerate == band_built
        assert {v: min(rs._exact(w.rows))[0] for v, w in windows.items()} == {
            3: abs(rs.lambda_sum((3, 10, -7, -6)))
        }

    def test_window_reaches_past_empty_band(self, monkeypatch):
        """Every quintic sum exceeds 9/35, so the DEGENERATE_BAND is empty
        and only the nearest partners outside it locate the minimum."""
        runs = []
        key_runs = rs._key_runs

        def recorded(keys, halves, width):
            lo, hi = key_runs(keys, halves, width)
            runs.append((width, int((hi - lo).sum())))
            return lo, hi

        monkeypatch.setattr(rs, "_key_runs", recorded)
        report = rs.min_denominator(5, 10)
        band = [count for width, count in runs if width == rs.DEGENERATE_BAND]
        windows = [width for width, count in runs if width != rs.DEGENERATE_BAND]
        assert band and not any(band)
        assert windows and min(windows) > rs.KNOWN_LOWER_BOUNDS[5]
        oracle_min, oracle_degenerate, oracle_scanned = brute_force_min(5, 10)
        assert report.min_value == oracle_min
        assert report.degenerate_count == oracle_degenerate
        assert report.tuples_scanned == oracle_scanned

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_slab_boundaries_keep_certificates(self, monkeypatch, tmp_path, p):
        """With one momentum group per slab, the certificates at bound 40 and
        at the reference sizes keep their bytes."""
        monkeypatch.setattr(rs, "SLAB_ROWS", 1)
        expected = [CERTIFICATES / f"p{p}_b40.json", *sorted(REFERENCE.glob(f"p{p}_b*.json"))]
        for reference in expected:
            rs.certify(search(p, int(reference.stem.split("_b")[1])), tmp_path / reference.name)
            assert (tmp_path / reference.name).read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("p,bound,ceiling_mb", [(5, 60, 6), (6, 40, 5)])
    def test_peak_memory_is_one_slab(self, p, bound, ceiling_mb):
        """Streaming the larger half set by slab bounds the peak that
        tracemalloc sees: building the whole set, these searches peaked at
        47.1 MB (p = 5) and 13.2 MB (p = 6)."""
        tracemalloc.start()
        try:
            search(p, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ceiling_mb * 1e6


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


@pytest.mark.parametrize("p,bound", [(4, 9), (4, 31), (4, 60), (6, 17), (6, 40)])
def test_degenerate_count_is_counted_band(p, bound):
    """The band count that becomes ``degenerate_count`` agrees with an
    independent count of the degenerate tuples."""
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
