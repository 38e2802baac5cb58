"""Exact small-denominator bounds and exhaustive resonance searches.

A resonance is a tuple (n_1, ..., n_p) of modes with |n_j| >= 3, zero sum,
and zero frequency sum.  Because the frequency is odd, every totally
degenerate tuple (one that splits into (k, -k) pairs) resonates; the
interesting question is whether any other tuple does.  Known answers within
reach of exact search:

  p = 3, 5   no resonances; the frequency sum stays above 1 resp. 9/35;
  p = 4      resonances are exactly the totally degenerate tuples, and the
             nondegenerate minimum decays like min(|n_j|)^-4 (a lemma in
             ``_quartic_minima`` names the tuples that attain it); so the
             normal form's projection onto the tuples of zero frequency sum
             (``forms.resonant_projection``) keeps the degenerate ones;
  p = 6      open; the search below is evidence, never proof.  It finds
             no nondegenerate resonance up to bound 172, and one at bound
             174: (174, 78, 74, -68, -88, -170).

Every decision is made in exact rational arithmetic.  Floats appear only as
a pre-filter: candidates within 1e-12 of the float threshold are re-evaluated
exactly before anything is concluded.

Write lam(n) = sgn(n) (1 + g(|n|)), g(x) = 3/(x^2 - 4).  A tuple's frequency
sum is lam(A) - lam(B), lam summed over the multiset A of its positive
entries and B of its negative ones' magnitudes, and the tuple is totally
degenerate exactly when A = B.  Up to the overall sign, only the
near-balanced split, q = p - p // 2 positive and r = p // 2 negative
entries, is searched:

  Lemma.  A zero-sum tuple with q' > r' entries of the two signs has
  |Lambda| > (q' - r') - 3 r'/5, as Lambda = (q' - r') + sum_A g - sum_B g
  and each of the r' terms g(b) is at most g(3) = 3/5.

Zero momentum needs r' >= 1, so p = 3 has no other split; the others give
7/5 (3+1), 12/5 (4+1), 4/5 (4+2) and 17/5 (5+1).  ``UNBALANCED_BOUNDS``
keeps the least for each p, and the searched minimum must fall below it.

  Lemma (p = 3).  Up to order and sign a triple is (a, b, -(a + b)), so
  Lambda = 1 + g(a) + g(b) - g(a + b) > 1, as g is positive and falls for
  x >= 3.  The infimum 1 is approached as a, b grow and never attained.

The search meets in the middle (Horowitz & Sahni, J. ACM 21(2), 1974) over
multisets.  A q-multiset's partners B share its momentum: for even p they
are the other q-multisets, so no degenerate tuple is built; for odd p, the
(q - 1)-multisets, so no momentum above (p // 2) bound is searched.  Each
row's nearest partner in float lam order gives the float minimum, and only
the pairs within FLOAT_MARGIN of it are built for exact confirmation.  The
search runs in pure Python, one momentum group at a time, and never imports
NumPy.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, inf
from operator import add, mul, sub
from typing import Sequence

from . import _atomic
from .dispersion import MIN_MODE, _integer, _reject, _root_floor, _whole, dispersion, lam_float

# the benchmark's tracer counts the calls of ``resonance.dispersion_float``;
# the search makes none, as it forms its floats with ``lam_float``
from .dispersion import dispersion_float  # noqa: F401

#: Margin added to float pre-filters before exact confirmation.  ``lam_float``
#: rounds lam(n) once, so it errs by at most u*|lam(n)| <= u*8/5
#: (u = 2**-53).  Summing p <= 6 such terms adds at most (p-1)*u*p*8/5, so
#: a float sum is within 36*u*8/5 < 1e-14 of the exact one.  The difference of two float multiset sums, lam(A) - lam(B),
#: is still p terms summed in some order, so the bound holds.  A row at the
#: exact minimum (or at zero) therefore lies within 2e-14 of the float minimum
#: m (or of zero); 1e-12 covers that fifty times over.  A window has width
#: w >= m + 1e-12, and rounding its ends lam(A) -/+ w errs by < 1e-14, so
#: binary search cannot leave that row out.
FLOAT_MARGIN = 1e-12

#: Most q-multisets (q = p - p // 2) a search sums: C(3163, 2), the pairs
#: at bound 3164.  ``max_bound`` turns it into the largest bound of each p.
MAX_ROWS = 5_000_703

#: Lower bounds of |frequency sum| over the unbalanced sign splits, from the
#: lemma in the module docstring; p = 3 has no unbalanced split.
UNBALANCED_BOUNDS = {4: Fraction(7, 5), 5: Fraction(12, 5), 6: Fraction(4, 5)}


def check_tuple(entries: Sequence[int]) -> tuple:
    """The entries as a tuple of ints; raises a ValueError naming the tuple
    unless it is a zero-sum tuple of admissible integer modes (``_whole``:
    NumPy integers and integers of any size pass, booleans do not)."""
    entries = tuple(entries)
    # a tuple of Python ints, the common case, needs no test entry by entry
    if {*map(type, entries)} != {int}:
        for n in entries:
            if not _whole(n):
                raise ValueError(f"tuple {entries} has a non-integer entry {n!r}")
        entries = tuple(map(int, entries))
    if sum(entries) != 0:
        raise ValueError(f"tuple {entries} does not sum to zero")
    if min(map(abs, entries), default=MIN_MODE) < MIN_MODE:
        raise ValueError(f"tuple {entries} has an entry with |n| < {MIN_MODE}")
    return entries


def lambda_sum(entries: Sequence[int]) -> Fraction:
    """Exact frequency sum of a zero-sum tuple of admissible modes."""
    return lambda_sums([entries])[0]


def lambda_sums(rows) -> list:
    """Exact frequency sums of the zero-sum tuples in ``rows``, a sequence of
    tuples or a 2-D integer array, in row order.

    Each distinct mode's frequency is formed once, and each row's sum is
    accumulated over a common denominator and reduced once.  A row that is
    not a zero-sum tuple of admissible integer modes raises ``check_tuple``'s
    error.
    """
    rows = [*map(check_tuple, rows.tolist() if hasattr(rows, "tolist") else rows)]
    terms = {}
    for n in {n for row in rows for n in row}:
        frequency = dispersion(n)
        terms[n] = (frequency.numerator, frequency.denominator)
    sums = []
    for row in rows:
        num, den = 0, 1
        for n in row:
            a, b = terms[n]
            num, den = num * b + a * den, den * b
        sums.append(Fraction(num, den))
    return sums


def is_totally_degenerate(entries: Sequence[int]) -> bool:
    """True iff the tuple splits into (k, -k) pairs (multiset test); the
    tuple must pass ``check_tuple``."""
    entries = check_tuple(entries)
    if len(entries) % 2 != 0:
        return False
    ordered = sorted(entries)
    return all(ordered[i] == -ordered[-1 - i] for i in range(len(ordered) // 2))


def canonical_tuple(entries: Sequence[int]) -> tuple:
    """Deterministic representative of the permutation/sign-flip orbit; the
    tuple must pass ``check_tuple``."""
    entries = check_tuple(entries)
    a = tuple(sorted(entries, reverse=True))
    b = tuple(sorted((-n for n in entries), reverse=True))
    return max(a, b)


@dataclass
class ResonanceReport:
    """Outcome of an exhaustive search over |n_j| <= bound.

    ``min_value``/``argmin`` describe the nondegenerate minimum of the
    absolute frequency sum (exact); ``exact_zero_tuples`` lists any
    nondegenerate exact resonances found (canonical representatives).
    ``scaling_by_min`` (p = 4 only, from ``_quartic_minima``) maps each
    v = min |n_j| to the exact minimum over the nondegenerate tuples with it.
    """

    p: int
    bound: int
    min_value: Fraction | None
    argmin: tuple | None
    degenerate_count: int
    exact_zero_tuples: list = field(default_factory=list)
    scaling_by_min: dict | None = None
    tuples_scanned: int = 0

    def to_dict(self) -> dict:
        def frac(q):
            return {"numerator": str(q.numerator), "denominator": str(q.denominator)}

        data = {
            "p": self.p,
            "bound": self.bound,
            "min_value": frac(self.min_value) if self.min_value is not None else None,
            "argmin": list(self.argmin) if self.argmin is not None else None,
            "degenerate_count": self.degenerate_count,
            "exact_zero_tuples": [list(t) for t in self.exact_zero_tuples],
            "tuples_scanned": self.tuples_scanned,
        }
        if self.scaling_by_min is not None:
            data["scaling_by_min"] = {
                str(k): frac(v) for k, v in sorted(self.scaling_by_min.items())
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ResonanceReport":
        def unfrac(d):
            return Fraction(int(d["numerator"]), int(d["denominator"]))

        scaling = None
        if data.get("scaling_by_min") is not None:
            scaling = {int(k): unfrac(v) for k, v in data["scaling_by_min"].items()}
        return cls(
            p=int(data["p"]),
            bound=int(data["bound"]),
            min_value=unfrac(data["min_value"]) if data["min_value"] is not None else None,
            argmin=tuple(data["argmin"]) if data["argmin"] is not None else None,
            degenerate_count=int(data["degenerate_count"]),
            exact_zero_tuples=[tuple(t) for t in data.get("exact_zero_tuples", [])],
            scaling_by_min=scaling,
            tuples_scanned=int(data.get("tuples_scanned", 0)),
        )


def _degenerate_total(p: int, bound: int) -> int:
    """Number of ordered totally degenerate p-tuples with 3 <= |n_j| <= bound
    (none for odd p).

    Such a tuple is the multiset {+-a_1, ..., +-a_k} (k = p/2) of N =
    bound - 2 possible magnitudes, in one of p! / prod(m_i!)^2 orders when
    the magnitudes repeat m_i times.  For p = 4: C(N, 2) * 4! + N * 4!/2!^2;
    for p = 6: C(N, 3) * 6! + N(N - 1) * 6!/2!^2 + N * 6!/3!^2.
    """
    n = bound - MIN_MODE + 1
    return {4: 12 * n * (n - 1) + 6 * n,
            6: 120 * n * (n - 1) * (n - 2) + 180 * n * (n - 1) + 20 * n}.get(p, 0)


def _exact(rows) -> list:
    """(exact |frequency sum|, canonical tuple) of each orbit among the rows."""
    reps = [*set(map(canonical_tuple, rows))]
    return list(zip(map(abs, lambda_sums(reps)), reps))


def _report(p: int, bound: int, found) -> ResonanceReport:
    """The report of a search whose candidate p-tuples are ``found``.

    ``tuples_scanned`` counts the ordered zero-sum p-tuples, sum over S of
    c_q(S) * c_r(S), where c_k counts the ordered k-tuples of momentum S: a
    repeated convolution of the mode indicator, each term of which sums c_(k-1)
    over the momenta S - bound .. S - 3 and S + 3 .. S + bound, read from its
    prefix sums.  c_r is even, so c_r(S) = c_r(-S).
    """
    q, r = p - p // 2, p // 2
    # zeros on each side keep every momentum read within the prefix sums
    pad = [0] * (2 * bound + 1)
    counts = [[1]]
    for k in range(1, q + 1):
        base = (k + 1) * bound + 1
        prefix = [0, *accumulate(pad + counts[-1] + pad)]
        counts.append([prefix[s - 2] - prefix[s - bound] + prefix[s + bound + 1] - prefix[s + 3]
                       for s in range(base - k * bound, base + k * bound + 1)])
    # c_q covers the momenta -q bound .. q bound, c_r the middle of them
    edge = (q - r) * bound
    ranked = _exact(found)
    min_value, argmin = min(ranked, default=(None, None))
    return ResonanceReport(
        p=p,
        bound=bound,
        min_value=min_value,
        argmin=argmin,
        degenerate_count=_degenerate_total(p, bound),
        exact_zero_tuples=sorted({rep for value, rep in ranked if value == 0}),
        tuples_scanned=sum(map(mul, counts[q][edge:len(counts[q]) - edge], counts[r])),
    )


def _sums(k: int, total: int, low: int, lam: list) -> list:
    """The float lam sums of the sorted k-tuples (a_1, ..., a_k) of the modes
    low .. len(lam) - 1 that sum to ``total``, in lexicographic order;
    ``lam`` maps a mode to its float frequency.  Each sum is lam(a_1) +
    (lam(a_2) + ...), formed in C loops."""
    bound = len(lam) - 1
    if k == 1:
        return [lam[total]] if low <= total <= bound else []
    lo, hi = max(low, total - (k - 1) * bound), total // k
    if k == 2:
        # lam(a) + lam(total - a) for a = lo .. hi; total - hi - 1 >= 2
        return list(map(add, lam[lo:hi + 1], lam[total - lo:total - hi - 1:-1]))
    sums = []
    for a in range(lo, hi + 1):
        sums += map(lam[a].__add__, _sums(k - 1, total - a, a, lam))
    return sums


def _count(k: int, total: int, low: int, bound: int) -> int:
    """The number of sorted k-tuples of the modes low .. bound that sum to
    ``total``."""
    if k == 1:
        return int(low <= total <= bound)
    lo, hi = max(low, total - (k - 1) * bound), total // k
    if k == 2:
        return max(hi - lo + 1, 0)
    return sum(_count(k - 1, total - a, a, bound) for a in range(lo, hi + 1))


def _multiset(k: int, total: int, low: int, bound: int, m: int) -> tuple:
    """The m-th, from 0, in lexicographic order of the sorted k-tuples of the
    modes low .. bound that sum to ``total``: the tuple of the m-th of
    their ``_sums``."""
    a = max(low, total - (k - 1) * bound)
    if k <= 2:
        return (total,) if k == 1 else (a + m, total - a - m)
    while m >= (size := _count(k - 1, total - a, a, bound)):
        m, a = m - size, a + 1
    return (a, *_multiset(k - 1, total - a, a, bound, m))


def _rows(k: int, total: int, bound: int, sums: list, values: list, at) -> dict:
    """The k-multiset of momentum ``total`` at each position in ``at`` of
    ``values``, the sorted ``sums`` of the multisets of the modes MIN_MODE ..
    ``bound`` (``_sums``).  Equal sums keep their order in ``sums``, as a
    stable sort would."""
    rows = {}
    for i in set(at):
        m = -1
        for _ in range(i - bisect_left(values, values[i]) + 1):
            m = sums.index(values[i], m + 1)
        rows[i] = _multiset(k, total, MIN_MODE, bound, m)
    return rows


def _window(values: list, partners: list, nearest: float, among: bool):
    """Pairs (i, j) of one momentum group's sorted float sums ``values`` and
    sorted partner sums that differ by at most the nearest gap +
    FLOAT_MARGIN, and that gap, given the gap ``nearest`` of the groups
    before.

    ``among`` pairs the values with themselves, i < j, so no row meets
    itself.  Each row's nearest partner is next to it in sort order, and the
    gap only falls, so no window is narrower than the one at the final gap.
    """
    if among:
        gaps = list(map(sub, values[1:], values[:-1]))
    else:
        gaps = []
        for y in partners:
            at = bisect_left(values, y)
            gaps.append(min([abs(x - y) for x in values[max(at - 1, 0):at + 1]], default=inf))
    least = min(gaps, default=inf)
    nearest = min(nearest, least)
    width = nearest + FLOAT_MARGIN
    # a window holds a partner only if its nearest gap lies within it
    near = [j for j, gap in enumerate(gaps) if gap <= width] if least <= width else []
    if among:
        pairs = [(i, j) for i in near
                 for j in range(i + 1, bisect_right(values, values[i] + width))]
    else:
        pairs = [(i, j) for j in near for i in range(bisect_left(values, partners[j] - width),
                                                      bisect_right(values, partners[j] + width))]
    return pairs, nearest


def _search(p: int, bound: int) -> ResonanceReport:
    """The near-balanced multiset search, then exact confirmation.

    Each momentum group S is searched in turn, up to q bound (even p) or
    (p // 2) bound (odd p, where no partner lies above).  Its q-multisets'
    float sums are sorted, and for odd p its (q - 1)-multisets' as
    partners.  ``_window`` pairs them, and only the rows of its pairs are
    built (``_rows``).  Of those pairs A, B, the ones within FLOAT_MARGIN of
    the final float minimum become the tuples A + (-B) that are confirmed
    exactly.  Every minimum is >= 0, so they hold every row within
    FLOAT_MARGIN of zero, every exact resonance among them.
    """
    q, r = p - p // 2, p // 2
    lam = [0.0] * MIN_MODE + [*map(lam_float, range(MIN_MODE, bound + 1))]
    nearest, found = inf, []
    for momentum in range(q * MIN_MODE, (r if p % 2 else q) * bound + 1):
        sums = _sums(q, momentum, MIN_MODE, lam)
        partner_sums = _sums(r, momentum, MIN_MODE, lam) if p % 2 else sums
        values, partners = sorted(sums), sorted(partner_sums)
        pairs, nearest = _window(values, partners, nearest, p % 2 == 0)
        if pairs:
            rows = _rows(q, momentum, bound, sums, values, [i for i, _ in pairs])
            theirs = _rows(r, momentum, bound, partner_sums, partners, [j for _, j in pairs])
            found += [(abs(values[i] - partners[j]), rows[i], theirs[j]) for i, j in pairs]
    return _report(p, bound, [a + tuple(-n for n in b) for gap, a, b in found
                              if gap <= nearest + FLOAT_MARGIN])


def max_bound(p: int) -> int:
    """The largest bound of a search of arity p: its C(bound - 2 + q - 1, q)
    q-multisets (q = p - p // 2) stay within MAX_ROWS.

    That is 3164 for p = 3 and 4 and 311 for p = 5 and 6.  There, in a
    fresh ``sqglab resonance`` process on a 2-vCPU Xeon host, a search
    takes 0.26 s and peaks at 18 MB resident (p = 3), 0.95 s and 22 MB
    (p = 4), 0.76 s and 17 MB (p = 5), and 1.3 s and 18 MB (p = 6)
    (medians of three).
    """
    q = p - p // 2
    # n^q / q! <= C(n + q - 1, q), so n starts at or above the answer
    n = _root_floor(factorial(q) * MAX_ROWS, q)
    while comb(n + q - 1, q) > MAX_ROWS:
        n -= 1
    return n + MIN_MODE - 1


def _check_request(p, bound, arities: tuple) -> None:
    """Raise ValueError naming each of ``p`` and ``bound`` that breaks its rule."""
    problems = []
    p_ok = _integer(p) and p in arities
    if not p_ok:
        problems.append("p: must be one of " + ", ".join(map(str, arities)))
    if not (_integer(bound) and bound >= 9):
        problems.append("bound: must be an integer >= 9")
    elif p_ok and bound > max_bound(p):
        problems.append(f"bound: must be at most {max_bound(p)} for p={p}")
    _reject(problems)


#: Proven strict lower bounds for the nondegenerate frequency-sum minimum;
#: p = 3's is its infimum over all modes (the module docstring's lemma).
KNOWN_LOWER_BOUNDS = {3: Fraction(1), 5: Fraction(9, 35)}


def _check_unbalanced(report: ResonanceReport) -> None:
    """Raise unless the near-balanced minimum lies below the bound that the
    module docstring's lemma proves for every other sign split."""
    bound = UNBALANCED_BOUNDS.get(report.p, inf)
    if not report.min_value < bound:
        raise AssertionError(f"p={report.p} minimum {report.min_value} is not below "
                             f"{bound}, the unbalanced splits' bound")


def _quartic_minima(report: ResonanceReport) -> None:
    """Check a p = 4 search against its proven minimizer, and set
    ``scaling_by_min`` from the tuples that attain each entry.

    Write lam(n) = sgn(n) (1 + g(|n|)) with g(x) = 3/(x^2 - 4): for x >= 3,
    g is positive, decreasing and strictly convex, and g''' < 0.  Take a
    nondegenerate zero-sum 4-tuple with v = min |n_j|.  With three entries
    of one sign, |Lambda| = 2 + g(a) + g(b) + g(c) - g(d) >= 2 - g(3) = 7/5.
    Otherwise it is (a, b, -c, -d) up to order and overall sign, with
    a <= b, c <= d and a + b = c + d = S, and Lambda = h(a) - h(c) for
    h(x) = g(x) + g(S - x), which convexity makes fall strictly towards S/2.
    Nondegenerate means a != c; say a = v < c <= S/2.  Then |Lambda| is least
    at c = v + 1, and h(v) - h(v + 1) = g(v) - g(v + 1) - (g(S - v - 1) -
    g(S - v)) grows with S, so it is least at S = 2v + 2.  Hence for
    3 <= v <= bound - 2 the minimum is M_v = lam(v) - 2 lam(v + 1) +
    lam(v + 2) (at most M_3 < 7/5), attained only by the orbit of
    (v, v + 2, -v - 1, -v - 1).  For v >= bound - 1 no tuple is
    nondegenerate: c > v needs b = S - v >= v + 2 > bound, and three entries
    of one sign need |d| >= 3v > bound.  As g''' < 0, the second difference
    M_v falls strictly with v, so the global minimum is M_{bound - 2}, at
    (bound, bound - 2, 1 - bound, 1 - bound).
    """
    bound = report.bound
    v = range(MIN_MODE, bound - 1)
    minima = lambda_sums([(n, n + 2, -n - 1, -n - 1) for n in v])
    expected = (minima[-1], (bound, bound - 2, 1 - bound, 1 - bound))
    if (report.min_value, report.argmin) != expected:
        raise AssertionError(f"p=4 minimum {report.min_value} at {report.argmin} "
                             f"is not the proven {expected[0]} at {expected[1]}")
    report.scaling_by_min = dict(zip(v, minima))


def min_denominator(p: int, bound: int) -> ResonanceReport:
    """Exact nondegenerate minimum of |frequency sum| over |n_j| <= bound.

    For p = 3, 5 the result is checked to exceed the proven constants 1
    (sharp) and 9/35, for p = 4 against the proven minimizer (a violation
    raises), which also gives the exact minimum for each value of min |n_j|,
    exhibiting the fourth-power decay.
    Raises ValueError unless p is one of 3, 4, 5 and bound an integer from 9
    to ``max_bound(p)``, naming each offending argument as ``"<name>: <rule>"``.
    """
    _check_request(p, bound, (3, 4, 5))
    report = _search(p, bound)
    _check_unbalanced(report)
    known = KNOWN_LOWER_BOUNDS.get(p)
    if known is None:
        _quartic_minima(report)
    elif report.min_value <= known:
        raise AssertionError(
            f"p={p} minimum {report.min_value} violates the proven bound {known}"
        )
    return report


def search_resonances_p6(bound: int = 20) -> ResonanceReport:
    """Exhaustive exact search for nondegenerate 6-tuples with zero frequency sum.

    An empty ``exact_zero_tuples`` list is evidence for non-existence within
    the searched radius, nothing more.  ``bound`` follows the rule of
    ``min_denominator``.
    """
    _check_request(6, bound, (6,))
    report = _search(6, bound)
    _check_unbalanced(report)
    return report


def certify(report: ResonanceReport, path) -> None:
    """Write the report as a byte-reproducible JSON certificate, atomically
    (``_atomic.write_text``)."""
    _atomic.write_text(path, json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")


def load_certificate(path) -> ResonanceReport:
    with open(path) as handle:
        return ResonanceReport.from_dict(json.load(handle))
