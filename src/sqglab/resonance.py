"""Exact small-denominator bounds and exhaustive resonance searches.

A resonance is a tuple (n_1, ..., n_p) of modes with |n_j| >= 3, zero sum,
and zero frequency sum.  Because the frequency is odd, every totally
degenerate tuple (one that splits into (k, -k) pairs) resonates; the
interesting question is whether any other tuple does.  Known answers within
reach of exact search:

  p = 3, 5   no resonances; the frequency sum stays above 2/5 resp. 9/35;
  p = 4      resonances are exactly the totally degenerate tuples, and the
             nondegenerate minimum decays like min(|n_j|)^-4 (a lemma in
             ``_quartic_minima`` names the tuples that attain it);
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

The search meets in the middle (Horowitz & Sahni, J. ACM 21(2), 1974) over
multisets.  The sorted q-multisets are built one chunk of whole momentum
groups at a time from the (q - 1)-multisets, and sorted by momentum and
float lam(A).  A row's partners B share its momentum: for even p they are
the chunk's other rows, so no degenerate tuple is built; for odd p, the
(q - 1)-multisets.  Each row's nearest partner in sort order gives the float
minimum, and binary search builds only the pairs within FLOAT_MARGIN of it
for exact confirmation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

import numpy as np

from . import _atomic
from .dispersion import MIN_MODE, _integer, _root_floor, dispersion, dispersion_float

#: Margin added to float pre-filters before exact confirmation.  For
#: |n| < 2**26, n*n - 1 and n*n - 4 are exact, so ``dispersion_float`` errs
#: by at most u*|lam(n)| <= u*8/5 (u = 2**-53).  Summing p <= 6 such terms
#: adds at most (p-1)*u*p*8/5, so a float sum is within 36*u*8/5 < 1e-14 of
#: the exact one.  The difference of two float multiset sums, lam(A) - lam(B),
#: is still p terms summed in some order, so the bound holds.  A row at the
#: exact minimum (or at zero) therefore lies within 2e-14 of the float minimum
#: m (or of zero); 1e-12 covers that fifty times over.  A window has width
#: w >= m + 1e-12, and rounding its ends lam(A) -/+ w errs by < 1e-14, so
#: binary search cannot leave that row out.
FLOAT_MARGIN = 1e-12

#: Rows of q-multisets built at a time, in whole momentum groups (a chunk
#: can exceed it by one group).  Smaller chunks lower the peak but cost a
#: few NumPy calls each; the benchmark's peaks were measured with this value.
CHUNK_ROWS = 2**13

#: Most q-multisets (q = p - p // 2) a search builds: C(3163, 2), the pairs
#: at bound 3164.  ``max_bound`` turns it into the largest bound of each p.
MAX_ROWS = 5_000_703

#: Lower bounds of |frequency sum| over the unbalanced sign splits, from the
#: lemma in the module docstring; p = 3 has no unbalanced split.
UNBALANCED_BOUNDS = {4: Fraction(7, 5), 5: Fraction(12, 5), 6: Fraction(4, 5)}


def check_tuple(entries: Sequence[int]) -> tuple:
    entries = tuple(int(n) for n in entries)
    if sum(entries) != 0:
        raise ValueError(f"tuple {entries} does not sum to zero")
    if any(abs(n) < MIN_MODE for n in entries):
        raise ValueError(f"tuple {entries} has an entry with |n| < {MIN_MODE}")
    return entries


def lambda_sum(entries: Sequence[int]) -> Fraction:
    """Exact frequency sum of a zero-sum tuple of admissible modes."""
    return lambda_sums([entries])[0]


def lambda_sums(rows) -> list:
    """Exact frequency sums of the zero-sum tuples in the rows of a 2-D
    integer array, in row order.

    Each distinct mode's frequency is formed once, and each row's sum is
    accumulated over a common denominator and reduced once.  A row that is
    not a zero-sum tuple of admissible modes raises ``check_tuple``'s error.
    """
    if len(rows) == 0:
        return []
    rows = np.asarray(rows, dtype=np.int64)
    bad = (rows.sum(axis=1) != 0) | (np.abs(rows) < MIN_MODE).any(axis=1)
    if bad.any():
        check_tuple(rows[int(np.argmax(bad))])
    rows = rows.tolist()
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
    """True iff the tuple splits into (k, -k) pairs (multiset test)."""
    entries = tuple(int(n) for n in entries)
    if len(entries) % 2 != 0:
        return False
    ordered = sorted(entries)
    return all(ordered[i] == -ordered[-1 - i] for i in range(len(ordered) // 2))


def canonical_tuple(entries: Sequence[int]) -> tuple:
    """Deterministic representative of the permutation/sign-flip orbit."""
    entries = [int(n) for n in entries]
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


def _degenerate_rows(rows: np.ndarray) -> np.ndarray:
    """``is_totally_degenerate`` for each row of a 2-D integer array."""
    ordered = np.sort(rows, axis=1)
    return (ordered == -ordered[:, ::-1]).all(axis=1) & (rows.shape[1] % 2 == 0)


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


def _extend(rows: np.ndarray, keys: np.ndarray, modes: np.ndarray, lo: int, hi: int):
    """The multisets row + (n,), n no less than the row's last entry, whose
    momentum lies in lo..hi, sorted by key: momentum + i * float sum, which
    NumPy orders lexicographically.  ``modes`` holds the keys of the modes
    MIN_MODE..bound.  Keys add componentwise, so each float sum is formed as
    (lam(a_1) + lam(a_2)) + ... and keeps its bits whatever the chunk.
    """
    momenta = keys.real
    first = np.searchsorted(modes.real, np.maximum(rows[:, -1], lo - momenta))
    ri, ni = _pairs(first, np.maximum(first, np.searchsorted(modes.real, hi - momenta, "right")))
    # max_bound keeps every mode below 2**15
    added = (ni + MIN_MODE).astype(np.int16)[:, None]
    keys = keys[ri] + modes[ni]
    order = np.argsort(keys, kind="stable")
    return np.concatenate([rows[ri], added], axis=1)[order], keys[order]


def _pairs(lo: np.ndarray, hi: np.ndarray):
    """Indices (i, j) that pair each i with each j in lo[i]:hi[i]."""
    counts = hi - lo
    i = np.repeat(np.arange(lo.shape[0]), counts)
    # the k-th pair of i is (i, lo[i] + k)
    return i, np.arange(i.shape[0]) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _window(keys: np.ndarray, partners: np.ndarray, nearest: float, among: bool):
    """Pairs (i, j) of sorted keys and sorted partner keys of equal momentum
    whose float sums differ by at most the nearest gap + FLOAT_MARGIN, and
    that gap, given the gap ``nearest`` of the chunks before.

    ``among`` pairs the keys with themselves, i < j, so no row meets itself.
    Each row's nearest partner is next to it in sort order, and the gap only
    falls, so no window is narrower than the one at the final gap: the
    candidates do not depend on where the chunks end.
    """
    if among:
        near = (np.arange(1, keys.shape[0] + 1),)
    else:
        at = np.searchsorted(partners, keys)
        near = (at - 1, at)
    for j in near:
        ok = (j >= 0) & (j < partners.shape[0])
        ok[ok] = partners.real[j[ok]] == keys.real[ok]
        nearest = np.abs(keys.imag[ok] - partners.imag[j[ok]]).min(initial=nearest)
    # complex(0, w) keeps the real parts when w is inf, as 1j * w would not
    reach = complex(0, nearest + FLOAT_MARGIN)
    start = near[0] if among else np.searchsorted(partners, keys - reach)
    return (*_pairs(start, np.searchsorted(partners, keys + reach, "right")), float(nearest))


def _exact(rows: np.ndarray) -> list:
    """(exact |frequency sum|, canonical tuple) of each orbit among the rows."""
    return [(abs(lambda_sum(rep)), rep) for rep in set(map(canonical_tuple, rows))]


def _search(p: int, bound: int) -> ResonanceReport:
    """Near-balanced multiset search, then exact confirmation.

    The (q - 1)-multisets are built once, and the q-multisets a chunk at a
    time: the whole momentum groups in which about CHUNK_ROWS rows fall,
    sized by extending each (q - 1)-multiset of momentum m to the momenta
    m + a_(q-1) .. m + bound.  ``_window`` pairs each row A with partners B
    into tuples A + (-B), and the rows within FLOAT_MARGIN of the float
    minimum so far are kept.  Every minimum is >= 0, so they hold every row
    within FLOAT_MARGIN of zero, every exact resonance among them.
    ``tuples_scanned`` counts the ordered zero-sum p-tuples, sum over S of
    c_q(S) * c_r(-S), where c_k, a repeated convolution of the mode
    indicator, counts the ordered k-tuples of momentum S.
    """
    q = p - p // 2
    values = np.arange(MIN_MODE, bound + 1)
    modes = values + 1j * dispersion_float(values)
    rows, keys = values[:, None].astype(np.int16), modes
    for _ in range(q - 2):
        rows, keys = _extend(rows, keys, modes, 0, q * bound)
    momenta = keys.real.astype(np.int64)
    size = q * bound + 2
    counts = np.cumsum(np.bincount(momenta + rows[:, -1], minlength=size)
                       - np.bincount(momenta + bound + 1, minlength=size))
    ids = (np.cumsum(counts) - counts) // CHUNK_ROWS
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    ends = np.append(starts[1:], size) - 1

    nearest, found, sums = np.inf, np.empty((0, p), dtype=np.int16), np.empty(0)
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        chunk, chunk_keys = _extend(rows, keys, modes, lo, hi)
        if p % 2:
            first, stop = np.searchsorted(momenta, (lo, hi + 1))
            partners, partner_keys = rows[first:stop], keys[first:stop]
        else:
            partners, partner_keys = chunk, chunk_keys
        li, ri, nearest = _window(chunk_keys, partner_keys, nearest, p % 2 == 0)
        found = np.concatenate([found, np.concatenate([chunk[li], -partners[ri]], axis=1)])
        sums = np.concatenate([sums, np.abs(chunk_keys.imag[li] - partner_keys.imag[ri])])
        near = sums <= nearest + FLOAT_MARGIN
        found, sums = found[near], sums[near]

    indicator = (np.abs(np.arange(-bound, bound + 1)) >= MIN_MODE).astype(np.int64)
    ordered = [np.ones(1, dtype=np.int64)]
    for _ in range(q):
        ordered.append(np.convolve(ordered[-1], indicator))
    # c_q covers the momenta -q bound .. q bound, c_r the middle of them
    edge = (q - p // 2) * bound
    ranked = _exact(found)
    min_value, argmin = min(ranked, default=(None, None))
    return ResonanceReport(
        p=p,
        bound=bound,
        min_value=min_value,
        argmin=argmin,
        degenerate_count=_degenerate_total(p, bound),
        exact_zero_tuples=sorted({rep for value, rep in ranked if value == 0}),
        tuples_scanned=int(ordered[q][edge:ordered[q].shape[0] - edge] @ ordered[p // 2]),
    )


def max_bound(p: int) -> int:
    """The largest bound of a search of arity p: its C(bound - 2 + q - 1, q)
    q-multisets (q = p - p // 2) stay within MAX_ROWS.

    That is 3164 for p = 3 and 4 and 311 for p = 5 and 6.  There, in a
    fresh process on a 2-vCPU Xeon host, a search takes 0.72 s and peaks
    at 31 MB resident (p = 3), 1.3 s and 33 MB (p = 4), 2.2 s and 34 MB
    (p = 5), and 2.5 s and 34 MB (p = 6).
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
    if problems:
        raise ValueError("; ".join(problems))


#: Proven lower bounds for the nondegenerate frequency-sum minimum.
KNOWN_LOWER_BOUNDS = {3: Fraction(2, 5), 5: Fraction(9, 35)}


def _check_unbalanced(report: ResonanceReport) -> None:
    """Raise unless the near-balanced minimum lies below the bound that the
    module docstring's lemma proves for every other sign split."""
    bound = UNBALANCED_BOUNDS.get(report.p, np.inf)
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
    v = np.arange(MIN_MODE, bound - 1)
    minima = lambda_sums(np.stack([v, v + 2, -v - 1, -v - 1], axis=1))
    expected = (minima[-1], (bound, bound - 2, 1 - bound, 1 - bound))
    if (report.min_value, report.argmin) != expected:
        raise AssertionError(f"p=4 minimum {report.min_value} at {report.argmin} "
                             f"is not the proven {expected[0]} at {expected[1]}")
    report.scaling_by_min = dict(zip(v.tolist(), minima))


def min_denominator(p: int, bound: int) -> ResonanceReport:
    """Exact nondegenerate minimum of |frequency sum| over |n_j| <= bound.

    For p = 3, 5 the result is checked against the proven constants 2/5 and
    9/35, for p = 4 against the proven minimizer (a violation raises), which
    also gives the exact minimum for each value of min |n_j|, exhibiting the
    fourth-power decay.
    Raises ValueError unless p is one of 3, 4, 5 and bound an integer from 9
    to ``max_bound(p)``, naming each offending argument as ``"<name>: <rule>"``.
    """
    _check_request(p, bound, (3, 4, 5))
    report = _search(p, bound)
    _check_unbalanced(report)
    known = KNOWN_LOWER_BOUNDS.get(p)
    if known is None:
        _quartic_minima(report)
    elif not report.exact_zero_tuples and report.min_value < known:
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
