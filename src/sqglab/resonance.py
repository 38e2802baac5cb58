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
  p = 6      open; the search below is evidence, never proof.

Every decision is made in exact rational arithmetic.  Floats appear only as
a pre-filter: candidates within 1e-12 of the float threshold are re-evaluated
exactly before anything is concluded.

The searches meet in the middle (Horowitz & Sahni, J. ACM 21(2), 1974): a
p-tuple is a left and a right half with opposite momenta (integer sums).
The larger halves are streamed one slab of whole momentum groups at a time,
so memory holds one slab, never the whole half set.  The right halves that
meet a slab, its mirror (even p) or a slice of the shorter set (odd p), are
sorted by momentum and float frequency sum, and binary search builds only
the tuples whose sum lies in a window around zero.  The totally degenerate
tuples (about 15 N^3 of them for p = 6) all lie in a thin band around zero;
binary search counts the band without building it, and when the count
equals the number of degenerate tuples, which a multiset formula gives, the
band holds nothing else and only its two flanks are built.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .dispersion import MIN_MODE, _integer, _root_floor, dispersion, dispersion_float

#: Margin added to float pre-filters before exact confirmation.  For
#: |n| < 2**26, n*n - 1 and n*n - 4 are exact, so ``dispersion_float`` errs
#: by at most u*|lam(n)| <= u*8/5 (u = 2**-53).  Summing p <= 6 such terms
#: adds at most (p-1)*u*p*8/5, so a float sum is within 36*u*8/5 < 1e-14 of
#: the exact one.  A row at the exact minimum (or at zero) therefore lies
#: within 2e-14 of the float minimum (or of zero); 1e-12 covers that fifty
#: times over.
#: The split search adds two float half sums, A_left + A_right: still p
#: terms summed in some order, so the bound holds.  Its built window has
#: width w >= m + 1e-12 (m the float minimum), a row at the exact minimum has
#: |A_left + A_right| <= m + 2e-14, and rounding the window ends
#: -A_left -/+ w errs by < 1e-14, so binary search cannot leave that row out.
FLOAT_MARGIN = 1e-12

#: Half-width of the band around zero that holds every totally degenerate
#: tuple.  A degenerate tuple has exact sum 0, so by the bound above its
#: float |A_left + A_right| is < 1e-14, and the band's rounded ends err by
#: < 1e-14: binary search counts it in the band.  The smallest nondegenerate
#: float sum seen, 2.3e-11 at p = 6 and bound 100, lies far outside; one
#: inside would make the band's count exceed the degenerate total, and the
#: search would then build the band and test its rows.
DEGENERATE_BAND = 1e-13

#: Rows of the larger half set built at a time, in whole momentum groups
#: (a slab can exceed it by one group).  Smaller slabs lower the peak of
#: the benchmark's jobs but cost a few NumPy calls each; the benchmark's
#: peaks were measured with this value.
SLAB_ROWS = 2**13

#: Most rows in the larger half set of a search of arity p, the ordered
#: (p - p // 2)-tuples of the 2 (bound - 2) modes; ``max_bound`` turns it
#: into the largest bound accepted.  Streamed by slab, at its largest bound
#: a search peaks at 32 MB resident for p = 3 (bound 3164, 5.2 s), 38 MB
#: for p = 4 (bound 3164, 13.8 s), 44 MB for p = 5 (bound 172, 9.3 s) and
#: 142 MB for p = 6 (bound 172, 123 s, with the band fallback), on a 2-vCPU
#: Xeon host.
MAX_HALF_ROWS = 40_000_000


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


class _Slab(NamedTuple):
    """Ordered k-tuples of modes and their keys, momentum (integer sum) +
    i * float frequency sum.  NumPy orders complex numbers lexicographically,
    so sorted keys group the tuples by momentum, and by float sum within
    each group."""

    rows: np.ndarray
    keys: np.ndarray


def _slab(prefixes: _Slab, modes: _Slab, lo: int, hi: int) -> _Slab:
    """The tuples prefix + (n,) whose momentum lies in lo..hi.

    The modes are sorted, so for each prefix ``searchsorted`` finds the run
    of last entries n that puts the momentum in range.  Keys add
    componentwise, so every float sum is formed in the order
    ((0 + lam_0) + lam_1) + ... and keeps its bits whatever the slab.
    """
    momenta = prefixes.keys.real
    first = np.searchsorted(modes.keys.real, lo - momenta, side="left")
    pi, ni = _pairs(first, np.searchsorted(modes.keys.real, hi - momenta, side="right"))
    # MAX_HALF_ROWS keeps every mode below 2**15
    return _Slab(np.concatenate([prefixes.rows[pi], modes.rows[ni]], axis=1),
                 prefixes.keys[pi] + modes.keys[ni])


def _sorted(slab: _Slab) -> _Slab:
    """The slab in order of its keys."""
    order = np.argsort(slab.keys, kind="stable")
    return _Slab(slab.rows[order], slab.keys[order])


def _slabs(counts: np.ndarray, first: int) -> list:
    """Momentum ranges lo..hi of runs of whole groups, about SLAB_ROWS rows
    each, given the group sizes ``counts`` at momenta first, first + 1, ...:
    a group joins the slab in which its first row falls."""
    ids = (np.cumsum(counts) - counts) // SLAB_ROWS
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    ends = np.append(starts[1:], counts.shape[0]) - 1
    return [(first + a, first + b) for a, b in zip(starts.tolist(), ends.tolist())]


def _key_runs(keys: np.ndarray, halves: np.ndarray, width: float):
    """For each left half's key (momentum S, float sum a) the run lo:hi of
    the sorted keys with momentum -S and sum in [-a - width, -a + width]."""
    query = np.empty(halves.shape[0], dtype=complex)
    # set the parts one at a time: 1j * inf has a NaN real part
    query.real = -halves.real
    query.imag = -halves.imag - width
    lo = np.searchsorted(keys, query, side="left")
    query.imag = -halves.imag + width
    return lo, np.searchsorted(keys, query, side="right")


def _pairs(lo: np.ndarray, hi: np.ndarray, skip=None):
    """Indices (li, ri) that pair left half i with each right half in
    lo[i]:hi[i], less the run skip[0][i]:skip[1][i] inside it if given."""
    if skip is not None:
        below, above = _pairs(lo, skip[0]), _pairs(skip[1], hi)
        return np.concatenate([below[0], above[0]]), np.concatenate([below[1], above[1]])
    counts = hi - lo
    li = np.repeat(np.arange(lo.shape[0]), counts)
    # the k-th row of left half i pairs it with right half lo[i] + k
    ri = np.arange(li.shape[0]) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    return li, ri


class _ChunkStats:
    """Reduction state of one window, fed one slab at a time.

    ``band`` counts the tuples in the DEGENERATE_BAND and ``nearest`` is the
    smallest float |frequency sum| outside it, over the slabs so far.
    Besides the degenerate count it keeps the candidate rows and their float
    sums: the nondegenerate rows within FLOAT_MARGIN of the float minimum.
    The row at the minimum is always kept, and the minimum only falls, so
    filtering after each slab keeps exactly those rows, in memory bounded by
    one slab.
    """

    def __init__(self, p: int):
        self.band, self.nearest = 0, np.inf
        self.degenerate = 0
        self.rows = np.empty((0, p), dtype=np.int16)
        self.sums = np.empty(0)

    def add(self, rows: np.ndarray, sums: np.ndarray):
        """Fold in one slab's rows and their float |frequency sums|."""
        if rows.shape[1] % 2 == 0:
            degenerate = _degenerate_rows(rows)
            self.degenerate += int(np.count_nonzero(degenerate))
            rows, sums = rows[~degenerate], sums[~degenerate]
        self.rows = np.concatenate([self.rows, rows])
        self.sums = np.concatenate([self.sums, sums])
        near = self.sums <= self.sums.min(initial=np.inf) + FLOAT_MARGIN
        self.rows, self.sums = self.rows[near], self.sums[near]

    def scan(self, left: _Slab, right: _Slab, band_only: bool):
        """Fold in the tuples that pair a left half with a right half (sorted
        by key) of opposite momentum: only those in the band if
        ``band_only``.  Otherwise count the band, lower ``nearest`` with the
        gap to the partners next to it (right half lo - 1 or hi), and build
        the window of width nearest + FLOAT_MARGIN less the band.  No window
        is narrower than the one at the final ``nearest``, so the candidates
        do not depend on where the slabs end.
        """
        a, b = left.keys.imag, right.keys.imag
        lo, hi = _key_runs(right.keys, left.keys, DEGENERATE_BAND)
        if band_only:
            li, ri = _pairs(lo, hi)
        else:
            self.band += int((hi - lo).sum())
            gap = np.full(a.shape[0], np.inf)
            for j in (lo - 1, hi):
                ok = (j >= 0) & (j < b.shape[0])
                ok[ok] = right.keys.real[j[ok]] == -left.keys.real[ok]
                gap[ok] = np.minimum(gap[ok], np.abs(a[ok] + b[j[ok]]))
            self.nearest = min(self.nearest, float(gap.min(initial=np.inf)))
            width = self.nearest + FLOAT_MARGIN
            # a gap over width + FLOAT_MARGIN puts both partners outside the
            # window's float ends, which err by < 1e-14: only the band is left
            reach = np.flatnonzero(gap <= width + FLOAT_MARGIN)
            window = _key_runs(right.keys, left.keys[reach], width)
            li, ri = _pairs(*window, (lo[reach], hi[reach]))
            li = reach[li]
        if li.shape[0]:
            self.add(np.concatenate([left.rows[li], right.rows[ri]], axis=1), np.abs(a[li] + b[ri]))


def _exact(rows: np.ndarray) -> list:
    """(exact |frequency sum|, canonical tuple) of each orbit among the rows."""
    return [(abs(lambda_sum(rep)), rep) for rep in set(map(canonical_tuple, rows))]


def _search(p: int, bound: int) -> ResonanceReport:
    """Split search over all ordered p-tuples, then exact confirmation.

    Left halves are k = p - p // 2 entries long and right halves p // 2.
    The (k - 1)-entry prefixes are built once, and the left halves one slab
    of momenta at a time from them.  For even p the right halves at -S are
    the left halves at S negated, in reverse order (``dispersion_float`` is
    odd), so each slab is sorted once and mirrored; for odd p the right
    halves are the prefixes, sorted once.  The group sizes c_k(S), repeated
    convolutions of the mode indicator, set the slabs, and
    ``tuples_scanned`` is the size of the unbounded window, sum over S of
    c_left(S) * c_right(-S).
    Every degenerate tuple (exact sum 0) lies in the DEGENERATE_BAND, so the
    nondegenerate float minimum is at most the smallest sum m outside it,
    and only windows of width m + FLOAT_MARGIN or more, less the band, are
    built.  If the band holds as many tuples as ``_degenerate_total`` says
    there are degenerate ones, it holds nothing else, and that count is
    ``degenerate_count``.  Otherwise a second pass builds the band and tests
    its rows.

    The candidate rows are confirmed exactly.  Every minimum is >= 0, so the
    rows within FLOAT_MARGIN of zero, which hold every exact resonance, are
    among those within FLOAT_MARGIN of the minimum.
    """
    k = p - p // 2
    pos = np.arange(MIN_MODE, bound + 1, dtype=np.int16)
    values = np.concatenate([-pos[::-1], pos])
    keys = np.empty(values.shape[0], dtype=complex)
    keys.real, keys.imag = values, dispersion_float(values)
    modes = _Slab(values[:, None], keys)
    prefixes = _Slab(np.empty((1, 0), dtype=np.int16), np.zeros(1, dtype=complex))
    indicator = (np.abs(np.arange(-bound, bound + 1)) >= MIN_MODE).astype(np.int64)
    prefix_counts = np.ones(1, dtype=np.int64)
    for _ in range(k - 1):
        prefixes = _slab(prefixes, modes, -k * bound, k * bound)
        prefix_counts = np.convolve(prefix_counts, indicator)
    counts = np.convolve(prefix_counts, indicator)
    # c_right(-S) = c_right(S) at each momentum S of the left halves
    partners = counts if p % 2 == 0 else prefix_counts
    edge = (counts.shape[0] - partners.shape[0]) // 2
    scanned = int(counts[edge:counts.shape[0] - edge] @ partners)
    short_halves = None if p % 2 == 0 else _sorted(prefixes)

    window = _ChunkStats(p)
    for band_only in (False, True):
        for lo, hi in _slabs(counts, -k * bound):
            left = _slab(prefixes, modes, lo, hi)
            if short_halves is None:
                left = _sorted(left)
                right = _Slab(-left.rows[::-1], -left.keys[::-1])
            else:
                # the right halves of momentum -hi..-lo
                first, last = np.searchsorted(short_halves.keys.real, (-hi - 0.5, -lo + 0.5))
                right = _Slab(short_halves.rows[first:last], short_halves.keys[first:last])
            window.scan(left, right, band_only)
        proven = window.band == _degenerate_total(p, bound)
        if proven:
            break

    ranked = _exact(window.rows)
    min_value, argmin = min(ranked, default=(None, None))
    return ResonanceReport(
        p=p,
        bound=bound,
        min_value=min_value,
        argmin=argmin,
        degenerate_count=window.degenerate + (window.band if proven else 0),
        exact_zero_tuples=sorted({rep for value, rep in ranked if value == 0}),
        tuples_scanned=scanned,
    )


def max_bound(p: int) -> int:
    """The largest bound of a search of arity p: its larger half set, of
    (2 (bound - 2))^(p - p // 2) rows, stays within MAX_HALF_ROWS."""
    return _root_floor(MAX_HALF_ROWS, p - p // 2) // 2 + MIN_MODE - 1


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
    return _search(6, bound)


def certify(report: ResonanceReport, path) -> None:
    """Write the report as a byte-reproducible JSON certificate."""
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def load_certificate(path) -> ResonanceReport:
    with open(path) as handle:
        return ResonanceReport.from_dict(json.load(handle))
