"""Exact small-denominator bounds and exhaustive resonance searches.

A resonance is a tuple (n_1, ..., n_p) of modes with |n_j| >= 3, zero sum,
and zero frequency sum.  Because the frequency is odd, every totally
degenerate tuple (one that splits into (k, -k) pairs) resonates; the
interesting question is whether any other tuple does.  Known answers within
reach of exact search:

  p = 3, 5   no resonances; the frequency sum stays above 2/5 resp. 9/35;
  p = 4      resonances are exactly the totally degenerate tuples, and the
             nondegenerate minimum decays like min(|n_j|)^-4;
  p = 6      open; the search below is evidence, never proof.

Every decision is made in exact rational arithmetic.  Floats appear only as
a pre-filter: candidates within 1e-12 of the float threshold are re-evaluated
exactly before anything is concluded.

The searches meet in the middle (Horowitz & Sahni, J. ACM 21(2), 1974): a
p-tuple is a left and a right half with opposite momenta (integer sums).
Each set of halves is enumerated once and grouped by momentum; the right
halves are sorted by float frequency sum within each group, and binary
search builds only the tuples whose sum lies in a window around zero.  The
totally degenerate tuples (about 15 N^3 of them for p = 6) all lie in a thin
band around zero; binary search counts the band without building it, and
when the count equals the number of degenerate tuples, which a multiset
formula gives, the band holds nothing else and only its two flanks are
built.  For p = 4 the minimum for each value of min |n_j| comes from one
such window per value, over masks of the same pair set, never from every
tuple.
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
#: The per-min windows of p = 4 repeat the argument for each v = min |n_j|:
#: with m_v the float minimum over the rows of that v, the window has width
#: w_v >= m_v + 1e-12 and the exact per-v minimum lies within 2e-14 of m_v.
FLOAT_MARGIN = 1e-12

#: Half-width of the band around zero that holds every totally degenerate
#: tuple.  A degenerate tuple has exact sum 0, so by the bound above its
#: float |A_left + A_right| is < 1e-14, and the band's rounded ends err by
#: < 1e-14: binary search counts it in the band.  The smallest nondegenerate
#: float sum seen, 2.3e-11 at p = 6 and bound 100, lies far outside; one
#: inside would make the band's count exceed the degenerate total, and the
#: search would then build the band and test its rows.
DEGENERATE_BAND = 1e-13

#: Most rows in the larger half set of a search of arity p, the ordered
#: (p - p // 2)-tuples of the 2 (bound - 2) modes; ``max_bound`` turns each
#: limit into the largest bound accepted.  At its largest bound a search
#: peaks at 1.10 GB resident for p = 3 (bound 3164, 5.3 s), 0.85 GB for
#: p = 4 (bound 1734, 308 s), 1.16 GB for p = 5 (bound 172, 8.5 s) and
#: 1.16 GB for p = 6 (bound 172, 113 s), on a 2-vCPU Xeon host.  The
#: per-min windows of p = 4 hold complex keys and masks over the whole pair
#: set, about 71 bytes a row against 28-30 for the others, hence its lower
#: limit.
MAX_HALF_ROWS = {3: 40_000_000, 4: 12_000_000, 5: 40_000_000, 6: 40_000_000}


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
    ``scaling_by_min`` (p = 4 only) maps each value v of min |n_j| to the
    exact minimum over nondegenerate tuples attaining it.
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
    if p == 4:
        return 12 * n * (n - 1) + 6 * n
    if p == 6:
        return 120 * n * (n - 1) * (n - 2) + 180 * n * (n - 1) + 20 * n
    return 0


class _Halves(NamedTuple):
    """All ordered k-tuples of modes 3 <= |n| <= bound, grouped by momentum
    (integer sum); ``groups`` maps each momentum to its rows' slice.  Halves
    that are searched are sorted by float frequency sum within each group."""

    rows: np.ndarray
    sums: np.ndarray
    groups: dict


def _half_tuples(bound: int, k: int, searched: bool = True) -> _Halves:
    # MAX_HALF_ROWS keeps every mode and value index below 2**15
    pos = np.arange(MIN_MODE, bound + 1, dtype=np.int16)
    values = np.concatenate([-pos[::-1], pos])
    slots = np.indices((values.shape[0],) * k, dtype=np.int16).reshape(k, -1)
    lam = dispersion_float(values)
    sums = sum(lam[i] for i in slots)
    rows = values[slots]
    # the sort sets the peak memory: free each array as soon as it is spent
    del slots
    momentum = rows.sum(axis=0, dtype=np.int32)
    if searched:
        order = np.lexsort((sums, momentum))
    else:
        order = np.argsort(momentum, kind="stable")
    momentum = momentum[order]
    starts = np.flatnonzero(np.concatenate([[True], momentum[1:] != momentum[:-1]]))
    ends = starts[1:].tolist() + [momentum.shape[0]]
    groups = {s: slice(a, b) for s, a, b in zip(momentum[starts].tolist(), starts.tolist(), ends)}
    del momentum
    rows = rows[:, order].T
    return _Halves(rows, sums[order], groups)


class _ChunkStats:
    """Reduction state of one window, fed one momentum bucket at a time.

    Besides the degenerate count and the float minimum it keeps the
    candidate rows and their float sums: the nondegenerate rows within
    FLOAT_MARGIN of the minimum.  The minimum only falls, so filtering after
    each bucket keeps exactly those rows, in memory bounded by the largest
    bucket.
    """

    def __init__(self, p: int):
        self.degenerate = 0
        self.min_float = np.inf
        self.rows = np.empty((0, p), dtype=np.int16)
        self.sums = np.empty(0)

    def add(self, rows: np.ndarray, sums: np.ndarray):
        """Fold in one bucket's rows and their float |frequency sums|."""
        if rows.shape[1] % 2 == 0:
            degenerate = _degenerate_rows(rows)
            self.degenerate += int(np.count_nonzero(degenerate))
            rows, sums = rows[~degenerate], sums[~degenerate]
        self.min_float = min(self.min_float, float(sums.min(initial=np.inf)))
        self.rows = np.concatenate([self.rows, rows])
        self.sums = np.concatenate([self.sums, sums])
        near = self.sums <= self.min_float + FLOAT_MARGIN
        self.rows, self.sums = self.rows[near], self.sums[near]


def _run(a: np.ndarray, b: np.ndarray, width: float):
    """For each left half's float sum a, the run lo:hi of the sorted right
    sums b in [-a - width, -a + width]."""
    lo = np.searchsorted(b, -a - width, side="left")
    return lo, np.searchsorted(b, -a + width, side="right")


def _runs(left: _Halves, right: _Halves, width: float):
    """Per momentum S: the slices of the left halves at S and the right ones
    at -S, their float sums a and b, and each left half's ``_run``."""
    for momentum, lsl in left.groups.items():
        rsl = right.groups.get(-momentum)
        if rsl is not None:
            a, b = left.sums[lsl], right.sums[rsl]
            yield lsl, rsl, a, b, *_run(a, b, width)


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


def _band(left: _Halves, right: _Halves) -> tuple:
    """Count of the tuples in the DEGENERATE_BAND, and the smallest float
    |frequency sum| outside it: for each left half that lies next to its
    run, at right half lo - 1 or hi."""
    count, nearest = 0, np.inf
    for _, _, a, b, lo, hi in _runs(left, right, DEGENERATE_BAND):
        count += int((hi - lo).sum())
        for j in (lo - 1, hi):
            ok = (j >= 0) & (j < b.shape[0])
            nearest = min(nearest, float(np.abs(a[ok] + b[j[ok]]).min(initial=np.inf)))
    return count, nearest


def _window(left: _Halves, right: _Halves, width: float, p: int, skip_band: bool) -> _ChunkStats:
    """Build and reduce the tuples whose float |frequency sum| is <= ``width``,
    leaving out those in the DEGENERATE_BAND if ``skip_band``."""
    stats = _ChunkStats(p)
    for lsl, rsl, a, b, lo, hi in _runs(left, right, width):
        li, ri = _pairs(lo, hi, _run(a, b, DEGENERATE_BAND) if skip_band else None)
        rows = np.concatenate([left.rows[lsl][li], right.rows[rsl][ri]], axis=1)
        stats.add(rows, np.abs(a[li] + b[ri]))
    return stats


def _key_runs(keys: np.ndarray, momenta: np.ndarray, a: np.ndarray, width: float):
    """For each left half (momentum S, float sum a) the run lo:hi of the
    sorted keys momentum + i*sum with momentum -S and sum in
    [-a - width, -a + width]."""
    query = np.empty(a.shape[0], dtype=complex)
    # set the parts one at a time: 1j * inf has a NaN real part
    query.real = -momenta
    query.imag = -a - width
    lo = np.searchsorted(keys, query, side="left")
    query.imag = -a + width
    return lo, np.searchsorted(keys, query, side="right")


def _scaling_by_min(halves: _Halves, bound: int, skip_band: bool) -> dict:
    """Exact nondegenerate minimum of |frequency sum| for each min |n_j| (p = 4).

    A 4-tuple with min |n_j| = v has an ordering whose left pair holds the
    entry +-v and whose right pair has every |n| >= v, and the frequency sum
    does not depend on the ordering.  So for each v the left halves are the
    pairs whose smaller |entry| is v and the right halves those with both
    |entries| >= v.  As in ``_search``, the window reaches FLOAT_MARGIN past
    the nearest partner outside the DEGENERATE_BAND, leaving the band out if
    ``skip_band`` (the band then holds degenerate tuples only); its
    nondegenerate rows within FLOAT_MARGIN of their float minimum are
    confirmed exactly.  Masks keep the pairs' order, so the right halves
    stay sorted by (momentum, float sum): as complex keys, which NumPy
    orders lexicographically, one ``searchsorted`` covers every momentum of
    one v.
    """
    momenta = halves.rows.sum(axis=1, dtype=np.int32)
    smaller = np.abs(halves.rows).min(axis=1)
    keys = np.empty(momenta.shape[0], dtype=complex)
    keys.real, keys.imag = momenta, halves.sums
    scaling = {}
    for v in range(MIN_MODE, bound + 1):
        at_v, right = smaller == v, smaller >= v
        s, a, rkeys = momenta[at_v], halves.sums[at_v], keys[right]
        lo, hi = _key_runs(rkeys, s, a, DEGENERATE_BAND)
        nearest = np.inf
        for j in (lo - 1, hi):
            ok = (j >= 0) & (j < rkeys.shape[0])
            ok[ok] = rkeys.real[j[ok]] == -s[ok]
            nearest = min(nearest, float(np.abs(a[ok] + rkeys.imag[j[ok]]).min(initial=np.inf)))
        window = _key_runs(rkeys, s, a, nearest + FLOAT_MARGIN)
        li, ri = _pairs(*window, (lo, hi) if skip_band else None)
        rows = np.concatenate([halves.rows[at_v][li], halves.rows[right][ri]], axis=1)
        sums = np.abs(a[li] + rkeys.imag[ri])
        keep = ~_degenerate_rows(rows)
        rows, sums = rows[keep], sums[keep]
        if rows.shape[0]:
            near = rows[sums <= sums.min() + FLOAT_MARGIN]
            scaling[v] = min(abs(lambda_sum(rep)) for rep in set(map(canonical_tuple, near)))
    return scaling


def _search(p: int, bound: int) -> ResonanceReport:
    """Split search over all ordered p-tuples, then exact confirmation.

    Halves are p - p // 2 (left) and p // 2 (right) entries long; one set
    serves both sides for even p, and for odd p only the shorter right
    halves, the ones binary search runs over, are sorted by float sum.
    ``tuples_scanned`` is the size of the unbounded window, sum over S of
    c_left(S) * c_right(-S).
    Every degenerate tuple (exact sum 0) lies in the DEGENERATE_BAND, so the
    nondegenerate float minimum is at most the smallest sum m outside it,
    and only the window of width m + FLOAT_MARGIN is built.  If binary
    search counts as many tuples in the band as ``_degenerate_total`` says
    there are degenerate ones, the band holds nothing else: that count is
    ``degenerate_count``, and only the window's two flanks outside the band
    are built.  Otherwise the band is built too and its rows are tested.

    The candidate rows are confirmed exactly.  Every minimum is >= 0, so the
    rows within FLOAT_MARGIN of zero, which hold every exact resonance, are
    among those within FLOAT_MARGIN of the minimum.  For p = 4,
    ``_scaling_by_min`` adds the minimum for each min |n_j| from per-min
    windows of the same pair set.
    """
    right = _half_tuples(bound, p // 2)
    left = right if p % 2 == 0 else _half_tuples(bound, p - p // 2, searched=False)
    in_band, nearest = _band(left, right)
    proven = in_band == _degenerate_total(p, bound)
    # odd p has an empty band, and nothing to leave out of the window
    skip_band = proven and in_band > 0
    stats = _window(left, right, nearest + FLOAT_MARGIN, p, skip_band)
    scanned = sum(
        (lsl.stop - lsl.start) * (right.groups[-s].stop - right.groups[-s].start)
        for s, lsl in left.groups.items()
        if -s in right.groups
    )

    ranked = [(abs(lambda_sum(rep)), rep) for rep in set(map(canonical_tuple, stats.rows))]
    min_value, argmin = min(ranked, default=(None, None))
    return ResonanceReport(
        p=p,
        bound=bound,
        min_value=min_value,
        argmin=argmin,
        degenerate_count=stats.degenerate + (in_band if skip_band else 0),
        exact_zero_tuples=sorted({rep for value, rep in ranked if value == 0}),
        scaling_by_min=_scaling_by_min(right, bound, skip_band) if p == 4 else None,
        tuples_scanned=scanned,
    )


def max_bound(p: int) -> int:
    """The largest bound of a search of arity p: its larger half set, of
    (2 (bound - 2))^(p - p // 2) rows, stays within MAX_HALF_ROWS[p]."""
    return _root_floor(MAX_HALF_ROWS[p], p - p // 2) // 2 + MIN_MODE - 1


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


def min_denominator(p: int, bound: int) -> ResonanceReport:
    """Exact nondegenerate minimum of |frequency sum| over |n_j| <= bound.

    For p = 3, 5 the result is checked against the proven constants 2/5 and
    9/35 (a violation raises).  For p = 4 the report also carries the exact
    minimum for each value of min |n_j|, exhibiting the fourth-power decay.
    Raises ValueError unless p is one of 3, 4, 5 and bound an integer from 9
    to ``max_bound(p)``, naming each offending argument as ``"<name>: <rule>"``.
    """
    _check_request(p, bound, (3, 4, 5))
    report = _search(p, bound)
    known = KNOWN_LOWER_BOUNDS.get(p)
    if known is not None and not report.exact_zero_tuples and report.min_value < known:
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
