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
a pre-filter: candidates within 1e-6 of the float threshold are re-evaluated
exactly before anything is concluded.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dispersion import MIN_MODE, dispersion, dispersion_float

#: Margin added to float pre-filters before exact confirmation.  For
#: |n| < 2**26, n*n - 1 and n*n - 4 are exact, so ``dispersion_float`` errs
#: by at most u*|lam(n)| <= u*8/5 (u = 2**-53).  Summing p <= 6 such terms
#: adds at most (p-1)*u*p*8/5, so a float sum is within 36*u*8/5 < 1e-14 of
#: the exact one.  A row at the exact minimum (or at zero) therefore lies
#: within 2e-14 of the float minimum (or of zero); 1e-6 covers that with room.
FLOAT_MARGIN = 1e-6

#: Environment variable selecting the number of enumeration worker threads.
THREADS_ENV = "SQGLAB_THREADS"


def _num_threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def check_tuple(entries: Sequence[int]) -> tuple:
    entries = tuple(int(n) for n in entries)
    if sum(entries) != 0:
        raise ValueError(f"tuple {entries} does not sum to zero")
    if any(abs(n) < MIN_MODE for n in entries):
        raise ValueError(f"tuple {entries} has an entry with |n| < {MIN_MODE}")
    return entries


def lambda_sum(entries: Sequence[int]) -> Fraction:
    """Exact frequency sum of a zero-sum tuple of admissible modes."""
    entries = check_tuple(entries)
    return sum((dispersion(n) for n in entries), Fraction(0))


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


def _mode_values(bound: int) -> np.ndarray:
    """All admissible modes with |n| <= bound, ascending."""
    pos = np.arange(MIN_MODE, bound + 1, dtype=np.int64)
    return np.concatenate([-pos[::-1], pos])


def _degenerate_rows(rows: np.ndarray) -> np.ndarray:
    ordered = np.sort(rows, axis=1)
    half = rows.shape[1] // 2
    ok = np.ones(rows.shape[0], dtype=bool)
    for i in range(half):
        ok &= ordered[:, i] == -ordered[:, -1 - i]
    return ok


class _ChunkStats:
    """Reduction state of the scan; ``merge`` is associative.

    Besides the counts and the float minima (overall, and per min |n_j| when
    ``by_min`` is tracked) it carries the candidate rows: the nondegenerate
    rows whose float sum lies within FLOAT_MARGIN of the minimum, or for
    p = 4 of the minimum for the row's own min |n_j|, with their float sums
    (and min |n_j|).  A chunk's minima are never below the merged ones, so
    filtering again after each merge leaves exactly the rows within the
    margin of the global minima.
    """

    def __init__(self, p: int, bound: int, track_by_min: bool):
        self.count = 0
        self.degenerate = 0
        self.min_float = np.inf
        self.by_min = np.full(bound + 1, np.inf) if track_by_min else None
        self.rows = np.empty((0, p), dtype=np.int64)
        self.sums = np.empty(0)
        self.mins = np.empty(0, dtype=np.int64) if track_by_min else None

    def _keep_near(self):
        floor = self.min_float if self.by_min is None else self.by_min[self.mins]
        near = self.sums <= floor + FLOAT_MARGIN
        self.rows, self.sums = self.rows[near], self.sums[near]
        if self.mins is not None:
            self.mins = self.mins[near]

    def merge(self, other: "_ChunkStats"):
        self.count += other.count
        self.degenerate += other.degenerate
        self.min_float = min(self.min_float, other.min_float)
        self.rows = np.concatenate([self.rows, other.rows])
        self.sums = np.concatenate([self.sums, other.sums])
        if self.by_min is not None:
            np.minimum(self.by_min, other.by_min, out=self.by_min)
            self.mins = np.concatenate([self.mins, other.mins])
        self._keep_near()


def _chunk_rows(lead: int, flat: list, bound: int, p: int) -> np.ndarray:
    """Materialize the valid ordered tuples with leading entry ``lead``, (rows, p).

    Slots 2..p-1 run over ``flat`` (the raveled grid of the full mode set)
    and the last slot is determined by the zero-sum constraint.
    """
    rows = np.empty((flat[0].shape[0], p), dtype=np.int64)
    rows[:, 0] = lead
    for j, col in enumerate(flat):
        rows[:, j + 1] = col
    rows[:, -1] = -rows[:, :-1].sum(axis=1)
    last = rows[:, -1]
    keep = (np.abs(last) >= MIN_MODE) & (np.abs(last) <= bound)
    return rows[keep]


def _scan(p: int, bound: int, track_by_min: bool) -> _ChunkStats:
    """The one pass over all ordered tuples, one chunk per leading mode.

    Returns the merged counts, float minima and candidate rows.  Chunks run
    on ``SQGLAB_THREADS`` worker threads and are merged in a fixed order.
    """
    values = _mode_values(bound)
    flat = [g.ravel() for g in np.meshgrid(*([values] * (p - 2)), indexing="ij")]

    def work(lead: int) -> _ChunkStats:
        stats = _ChunkStats(p, bound, track_by_min)
        rows = _chunk_rows(lead, flat, bound, p)
        stats.count = rows.shape[0]
        if p % 2 == 0:
            degenerate = _degenerate_rows(rows)
            stats.degenerate = int(np.count_nonzero(degenerate))
            rows = rows[~degenerate]
        if rows.shape[0] == 0:
            return stats
        stats.rows = rows
        stats.sums = np.abs(dispersion_float(rows).sum(axis=1))
        stats.min_float = float(stats.sums.min())
        if track_by_min:
            stats.mins = np.abs(rows).min(axis=1)
            np.minimum.at(stats.by_min, stats.mins, stats.sums)
        stats._keep_near()
        return stats

    leads = [int(lead) for lead in values]
    total = _ChunkStats(p, bound, track_by_min)
    workers = _num_threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for stats in pool.map(work, leads):
                total.merge(stats)
    else:
        for lead in leads:
            total.merge(work(lead))
    return total


def _search(p: int, bound: int, track_by_min: bool):
    """Scan once and confirm the candidates exactly.

    Returns the report (without ``scaling_by_min``), the scan state and the
    exact |frequency sum| of each of its candidate rows.  Every minimum is
    >= 0, so the rows within FLOAT_MARGIN of zero, which hold every exact
    resonance, are among those within FLOAT_MARGIN of the minimum.
    """
    stats = _scan(p, bound, track_by_min)
    exact = [
        abs(sum((dispersion(int(n)) for n in row), Fraction(0))) for row in stats.rows
    ]
    near = stats.sums <= stats.min_float + FLOAT_MARGIN
    ranked = [
        (value, canonical_tuple(row))
        for value, row, ok in zip(exact, stats.rows, near)
        if ok
    ]
    min_value, argmin = min(ranked, default=(None, None))
    report = ResonanceReport(
        p=p,
        bound=bound,
        min_value=min_value,
        argmin=argmin,
        degenerate_count=stats.degenerate,
        exact_zero_tuples=sorted({rep for value, rep in ranked if value == 0}),
        tuples_scanned=stats.count,
    )
    return report, stats, exact


#: Proven lower bounds for the nondegenerate frequency-sum minimum.
KNOWN_LOWER_BOUNDS = {3: Fraction(2, 5), 5: Fraction(9, 35)}


def min_denominator(p: int, bound: int) -> ResonanceReport:
    """Exact nondegenerate minimum of |frequency sum| over |n_j| <= bound.

    For p = 3, 5 the result is checked against the proven constants 2/5 and
    9/35 (a violation raises).  For p = 4 the report also carries the exact
    minimum for each value of min |n_j|, exhibiting the fourth-power decay.
    """
    if p not in (3, 4, 5):
        raise ValueError(f"min_denominator supports p in {{3, 4, 5}}, got {p}")
    if bound < 9:
        raise ValueError(f"bound {bound} < 9 is too small to be informative")

    report, stats, exact = _search(p, bound, track_by_min=p == 4)
    if stats.count == 0:
        raise ValueError(f"no admissible tuples with p={p}, bound={bound}")

    if p == 4:
        scaling: dict[int, Fraction] = {}
        for v, value in zip(stats.mins.tolist(), exact):
            scaling[v] = min(value, scaling.get(v, value))
        report.scaling_by_min = scaling

    known = KNOWN_LOWER_BOUNDS.get(p)
    if known is not None and not report.exact_zero_tuples and report.min_value < known:
        raise AssertionError(
            f"p={p} minimum {report.min_value} violates the proven bound {known}"
        )
    return report


def search_resonances_p6(bound: int = 20) -> ResonanceReport:
    """Exhaustive exact search for nondegenerate 6-tuples with zero frequency sum.

    An empty ``exact_zero_tuples`` list is evidence for non-existence within
    the searched radius, nothing more.
    """
    if bound < 9:
        raise ValueError(f"bound {bound} < 9 is too small to be informative")
    return _search(6, bound, track_by_min=False)[0]


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
