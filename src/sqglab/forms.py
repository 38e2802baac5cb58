"""Multilinear multiplier forms and the iterated normal-form energy chain.

A p-linear form acts on truncated admissible fields through a multiplier on
zero-sum mode tuples:

    M(u_1, ..., u_p) = sum_{n_1+...+n_p=0} m(n_1,...,n_p)
                       uhat_1(n_1) ... uhat_p(n_p),

every n_j on the m-fold lattice with 3 <= |n_j| <= n_max.  Forms are stored
as dense value tables over the ordered admissible tuples, symmetrized over
slot permutations so that each multiplier has one table.  A form is nothing
but that table: properties such as parity under negating every mode are read
from the values when asked for (``parity_defect``), not declared.  Each tuple
space groups its tuples into permutation orbits once; symmetrization averages
over them, and the exact frequency sum, whose zeros are the resonant tuples,
comes from ``sqglab.resonance``, once per orbit.

The operators implemented here drive the corrected-energy construction:

  normal_form_divide   divide the multiplier by the frequency sum (rejects
                       nonzero values on resonant tuples);
  resonant_projection  restrict to the resonant tuples, the projection P of
                       a normal form (the zero form at arity 3 and 5);
  nonlinearity_extension  arity p -> p+1 insertion of the quadratic term
                       N(f) = 2 (Kf) f' - f (Kf)' into each slot.

Along the truncated flow f' = -(Kf)' rotation + N(f), the time derivative
of the quadratic Sobolev energy is an exact cubic form, and each division /
re-extension round pushes the derivative of the corrected energy up one
degree: cubic -> quartic -> sextic.  ``build_chain`` packages the cubic,
quartic and quintic corrections; the derivative of each corrected energy is
evaluated by inserting N(f) into the last correction, so the sextic table
is never built.  The identities hold exactly for the truncated dynamics
because extensions drop merged modes beyond n_max, mirroring the Galerkin
product.  A diagonal evaluation shares the product of the first p-2
amplitudes among the rows with the same prefix, makes the last two
multiplies one block of rows at a time, and rounds each row's product
exactly as a per-row reduction would.

Row ``count - 1 - r`` of a tuple table is the negation of row r, and a
real field has amp(-n) = conj amp(n), so both evaluations multiply out only
the first half of the rows and fill the rest with the conjugates in
reverse.  The guard that keeps this exact: every amplitude component lies
in MIRROR_RANGE (finite, nonzero, within 2^-100..2^100, so no partial
product underflows), and for ``evaluate`` the form is conjugate-symmetric,
m(-n) = conj m(n), which every chain table is.  Otherwise the whole table
is multiplied out.  The full-length sum is kept, so every result has the
bits of the whole-table product.

The chain is built in bounded memory: a tuple space stores only its index
table (the modes, the raveled keys and the prefix ids derive from it), and
an extension is accumulated one block of output rows at a time, with every
row rounded as a whole-table pass would round it.  The index table, the
prefix ids and the orbit of each row are stored in the smallest unsigned
dtype that holds their largest value: the index table takes one byte per
slot up to 256 modes and two beyond.  The extension multiplies with them,
so it widens one ROW_BLOCK of index rows at a time to intp
(``TupleSpace.rows``): a product of narrow indices would wrap.  The
evaluations only gather through them, straight through the narrow prefix
ids and index columns into buffers allocated once per call, with
``mode="clip"``: the indices lie in range by construction, and in its
default mode ``take`` writes through a buffer of its own.  Over the 303
records of the benchmark's ``normalform`` sweep (one process, 2-vCPU
host), that cut the CPU time of ``levels`` from 0.19-0.22 s to 0.14-0.15 s
and of the measured derivatives from 0.17-0.19 s to 0.09 s, against
widening each block or column first.  Nothing caches a tuple space:
``tuple_space`` builds one at each call, and a table lives exactly as long
as the forms over it.  An extension builds its output space and finds its
orbits before it allocates a table, so the sort overlaps no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .dispersion import (
    _integer, _reject, _root_floor, dispersion_float, index_problems, lattice_problems,
    smoothing_symbol_float,
)
from .field import SpectralField, nonlinearity, sobolev_energy, sobolev_weight
from .resonance import lambda_sums

#: Largest arity supported by the table representation.
MAX_ARITY = 6

#: Guard against accidentally huge tables ((2K)^(p-1) candidate rows).
MAX_TABLE_ROWS = 40_000_000

#: Arity of the largest tuple table ``build_chain`` makes (D5 and C5).
CHAIN_ARITY = 5

#: Rows handled at once by ``nonlinearity_extension`` and the diagonal
#: product, so that their temporaries stay small whatever the table size.
ROW_BLOCK = 8192

#: Magnitudes that every amplitude component must lie between for a product
#: over a tuple table to take its second half as the conjugate mirror of the
#: first: products of up to MAX_ARITY such numbers, rounded at every step,
#: neither underflow nor overflow.
MIRROR_RANGE = (2.0**-100, 2.0**100)


def max_table_harmonics(p: int) -> int:
    """The most harmonics K for which an arity-p tuple table, of (2K)^(p-1)
    candidate rows, stays within MAX_TABLE_ROWS."""
    return _root_floor(MAX_TABLE_ROWS, p - 1) // 2


class ResonanceError(ValueError):
    """Raised when a multiplier is nonzero on a tuple with zero frequency sum."""

    def __init__(self, resonant_tuple: tuple):
        self.resonant_tuple = tuple(int(n) for n in resonant_tuple)
        super().__init__(
            f"multiplier does not vanish on the resonant tuple {self.resonant_tuple}"
        )


class Orbits(NamedTuple):
    """Permutation orbits of a TupleSpace, one entry per sorted tuple.

    ``inverse`` maps each row to its orbit, in the smallest unsigned dtype
    that holds the last orbit number, and ``counts`` gives orbit sizes;
    ``frequency_sum`` is exact, from ``sqglab.resonance``, rounded once to
    double.
    """

    inverse: np.ndarray
    counts: np.ndarray
    frequency_sum: np.ndarray


class TupleSpace:
    """All ordered admissible zero-sum p-tuples for a fixed lattice.

    Modes are the nonzero multiples of m with |n| <= n_max, listed
    ascending; ``idx`` holds mode indices per tuple slot (column-major, one
    contiguous column per slot) in the smallest unsigned dtype that holds
    size - 1, and its rows raveled in base ``size`` (``ravel_keys``) ascend
    strictly with the row number.  ``rows`` widens a block of it to intp.
    The actual modes, ``mode_values``, are ``modes[idx]``, built when asked
    for and not stored.  Negating the modes maps index i to size - 1 - i,
    so row ``count - 1 - r`` holds the negation of row r.  Instances are
    immutable and not cached; the orbit table (and with it the per-orbit
    frequency sums) and the prefix ids are built lazily.
    """

    def __init__(self, m: int, n_max: int, p: int):
        _reject(lattice_problems(m, n_max))
        if not (_integer(p) and 3 <= p <= MAX_ARITY):
            raise ValueError(f"arity {p!r} outside supported range 3..{MAX_ARITY}")
        self.m = m
        self.n_max = n_max
        self.p = p
        self.num_harmonics = n_max // m
        k = self.num_harmonics
        self.modes = np.concatenate(
            [-m * np.arange(k, 0, -1), m * np.arange(1, k + 1)]
        ).astype(np.int64)
        size = 2 * k
        if k > max_table_harmonics(p):
            raise ValueError(
                f"tuple table for m={m}, n_max={n_max}, p={p} would need "
                f"{size ** (p - 1)} candidate rows; reduce n_max or arity"
            )
        # Candidate rows are built one first-slot block at a time: the middle
        # p-2 slots run over every index combination in raveled order and the
        # last slot follows from the zero sum, so the rows ascend block by
        # block and no more than size^(p-2) candidates are held at once.  A
        # block keeps the middle sums s for which -n_first - s is a mode, so
        # its row count is the histogram of s convolved with the lattice and
        # read at -n_first, and every block goes straight into one table.
        index_type = np.min_scalar_type(size - 1)
        middle = np.indices((size,) * (p - 2), dtype=index_type).reshape(p - 2, -1)
        middle_sum = self.modes[middle].sum(axis=0)
        harmonic = self.modes // m
        on_lattice = np.zeros(2 * k + 1, dtype=np.int64)
        on_lattice[harmonic + k] = 1
        sums = np.bincount(middle_sum // m + (p - 2) * k, minlength=2 * (p - 2) * k + 1)
        ends = np.cumsum(np.convolve(sums, on_lattice)[(p - 1) * k - harmonic])
        # column-major, so that each slot column idx[:, j] is contiguous
        self.idx = np.empty((int(ends[-1]), p), dtype=index_type, order="F")
        start = 0
        for first, end in enumerate(ends):
            last = self.index_of_mode(-self.modes[first] - middle_sum)
            keep = last >= 0
            rows = self.idx[start:end]
            rows[:, 0] = first
            rows[:, 1:-1] = middle[:, keep].T
            rows[:, -1] = last[keep]
            start = end
        self.count = self.idx.shape[0]

    # -- lattice helpers ---------------------------------------------------

    @property
    def spec(self) -> tuple:
        """(m, n_max, p), which determine the table: spaces with equal
        specs hold equal tables."""
        return (self.m, self.n_max, self.p)

    def index_of_mode(self, values) -> np.ndarray:
        """Mode -> index in ``self.modes``; -1 where off the lattice."""
        values = np.asarray(values, dtype=np.int64)
        k = values // self.m
        exact = values == k * self.m
        inside = exact & (k != 0) & (np.abs(k) <= self.num_harmonics)
        idx = np.where(k > 0, self.num_harmonics + k - 1, k + self.num_harmonics)
        return np.where(inside, idx, -1)

    def ravel_keys(self, idx: np.ndarray) -> np.ndarray:
        """The rows of an index table, however many columns, raveled in
        base ``size`` with the first column most significant."""
        size = self.modes.shape[0]
        keys = idx[:, 0].astype(np.int64)
        for j in range(1, idx.shape[1]):
            keys *= size
            keys += idx[:, j]
        return keys

    def rows(self, block: slice) -> np.ndarray:
        """``idx[block]`` widened to intp, the form in which the extension
        multiplies a block of the index table: a product of narrow indices
        would wrap.  A gather takes the narrow columns as they are."""
        return self.idx[block].astype(np.intp)

    # -- derived per-tuple data ---------------------------------------------

    @property
    def mode_values(self) -> np.ndarray:
        """The (count, p) table of modes, column-major like ``idx``."""
        return self.modes[self.idx]

    @cached_property
    def orbits(self) -> Orbits:
        """The permutation orbits of the tuples, with their exact facts."""
        _, first, inverse, counts = np.unique(
            self.ravel_keys(np.sort(self.idx, axis=1)),
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        inverse = inverse.astype(np.min_scalar_type(counts.shape[0] - 1))
        reps = self.modes[self.idx[first]]
        sums = [float(value) for value in lambda_sums(reps)]
        return Orbits(inverse, counts, np.array(sums))

    @cached_property
    def prefix(self) -> np.ndarray:
        """Per-row id of the first p-2 slots, raveled in base ``size``.

        The rows ascend in the same raveling, so the ids ascend too, and
        they index a table over all size^(p-2) prefixes; they are stored in
        the smallest unsigned dtype that holds the last of those.
        """
        top = self.modes.shape[0] ** (self.p - 2) - 1
        return self.ravel_keys(self.idx[:, :-2]).astype(np.min_scalar_type(top))

    @property
    def resonant(self) -> np.ndarray:
        """Mask of the resonant tuples, those with zero frequency sum.

        The orbit sums are exact rationals rounded once, and the common
        denominator of p <= 6 terms (n^2 - 1)/(n^2 - 4) with int64 modes is
        below 2^756, so a nonzero exact sum cannot round to 0: comparing
        with 0 finds exactly the resonant tuples.
        """
        return (self.orbits.frequency_sum == 0)[self.orbits.inverse]


def tuple_space(m: int, n_max: int, p: int) -> TupleSpace:
    """A new TupleSpace; nothing caches it, so it lives as long as its
    holders."""
    return TupleSpace(m, n_max, p)


class _Fresh(NamedTuple):
    """A value table that nothing else holds, such as a fresh arithmetic
    result: a MultilinearForm takes it over instead of copying it."""

    table: np.ndarray


@dataclass(frozen=True)
class MultilinearForm:
    """A p-linear form given by its value table over a TupleSpace.

    ``symmetric`` records that the table is invariant under slot
    permutations (all constructors in this module produce symmetric tables);
    every other property of the multiplier is read from ``values``.
    The form keeps a read-only copy of ``values``; the operators below hand
    over the tables they compute, wrapped in ``_Fresh``, uncopied.
    """

    space: TupleSpace
    values: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        if isinstance(self.values, _Fresh):
            values = np.asarray(self.values.table, dtype=np.complex128)
        else:
            values = np.array(self.values, dtype=np.complex128)
        if values.shape != (self.space.count,):
            raise ValueError(
                f"value table shape {values.shape} does not match "
                f"{self.space.count} tuples"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def p(self) -> int:
        return self.space.p

    @cached_property
    def conjugate_symmetric(self) -> bool:
        """Whether m(-n) = conj m(n) on every row, compared by value.

        Decided at the first evaluation that asks, not at construction, so
        that building a chain takes no conjugate copy of its tables.
        """
        half = self.space.count // 2
        head, mirror = self.values[:half], self.values[half:][::-1]
        return bool(
            np.array_equal(head.real, mirror.real)
            and np.array_equal(head.imag, -mirror.imag)
        )

    def scaled(self, factor: complex) -> "MultilinearForm":
        return MultilinearForm(self.space, _Fresh(self.values * factor), self.symmetric)

    def plus(self, other: "MultilinearForm") -> "MultilinearForm":
        if other.space.spec != self.space.spec:
            raise ValueError("cannot add forms over different tuple spaces")
        return MultilinearForm(
            self.space,
            _Fresh(self.values + other.values),
            self.symmetric and other.symmetric,
        )


def symmetrize(form: MultilinearForm) -> MultilinearForm:
    """Average the value table over the permutation orbit of each tuple."""
    if form.symmetric:
        return form
    orbits = form.space.orbits
    sums = np.zeros(orbits.counts.shape[0], dtype=np.complex128)
    np.add.at(sums, orbits.inverse, form.values)
    means = sums / orbits.counts
    return MultilinearForm(form.space, _Fresh(means[orbits.inverse]), symmetric=True)


def _mode_amplitudes(f: SpectralField, space: TupleSpace) -> np.ndarray:
    if f.m != space.m or f.n_max != space.n_max:
        raise ValueError(
            f"field lattice (m={f.m}, n_max={f.n_max}) does not match form "
            f"lattice (m={space.m}, n_max={space.n_max})"
        )
    k = space.num_harmonics
    out = np.empty(2 * k, dtype=np.complex128)
    out[k:] = f.coeffs
    out[:k] = np.conj(f.coeffs[::-1])
    return out


def _direct_rows(space: TupleSpace, amplitudes, form: MultilinearForm | None = None) -> int:
    """How many leading rows a product over the table computes directly.

    Row ``count - 1 - r`` negates the modes of row r and amp(-n) is
    conj amp(n), bit for bit, so its product is the conjugate of row r's
    (see ``evaluate_diagonal``) when every amplitude component lies in
    MIRROR_RANGE and, if a form's values lead the product, the form is
    conjugate-symmetric.  Then half the rows suffice; otherwise all of them.
    """
    parts = np.abs(np.concatenate(amplitudes).view(np.float64))
    low, high = MIRROR_RANGE
    # a NaN part makes the minimum NaN, which fails the comparison
    if low <= parts.min() and parts.max() <= high and (
        form is None or form.conjugate_symmetric
    ):
        return space.count // 2
    return space.count


def _mirror(product: np.ndarray, rows: int) -> None:
    """Fill ``product[rows:]`` with the conjugates of ``product[:rows]``,
    reversed, when ``rows`` is half the table (see ``_direct_rows``).

    0 - x negates a nonzero x exactly and gives +0 for a zero, as the direct
    product does where its imaginary part cancels.
    """
    if rows < product.shape[0]:
        product.real[rows:] = product.real[:rows][::-1]
        np.subtract(0.0, product.imag[:rows][::-1], out=product.imag[rows:])


def evaluate(form: MultilinearForm, fields: Sequence[SpectralField]) -> complex:
    """Direct truncated sum of the form over its active tuples.

    Each row's term is its value times the amplitudes, multiplied in slot
    order, and one sum adds the terms of the whole table.  For a
    conjugate-symmetric form only the first half of the terms is multiplied
    out and the rest is its mirror (``_direct_rows``).  A mirrored term
    equals the direct one in value; the values may hold exact zeros, so a
    zero term may carry the other sign, but that changes no sum: a sum with
    a nonzero term ends nonzero or at the +0 of a cancellation, and NumPy's
    complex sum of zeros is +0.  Overflow gives infinities of mirrored
    signs and an invalid operation the one default NaN, so the sum keeps
    the bits of the whole-table product.
    """
    if len(fields) != form.p:
        raise ValueError(f"expected {form.p} fields, got {len(fields)}")
    space = form.space
    amplitudes = [_mode_amplitudes(f, space) for f in fields]
    rows = _direct_rows(space, amplitudes, form)
    prod = np.empty(space.count, dtype=np.complex128)
    # a buffer of half the table: one pass on the half table, two on the whole
    gathered = np.empty(max(1, (space.count + 1) // 2), dtype=np.complex128)
    for start in range(0, rows, gathered.shape[0]):
        block = slice(start, min(start + gathered.shape[0], rows))
        head = prod[block]
        head[:] = form.values[block]
        for amp, column in zip(amplitudes, space.idx.T):
            head *= amp.take(column[block], out=gathered[: head.shape[0]], mode="clip")
    _mirror(prod, rows)
    return complex(prod.sum())


def _times(ar, ai, br, bi):
    """(ar + i ai) (br + i bi) as separate float64 operations, without FMA."""
    return ar * br - ai * bi, ar * bi + ai * br


def evaluate_diagonal(form: MultilinearForm, f: SpectralField) -> complex:
    """The form on p copies of the same field.

    Each row's product a(n_1) ... a(n_p) is bit for bit what the reduction
    ``prod(axis=1)`` gives on a row-major (rows, p) gather of the amplitudes:
    it starts from the identity 1 + 0i and multiplies in slot order,
    rounding every real operation on its own.  The first p-2 factors are
    shared by all rows with the same prefix, so they come from a table over
    the size^(p-2) prefixes (at most MAX_TABLE_ROWS / size entries), built
    one slot at a time by broadcasting, and each row makes only the last two
    multiplies.  Every multiply is spelled out in float64 arrays: NumPy's
    contiguous complex ``*`` may fuse a product and a sum into one FMA,
    which rounds differently.  The table starts from the identity times the
    amplitudes, as the reduction does; without that step an exact-zero
    amplitude, whose conjugate has imaginary part -0.0, would keep it where
    the reduction gives +0.0.

    Only the first half of the rows is multiplied out: row count-1-r holds
    the negated modes of row r, whose amplitudes are the conjugates, and
    its product is the conjugate of row r's.  That holds bit for bit when
    every amplitude component lies in MIRROR_RANGE (finite, nonzero, within
    2^-100..2^100): each real product is then a nonzero normal number, an
    IEEE multiply or round-to-nearest add of negated operands gives the
    negated result, and an exact zero arises only from a cancellation,
    which gives +0 in both rows, so the mirror writes +0 there too.  A
    field outside that range takes the product of every row.  The values
    still multiply the whole product, and one sum adds it all up, so the
    summation order and every output bit stay those of the whole-table
    product.  At n_max 24 (35,700 quintic rows, 2-vCPU host, best of five
    processes) a C5 call takes 0.37 ms against 0.56 ms for the whole table,
    and a C5 ``evaluate`` with N(f) inserted 0.18 ms against 0.30 ms.
    """
    amp = _mode_amplitudes(f, form.space)
    prod = _diagonal_product(form.space, amp)
    # in place: rows pair with their negations, so no table has the one row
    # on which NumPy's in-place complex multiply skips FMA
    np.multiply(form.values, prod, out=prod)
    return complex(prod.sum())


def _diagonal_product(space: TupleSpace, amp: np.ndarray) -> np.ndarray:
    """Per-row amp[n_1] ... amp[n_p] from the prefix table (see above).

    The last two multiplies run ROW_BLOCK rows at a time, gathered through
    the narrow prefix ids and index columns into one set of block buffers,
    and the last one is written straight into the product.  Each row's
    operations are those of ``_times``, in the same order, so are its bits;
    but no arithmetic allocates, and the buffers stay in cache.
    """
    ar, ai = amp.real.copy(), amp.imag.copy()
    tr, ti = _times(1.0, 0.0, ar, ai)
    for _ in range(space.p - 3):
        tr, ti = _times(tr[:, None], ti[:, None], ar, ai)
        tr, ti = tr.ravel(), ti.ravel()
    product = np.empty(space.count, dtype=np.complex128)
    direct = _direct_rows(space, [amp])
    buffers = np.empty((5, min(ROW_BLOCK, direct)))
    for start in range(0, direct, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, direct))
        re, im, br, bi, t = buffers[:, : rows.stop - start]
        tr.take(space.prefix[rows], out=re, mode="clip")
        ti.take(space.prefix[rows], out=im, mode="clip")
        for j in (-2, -1):
            column = space.idx[rows, j]
            ar.take(column, out=br, mode="clip")
            ai.take(column, out=bi, mode="clip")
            last = j == -1
            # (re + i im)(br + i bi) = (re br - im bi) + i (re bi + im br),
            # as ``_times`` rounds it; each buffer is overwritten once read,
            # and the result lands in (t, im), at the last column in product
            np.multiply(re, br, out=t)
            np.multiply(im, br, out=br)
            np.multiply(im, bi, out=im)
            np.subtract(t, im, out=product.real[rows] if last else t)
            np.multiply(re, bi, out=bi)
            np.add(bi, br, out=product.imag[rows] if last else im)
            re, t = t, re
    _mirror(product, direct)
    return product


def parity_defect(form: MultilinearForm, parity: str) -> float:
    """Worst violation of ``parity`` ("even" or "odd" under negating every
    mode) over every row of the table.

    Row count-1-r is the negation of row r, so the negated table is the
    value table reversed.
    """
    sign = {"even": 1.0, "odd": -1.0}[parity]
    return float(np.max(np.abs(form.values[::-1] - sign * form.values)))


def normal_form_divide(form: MultilinearForm) -> MultilinearForm:
    """Divide the multiplier by the per-tuple frequency sum.

    The divided form, scaled by i, integrates the original form along the
    linear flow; the frequency sum is odd under negating every mode, so the
    quotient has the opposite parity.  The resonant tuples
    (``TupleSpace.resonant``) must carry value zero (subtract
    ``resonant_projection`` first), otherwise a ResonanceError names the
    offending tuple.
    """
    space = form.space
    orbits = space.orbits
    resonant = space.resonant
    bad = resonant & (form.values != 0)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ResonanceError(tuple(space.modes[space.idx[row]]))
    denom = np.where(resonant, 1.0, orbits.frequency_sum[orbits.inverse])
    return MultilinearForm(space, _Fresh(form.values / denom), form.symmetric)


def resonant_projection(form: MultilinearForm) -> MultilinearForm:
    """Restrict the multiplier to the resonant tuples (a projection, the P
    of a normal form).  Arities 3 and 5 have no resonances, so there it is
    the zero form; at arity 4 the resonant tuples are exactly the totally
    degenerate ones (``sqglab.resonance``)."""
    return MultilinearForm(
        form.space,
        _Fresh(np.where(form.space.resonant, form.values, 0.0)),
        form.symmetric,
    )


def nonlinearity_extension(form: MultilinearForm) -> MultilinearForm:
    """Arity p -> p+1 insertion of the full quadratic term 2 (Kf) f' - f (Kf)'.

    The output multiplier at a (p+1)-tuple sums, over ordered slot pairs
    (k, l), the input multiplier at the tuple with slots k, l merged into
    mode n_k + n_l, times i (2 n_k sigma(n_l) - lambda(n_l)); merged modes
    off the lattice (zero or beyond n_max) contribute nothing, matching the
    truncated product.  Normalized by 1/(p+1), so that on equal arguments
    the result is p C(N(f), f, ..., f).  The advection and stretching halves
    are accumulated apart and combined last.  The inserted factor is odd
    under negating every mode, so the result has the opposite parity.

    The output is built ROW_BLOCK rows at a time, so the temporaries
    stay bounded whatever the table size.  Every row takes the same complex
    operations in the same slot-pair order as a whole-table pass would, and
    the per-pair factors i n_k sigma(n_l) and i lambda(n_l) are those
    expressions evaluated once per pair of modes, so the table is bit for
    bit the same.  The output space (``TupleSpace`` rejects an arity past
    MAX_ARITY) is built here, and its orbits are found before any table.
    """
    out_space = tuple_space(form.space.m, form.space.n_max, form.p + 1)
    out_space.orbits
    src = symmetrize(form)
    space = src.space
    modes = space.modes
    size = modes.shape[0]
    q = out_space.p
    # Source values by their first p-1 slot indices, raveled (the last
    # follows from the zero sum); first index ``size`` marks a merged mode
    # off the lattice and reads zero.
    table = np.zeros((size + 1) * size ** (space.p - 2), dtype=np.complex128)
    table[space.ravel_keys(space.idx[:, :-1])] = src.values
    merge = space.index_of_mode(modes[:, None] + modes).ravel()
    merge[merge < 0] = size
    nk = modes[:, None].astype(np.float64)
    advect_factor = (1j * nk * smoothing_symbol_float(modes)).ravel()
    stretch_factor = 1j * dispersion_float(modes)
    # ordered slot pairs (k, l) and the other slots that lead the lookup
    pairs = [
        (k, l, [j for j in range(q) if j != k and j != l][:-1])
        for k in range(q)
        for l in range(q)
        if l != k
    ]
    values = np.empty(out_space.count, dtype=np.complex128)
    for start in range(0, out_space.count, ROW_BLOCK):
        idx = out_space.rows(slice(start, start + ROW_BLOCK))
        advection = np.zeros(idx.shape[0], dtype=np.complex128)
        stretching = np.zeros(idx.shape[0], dtype=np.complex128)
        for k, l, lead in pairs:
            pair = idx[:, k] * size + idx[:, l]
            flat = merge[pair]
            for j in lead:
                flat *= size
                flat += idx[:, j]
            vals = table[flat]
            advection += vals * advect_factor[pair]
            stretching += vals * stretch_factor[idx[:, l]]
        values[start:start + ROW_BLOCK] = (advection / q) * 2.0 - stretching / q
    return MultilinearForm(out_space, _Fresh(values), symmetric=True)


def build_energy_form(m: int, n_max: int, s: float) -> MultilinearForm:
    """The cubic form equal to d/dt of the H^s energy along the flow.

    Pairing the quadratic term against the field in H^s gives the symmetrized
    multiplier of i <n_3>^{2s} (2 n_1 sigma(n_2) - n_2 sigma(n_2)) on
    zero-sum triples; it is odd, so the energy derivative is real.  Raises
    ValueError naming each of m, n_max and s that breaks its rule
    (``lattice_problems``, ``index_problems``) before any table is built.
    """
    lattice = lattice_problems(m, n_max)
    _reject(lattice + index_problems(s, None if lattice else n_max))
    space = tuple_space(m, n_max, 3)
    mv = space.mode_values.astype(np.float64)
    sig = smoothing_symbol_float(space.mode_values)
    total = np.zeros(space.count, dtype=np.float64)
    for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        weight = sobolev_weight(mv[:, c], s)
        total += weight * (2.0 * mv[:, a] * sig[:, b] - mv[:, b] * sig[:, b])
    return MultilinearForm(space, _Fresh((1j / 6.0) * total), symmetric=True)


@dataclass(frozen=True)
class CorrectedEnergy:
    """The H^s energy with its normal-form corrections and exact derivatives.

    ``corrections`` holds the three subtracted forms (cubic, quartic,
    quintic); ``energy_derivative`` the cubic form D3 equal to d/dt of the
    bare energy.  The derivatives of the corrected energies (quartic,
    quintic, sextic) are not stored: along the truncated flow they equal
    -p C(N(f), f, ..., f) for the last subtracted p-linear correction C, and
    are evaluated that way.  All evaluations are real on admissible fields
    up to round-off.
    """

    s: float
    corrections: tuple
    energy_derivative: MultilinearForm

    def base(self, f: SpectralField) -> float:
        return sobolev_energy(f, self.s)

    def levels(self, f: SpectralField) -> np.ndarray:
        """[E, E - C3, E - C3 - C4, E - C3 - C4 - C5] at the state f."""
        out = np.empty(4)
        value = self.base(f)
        out[0] = value
        for i, form in enumerate(self.corrections):
            value -= evaluate_diagonal(form, f).real
            out[i + 1] = value
        return out

    def _derivatives(self, f: SpectralField, levels=(0, 1, 2, 3), inserted=None) -> list:
        """Complex d/dt of the numbered levels (0 = bare energy) at f;
        ``inserted`` is nonlinearity(f) when the caller has it."""
        if inserted is None:
            inserted = nonlinearity(f)
        values = []
        for level in levels:
            if level == 0:
                values.append(evaluate_diagonal(self.energy_derivative, f))
            else:
                form = self.corrections[level - 1]
                values.append(
                    -form.p * evaluate(form, [inserted] + [f] * (form.p - 1))
                )
        return values

    def derivative_values(self, f: SpectralField) -> np.ndarray:
        """d/dt of each level at state f: [cubic, quartic, quintic, sextic]."""
        return np.array([value.real for value in self._derivatives(f)])

    def imaginary_defect(self, f: SpectralField) -> float:
        """Largest imaginary part among all evaluations (reality check)."""
        values = [evaluate_diagonal(form, f) for form in self.corrections]
        values += self._derivatives(f)
        return float(max(abs(v.imag) for v in values))


def build_chain(m: int, n_max: int, s: float) -> CorrectedEnergy:
    """Construct the corrected energy by three normal-form rounds.

    Starting from the cubic energy derivative D3:

        C3 = i * divide(D3)            D4 = -insert-quadratic(C3)
        C4 = i * divide(D4 - P(D4))    D5 = -insert-quadratic(C4)
        C5 = i * divide(D5)

    and d/dt (E - C3 - ... - Ck) = D_{k+1} on the diagonal, exactly for the
    truncated dynamics, where D_{k+1}(f) = -p Ck(N(f), f, ..., f) with p the
    arity of Ck.  The resonant projection P keeps the only zero
    denominators, the rows of zero frequency sum; the chain projects only at
    arity 4, where they are the totally degenerate tuples.  P(D4) vanishes
    on the diagonal because D4 is odd, so subtracting it changes no recorded
    energy.  D4 and D5 are built only as inputs of C4 and C5; the sextic D6
    is evaluated by insertion alone.
    Each extension finds its output orbits before it allocates a table, so
    the quintic sort never overlaps D5, the largest table.
    """
    d3 = build_energy_form(m, n_max, s)
    c3 = normal_form_divide(d3).scaled(1j)
    d4 = nonlinearity_extension(c3).scaled(-1.0)
    c4 = normal_form_divide(d4.plus(resonant_projection(d4).scaled(-1.0))).scaled(1j)
    c5 = normal_form_divide(nonlinearity_extension(c4).scaled(-1.0)).scaled(1j)
    return CorrectedEnergy(s=float(s), corrections=(c3, c4, c5), energy_derivative=d3)

