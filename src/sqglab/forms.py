"""Multilinear multiplier forms and the iterated normal-form energy chain.

A p-linear form acts on truncated admissible fields through a multiplier on
zero-sum mode tuples:

    M(u_1, ..., u_p) = sum_{n_1+...+n_p=0} m(n_1,...,n_p)
                       uhat_1(n_1) ... uhat_p(n_p),

every n_j on the m-fold lattice with 3 <= |n_j| <= n_max.  Forms are stored
as dense value tables over the ordered admissible tuples, symmetrized over
slot permutations so that parity and evaluation are canonical.  Each tuple
space groups its tuples into permutation orbits once; symmetrization averages
over them, and the exact frequency sum and total degeneracy that decide
resonance come from ``sqglab.resonance``, once per orbit.

The operators implemented here drive the corrected-energy construction:

  normal_form_divide   divide the multiplier by the frequency sum (flips
                       parity; rejects nonzero values on resonant tuples);
  degenerate_projection  restrict to totally degenerate tuples (even arity);
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

The chain is built in bounded memory: a tuple space stores its index table
and keys (the mode table is derived when asked for), and an extension is
accumulated one block of output rows at a time, with every row rounded as a
whole-table pass would round it.  ``hashlib``, which maps OpenSSL, is
imported only by the functions that take a digest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dispersion import dispersion_float, smoothing_symbol_float
from .field import SpectralField, nonlinearity, sobolev_energy
from .resonance import is_totally_degenerate, lambda_sums

#: Largest arity supported by the table representation.
MAX_ARITY = 6

#: Guard against accidentally huge tables ((2K)^(p-1) candidate rows).
MAX_TABLE_ROWS = 40_000_000

#: Rows handled at once by ``nonlinearity_extension`` and the diagonal
#: product, so that their temporaries stay small whatever the table size.
ROW_BLOCK = 8192


class ResonanceError(ValueError):
    """Raised when a multiplier is nonzero on a tuple with zero frequency sum."""

    def __init__(self, resonant_tuple: tuple):
        self.resonant_tuple = tuple(int(n) for n in resonant_tuple)
        super().__init__(
            f"multiplier does not vanish on the resonant tuple {self.resonant_tuple}"
        )


class Orbits(NamedTuple):
    """Permutation orbits of a TupleSpace, one entry per sorted tuple.

    ``inverse`` maps each row to its orbit and ``counts`` gives orbit sizes;
    ``frequency_sum`` and ``degenerate`` are decided once per orbit by
    ``sqglab.resonance`` in exact arithmetic (the sum rounded once to double).
    """

    inverse: np.ndarray
    counts: np.ndarray
    frequency_sum: np.ndarray
    degenerate: np.ndarray


class TupleSpace:
    """All ordered admissible zero-sum p-tuples for a fixed lattice.

    Modes are the nonzero multiples of m with |n| <= n_max, listed
    ascending; ``idx`` holds mode indices per tuple slot (column-major, one
    contiguous column per slot) and ``keys`` the raveled index tuples, which
    ascend strictly with the row number.  The actual modes, ``mode_values``,
    are ``modes[idx]``, built when asked for and not stored.  Instances are
    immutable and cached per (m, n_max, p); the orbit table (and with it the
    per-tuple frequency sums and degeneracy) and the prefix ids are built
    lazily.
    """

    def __init__(self, m: int, n_max: int, p: int):
        if p < 3 or p > MAX_ARITY:
            raise ValueError(f"arity {p} outside supported range 3..{MAX_ARITY}")
        self.m = m
        self.n_max = n_max
        self.p = p
        self.num_harmonics = n_max // m
        k = self.num_harmonics
        self.modes = np.concatenate(
            [-m * np.arange(k, 0, -1), m * np.arange(1, k + 1)]
        ).astype(np.int64)
        size = 2 * k
        if size ** (p - 1) > MAX_TABLE_ROWS:
            raise ValueError(
                f"tuple table for m={m}, n_max={n_max}, p={p} would need "
                f"{size ** (p - 1)} candidate rows; reduce n_max or arity"
            )
        # Candidate rows are built one first-slot block at a time: the middle
        # p-2 slots run over every index combination in raveled order and the
        # last slot follows from the zero sum, so the keys ascend block by
        # block and no more than size^(p-2) candidates are held at once.  A
        # block keeps the middle sums s for which -n_first - s is a mode, so
        # its row count is the histogram of s convolved with the lattice and
        # read at -n_first, and every block goes straight into one table.
        middle = np.indices((size,) * (p - 2)).reshape(p - 2, -1)
        middle_sum = self.modes[middle].sum(axis=0)
        harmonic = self.modes // m
        on_lattice = np.zeros(2 * k + 1, dtype=np.int64)
        on_lattice[harmonic + k] = 1
        sums = np.bincount(middle_sum // m + (p - 2) * k, minlength=2 * (p - 2) * k + 1)
        ends = np.cumsum(np.convolve(sums, on_lattice)[(p - 1) * k - harmonic])
        # column-major, so that each slot column idx[:, j] is contiguous
        self.idx = np.empty((int(ends[-1]), p), dtype=np.int64, order="F")
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
        self.keys = self.ravel_keys(self.idx)
        self._orbits = None
        self._prefix = None

    # -- lattice helpers ---------------------------------------------------

    def index_of_mode(self, values) -> np.ndarray:
        """Mode -> index in ``self.modes``; -1 where off the lattice."""
        values = np.asarray(values, dtype=np.int64)
        k = values // self.m
        exact = values == k * self.m
        inside = exact & (k != 0) & (np.abs(k) <= self.num_harmonics)
        idx = np.where(k > 0, self.num_harmonics + k - 1, k + self.num_harmonics)
        return np.where(inside, idx, -1)

    def ravel_keys(self, idx: np.ndarray) -> np.ndarray:
        size = self.modes.shape[0]
        keys = idx[:, 0].astype(np.int64)
        for j in range(1, self.p):
            keys *= size
            keys += idx[:, j]
        return keys

    def rows_of(self, idx: np.ndarray) -> np.ndarray:
        """Row numbers of given tuples (index representation)."""
        wanted = self.ravel_keys(idx)
        pos = np.searchsorted(self.keys, wanted)
        if np.any(pos >= self.count) or np.any(
            self.keys[pos.clip(max=self.count - 1)] != wanted
        ):
            raise KeyError("tuple not present in this space")
        return pos

    # -- derived per-tuple data ---------------------------------------------

    @property
    def mode_values(self) -> np.ndarray:
        """The (count, p) table of modes, column-major like ``idx``."""
        return self.modes[self.idx]

    @property
    def orbits(self) -> Orbits:
        """The permutation orbits of the tuples, with their exact facts."""
        if self._orbits is None:
            # indices are below size, so a one- or two-byte copy sorts alike
            index_type = np.min_scalar_type(self.modes.shape[0] - 1)
            _, first, inverse, counts = np.unique(
                self.ravel_keys(np.sort(self.idx.astype(index_type), axis=1)),
                return_index=True,
                return_inverse=True,
                return_counts=True,
            )
            reps = self.modes[self.idx[first]]
            self._orbits = Orbits(
                inverse,
                counts,
                np.array([float(value) for value in lambda_sums(reps)]),
                np.array([is_totally_degenerate(row) for row in reps], dtype=bool),
            )
        return self._orbits

    @property
    def prefix(self) -> np.ndarray:
        """Per-row id of the first p-2 slots, raveled in base ``size``.

        The keys are raveled in the same base and ascend, so the ids ascend
        too, and they index a table over all size^(p-2) prefixes.
        """
        if self._prefix is None:
            self._prefix = self.keys // self.modes.shape[0] ** 2
        return self._prefix

    @property
    def frequency_sum(self) -> np.ndarray:
        """Per-tuple frequency sum, exact rationals rounded once to double."""
        return self.orbits.frequency_sum[self.orbits.inverse]

    @property
    def resonant(self) -> np.ndarray:
        """Mask of tuples whose frequency sum is exactly zero.

        The common denominator of p <= 6 terms (n^2 - 1)/(n^2 - 4) with int64
        modes is below 2^756, so a nonzero exact sum cannot round to 0.
        """
        return self.frequency_sum == 0

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of totally degenerate tuples (all-false for odd arity)."""
        return self.orbits.degenerate[self.orbits.inverse]


_SPACE_CACHE: dict = {}


def tuple_space(m: int, n_max: int, p: int) -> TupleSpace:
    key = (m, n_max, p)
    space = _SPACE_CACHE.get(key)
    if space is None:
        space = _SPACE_CACHE[key] = TupleSpace(m, n_max, p)
    return space


_PARITY_FLIP = {"even": "odd", "odd": "even", "none": "none"}


class _Fresh(NamedTuple):
    """A value table that nothing else holds, such as a fresh arithmetic
    result: a MultilinearForm takes it over instead of copying it."""

    table: np.ndarray


@dataclass(frozen=True)
class MultilinearForm:
    """A p-linear form given by its value table over a TupleSpace.

    ``parity`` declares the behaviour of the multiplier under negating every
    mode; ``symmetric`` records that the table is invariant under slot
    permutations (all constructors in this module produce symmetric tables).
    The form keeps a read-only copy of ``values``; the operators below hand
    over the tables they compute, wrapped in ``_Fresh``, uncopied.
    """

    space: TupleSpace
    values: np.ndarray
    parity: str = "none"
    label: str = ""
    symmetric: bool = False

    def __post_init__(self):
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"parity must be even/odd/none, got {self.parity!r}")
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

    def scaled(self, factor: complex, label: str | None = None) -> "MultilinearForm":
        return MultilinearForm(
            self.space,
            _Fresh(self.values * factor),
            parity=self.parity,
            label=label if label is not None else self.label,
            symmetric=self.symmetric,
        )

    def plus(self, other: "MultilinearForm", label: str = "") -> "MultilinearForm":
        if other.space is not self.space:
            raise ValueError("cannot add forms over different tuple spaces")
        parity = self.parity if self.parity == other.parity else "none"
        return MultilinearForm(
            self.space,
            _Fresh(self.values + other.values),
            parity=parity,
            label=label or f"{self.label}+{other.label}",
            symmetric=self.symmetric and other.symmetric,
        )


def make_form(
    m: int,
    n_max: int,
    p: int,
    multiplier: Callable,
    parity: str = "none",
    label: str = "",
) -> MultilinearForm:
    """Build a form from a vectorized multiplier on mode tuples.

    ``multiplier`` receives the (count, p) array of mode values and returns
    the per-tuple complex values.  The table is symmetrized so the stored
    multiplier is canonical.
    """
    space = tuple_space(m, n_max, p)
    values = np.asarray(multiplier(space.mode_values), dtype=np.complex128)
    return symmetrize(MultilinearForm(space, values, parity=parity, label=label))


def symmetrize(form: MultilinearForm) -> MultilinearForm:
    """Average the value table over the permutation orbit of each tuple."""
    if form.symmetric:
        return form
    orbits = form.space.orbits
    sums = np.zeros(orbits.counts.shape[0], dtype=np.complex128)
    np.add.at(sums, orbits.inverse, form.values)
    means = sums / orbits.counts
    return MultilinearForm(
        form.space,
        _Fresh(means[orbits.inverse]),
        parity=form.parity,
        label=form.label,
        symmetric=True,
    )


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


def evaluate(form: MultilinearForm, fields: Sequence[SpectralField]) -> complex:
    """Direct truncated sum of the form over its active tuples."""
    if len(fields) != form.p:
        raise ValueError(f"expected {form.p} fields, got {len(fields)}")
    amplitudes = [_mode_amplitudes(f, form.space) for f in fields]
    prod = form.values.copy()
    for j, amp in enumerate(amplitudes):
        prod *= amp[form.space.idx[:, j]]
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
    """
    amp = _mode_amplitudes(f, form.space)
    prod = form.values * _diagonal_product(form.space, amp)
    return complex(prod.sum())


def _diagonal_product(space: TupleSpace, amp: np.ndarray) -> np.ndarray:
    """Per-row amp[n_1] ... amp[n_p] from the prefix table (see above).

    The last two multiplies run ROW_BLOCK rows at a time.  Each row's
    operations are the same, so are its bits; but the temporaries stay in
    cache, and small enough that the allocator does not hand them back to
    the system and fault them in again at every call.
    """
    ar, ai = amp.real.copy(), amp.imag.copy()
    tr, ti = _times(1.0, 0.0, ar, ai)
    for _ in range(space.p - 3):
        tr, ti = _times(tr[:, None], ti[:, None], ar, ai)
        tr, ti = tr.ravel(), ti.ravel()
    product = np.empty(space.count, dtype=np.complex128)
    for start in range(0, space.count, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        prefix = space.prefix[rows]
        re, im = tr[prefix], ti[prefix]
        for j in (space.p - 2, space.p - 1):
            column = space.idx[rows, j]
            re, im = _times(re, im, ar[column], ai[column])
        product.real[rows], product.imag[rows] = re, im
    return product


def parity_defect(form: MultilinearForm) -> float:
    """Worst violation of the declared parity over every row of the table."""
    if form.parity == "none":
        return 0.0
    space = form.space
    neg_rows = space.rows_of(space.modes.shape[0] - 1 - space.idx)
    sign = 1.0 if form.parity == "even" else -1.0
    return float(np.max(np.abs(form.values[neg_rows] - sign * form.values)))


def normal_form_divide(form: MultilinearForm) -> MultilinearForm:
    """Divide the multiplier by the per-tuple frequency sum.

    The divided form, scaled by i, integrates the original form along the
    linear flow; division by an odd quantity flips the declared parity.
    Tuples with exactly zero frequency sum must carry value zero (for even
    arity: project the degenerate set away first), otherwise a
    ResonanceError names the offending tuple.
    """
    space = form.space
    orbits = space.orbits
    resonant = orbits.frequency_sum == 0
    bad = resonant[orbits.inverse] & (form.values != 0)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ResonanceError(tuple(space.modes[space.idx[row]]))
    denom = np.where(resonant, 1.0, orbits.frequency_sum)[orbits.inverse]
    return MultilinearForm(
        space,
        _Fresh(form.values / denom),
        parity=_PARITY_FLIP[form.parity],
        label=f"divide({form.label})",
        symmetric=form.symmetric,
    )


def degenerate_projection(form: MultilinearForm) -> MultilinearForm:
    """Restrict the multiplier to totally degenerate tuples (a projection)."""
    if form.p % 2 != 0:
        raise ValueError("degenerate projection requires even arity")
    return MultilinearForm(
        form.space,
        _Fresh(np.where(form.space.degenerate, form.values, 0.0)),
        parity=form.parity,
        label=f"project({form.label})",
        symmetric=form.symmetric,
    )


def nonlinearity_extension(form: MultilinearForm) -> MultilinearForm:
    """Arity p -> p+1 insertion of the full quadratic term 2 (Kf) f' - f (Kf)'.

    The output multiplier at a (p+1)-tuple sums, over ordered slot pairs
    (k, l), the input multiplier at the tuple with slots k, l merged into
    mode n_k + n_l, times i (2 n_k sigma(n_l) - lambda(n_l)); merged modes
    off the lattice (zero or beyond n_max) contribute nothing, matching the
    truncated product.  Normalized by 1/(p+1), so that on equal arguments
    the result is p C(N(f), f, ..., f).  The advection and stretching halves
    are accumulated apart and combined last.  The inserted factor is odd, so
    the declared parity flips.

    The output is built ROW_BLOCK rows at a time, so the temporaries
    stay bounded whatever the table size.  Every row takes the same complex
    operations in the same slot-pair order as a whole-table pass would, and
    the per-pair factors i n_k sigma(n_l) and i lambda(n_l) are those
    expressions evaluated once per pair of modes, so the table is bit for
    bit the same.
    """
    if form.p + 1 > MAX_ARITY:
        raise ValueError(f"extension beyond arity {MAX_ARITY} is not supported")
    src = symmetrize(form)
    space = src.space
    out_space = tuple_space(space.m, space.n_max, space.p + 1)
    modes = space.modes
    size = modes.shape[0]
    q = out_space.p
    # Source values by their first p-1 slot indices (the last follows from
    # the zero sum); first index ``size`` marks a merged mode off the lattice
    # and reads zero.
    table = np.zeros((size + 1) * size ** (space.p - 2), dtype=np.complex128)
    table[space.keys // size] = src.values
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
        idx = out_space.idx[start:start + ROW_BLOCK]
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
    return MultilinearForm(
        out_space,
        _Fresh(values),
        parity=_PARITY_FLIP[form.parity],
        label=f"insert-quadratic({form.label})",
        symmetric=True,
    )


def build_energy_form(m: int, n_max: int, s: float) -> MultilinearForm:
    """The cubic form equal to d/dt of the H^s energy along the flow.

    Pairing the quadratic term against the field in H^s gives the symmetrized
    multiplier of i <n_3>^{2s} (2 n_1 sigma(n_2) - n_2 sigma(n_2)) on
    zero-sum triples; it is odd, so the energy derivative is real.
    """
    if s < 0:
        raise ValueError("Sobolev index s must be >= 0")
    space = tuple_space(m, n_max, 3)
    mv = space.mode_values.astype(np.float64)
    sig = smoothing_symbol_float(space.mode_values)
    total = np.zeros(space.count, dtype=np.float64)
    for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        weight = (1.0 + mv[:, c] ** 2) ** s
        total += weight * (2.0 * mv[:, a] * sig[:, b] - mv[:, b] * sig[:, b])
    return MultilinearForm(
        space,
        _Fresh((1j / 6.0) * total),
        parity="odd",
        label=f"energy-derivative(s={s:g})",
        symmetric=True,
    )


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

    m: int
    n_max: int
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
    arity of Ck.  The degenerate projection P removes the only zero
    denominators (arity 4); its diagonal value vanishes because D4 is odd,
    so subtracting it changes no recorded energy.  D4 and D5 are built only
    as inputs of C4 and C5; the sextic D6 is evaluated by insertion alone.
    """
    d3 = build_energy_form(m, n_max, s)
    c3 = normal_form_divide(d3).scaled(1j, label="cubic-correction")
    d4 = nonlinearity_extension(c3).scaled(-1.0, label="quartic-derivative")
    d4_free = d4.plus(
        degenerate_projection(d4).scaled(-1.0), label="quartic-derivative-nonresonant"
    )
    c4 = normal_form_divide(d4_free).scaled(1j, label="quartic-correction")
    # D5 is the largest table built; nothing holds it once it is divided, and
    # the quintic orbits that the division needs are found before it exists
    tuple_space(m, n_max, 5).orbits
    c5 = normal_form_divide(
        nonlinearity_extension(c4).scaled(-1.0, label="quintic-derivative")
    ).scaled(1j, label="quintic-correction")
    return CorrectedEnergy(
        m=m,
        n_max=n_max,
        s=float(s),
        corrections=(c3, c4, c5),
        energy_derivative=d3,
    )


# -- binary export -----------------------------------------------------------

_FORM_MAGIC = "sqglab-form-v1"


def save_form(form: MultilinearForm, path) -> None:
    """Binary table with a JSON header line; reloadable bit-exactly."""
    import hashlib  # loads OpenSSL, so only when a digest is taken

    space = form.space
    header = {
        "format": _FORM_MAGIC,
        "arity": space.p,
        "m": space.m,
        "n_max": space.n_max,
        "parity": form.parity,
        "label": form.label,
        "symmetric": form.symmetric,
        "count": space.count,
        "tuple_sha256": hashlib.sha256(np.ascontiguousarray(space.idx).tobytes()).hexdigest(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        handle.write(np.ascontiguousarray(form.values).tobytes())
    os.replace(tmp, path)


def load_form(path) -> MultilinearForm:
    import hashlib

    with open(path, "rb") as handle:
        header = json.loads(handle.readline().decode())
        blob = handle.read()
    if header.get("format") != _FORM_MAGIC:
        raise ValueError(f"{path} is not a form table")
    if len(blob) != 16 * header["count"]:
        raise ValueError(
            f"{path}: table holds {len(blob)} bytes, expected "
            f"{16 * header['count']} for {header['count']} values"
        )
    space = tuple_space(header["m"], header["n_max"], header["arity"])
    digest = hashlib.sha256(np.ascontiguousarray(space.idx).tobytes()).hexdigest()
    if digest != header["tuple_sha256"] or space.count != header["count"]:
        raise ValueError(f"{path}: tuple ordering does not match this build")
    return MultilinearForm(
        space,
        # a read-only view of bytes that nothing else holds
        _Fresh(np.frombuffer(blob, dtype=np.complex128)),
        parity=header["parity"],
        label=header["label"],
        symmetric=header["symmetric"],
    )
