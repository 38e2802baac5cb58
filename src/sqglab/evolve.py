"""Time integration of the truncated model with corrected-energy diagnostics.

The truncated evolution is

    d/dt fhat(n) = -i lam(n) fhat(n) + Nhat(f)(n),        |n| <= n_max,

with the quadratic term evaluated alias-free.  The integrator applies the
exact linear phase and steps only the rotated nonlinearity with classical
RK4 (an integrating-factor scheme): the linear flow is reproduced to
round-off, which keeps the normal-form diagnostics clean, and the frequency
is bounded (|lam| <= 8/5) so there is no stiffness to fight.

``run`` records, along the trajectory, the Sobolev energy, the three
corrected energies, the norm, and the conservation residuals;
``lifespan_experiment`` sweeps the initial amplitude and fits the growth
exponents of the corrected-energy derivatives (expected 3, 4 and 6).

Both go through one recording loop that integrates a batch of runs in
lockstep: the runs of a sweep differ only in amplitude, so their states form
one (B, K) array stepped with a shared dt, and each RK4 step costs four
batched quadratic-term calls whatever B is.  ``run`` is the batch of one.
Every row is computed bit for bit as it would be alone, so a sweep records
exactly what running its amplitudes one after another would.  The initial
state is step 0 of the loop and is recorded like every later record.  A run
leaves the batch when its norm reaches its stop norm at a recorded time; a
blow-up drops the failing run and every later amplitude (a sequential sweep
would never have started them), and once the earlier runs finish the first
failing run's error is raised.

Each step runs on a ``_Stepper``, an in-place RK4 kernel built once per
batch shape (and again when runs leave the batch).  It owns its workspace:
the quadratic term's zero-padded spectra, samples, product and spectrum,
the four RK4 stages and two scratch arrays, so a step allocates nothing.
Its transforms are pocketfft's gufuncs, called as ``np.fft`` calls them but
without its wrappers, and each stage keeps the operations and order of the
plain RK4 expression, so every state has the bits that expression gives.

A run and a sweep of any length march in two processes whenever this
process can fork safely: the platform has ``os.fork`` and no other Python
thread is running.  Once the chain and the initial states exist,
``_lockstep`` forks a worker (a bare ``os.fork``) that runs the RK4 loop,
with the norms, stopping and blow-up, and pickles each recorded step's
states, each with its quadratic-term spectrum, onto a pipe as it takes them,
while this process evaluates only the chain on them (corrected energies and
their derivatives) and reads the residuals.  The quadratic term is computed
where the states are stepped, so this process never loads ``numpy.fft``.
Where forking is impossible or unsafe, one process runs the same loop and
records the same bits.  A worker error is raised here with its type and
message, and the worker is reaped on every path.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import forms
from .dispersion import _finite_real, _integer, dispersion_float
from .field import (
    SpectralField,
    _hs_norms,
    _ProductBuffers,
    _QuadraticTerm,
    hs_norm,
    mean_drift,
    sobolev_energy,
    sobolev_weight,
    symmetry_residual,
)

#: Abort when the norm exceeds this multiple of the initial amplitude.
BLOWUP_FACTOR = 1e3


class InstabilityError(RuntimeError):
    """The integration produced a non-finite or blown-up state.

    ``last_time`` is the last valid time (the last recorded one for ``run``),
    ``trajectory`` the record up to it.  The message names the failing step,
    the amplitude when known, and the ratio of the H^s norm to the blow-up
    threshold (``ratio`` is NaN for a non-finite state).
    """

    def __init__(
        self,
        last_time: float,
        trajectory: "Trajectory | None" = None,
        *,
        step: int,
        epsilon: float | None = None,
        ratio: float = math.nan,
    ):
        self.last_time = last_time
        self.trajectory = trajectory
        where = f"step {step}" if epsilon is None else f"step {step}, epsilon={epsilon:g}"
        if math.isnan(ratio):
            what = "the state is not finite"
        else:
            what = f"the H^s norm is {ratio:.4g} times the blow-up threshold"
        super().__init__(
            f"integration unstable at {where}: {what} (last valid t={last_time:g})"
        )


#: Relative slack allowed when t_end/dt is checked to be a whole number, so
#: that decimal inputs such as t_end=0.3, dt=0.1 (ratio 2.9999999999999996) pass.
_STEP_RTOL = 1e-9

#: Largest n_max of a run.  With corrected energies, the chain's tuple
#: tables bound it lower: n_max / m <= ``forms.max_table_harmonics`` at
#: ``forms.CHAIN_ARITY``, 39 harmonics.  The quadratic term's buffers
#: and a few recorded states take about 730 bytes per unit of n_max, so a run
#: here needs about 75 MB, and an RK4 step takes about 0.12 s on a 2-vCPU
#: Xeon host.
MAX_N_MAX = 100_000


def config_problems(values) -> list:
    """Every rule of a run config that ``values`` (one value per field of
    ``SimConfig``) violates, each as ``"<field>: <rule>"``."""
    problems = []

    def check(name, ok, rule):
        if not ok:
            problems.append(f"{name}: {rule}")

    m, n_max, s, dt, t_end = (values[k] for k in ("m", "n_max", "s", "dt", "t_end"))
    m_ok = _integer(m) and m >= 3
    check("m", m_ok, "must be an integer >= 3")
    n_max_ok = m_ok and _integer(n_max) and n_max >= m and n_max % m == 0
    if m_ok:
        check("n_max", n_max_ok, f"must be a positive multiple of m={m}")
    if n_max_ok:
        most, why = MAX_N_MAX, ""
        if values["corrected_energies"] is True:
            # the chain's largest tuple table must fit forms.MAX_TABLE_ROWS
            tables = m * forms.max_table_harmonics(forms.CHAIN_ARITY)
            if tables < most:
                most, why = tables, f" for m={m} with corrected energies"
        check("n_max", n_max <= most, f"must be at most {most}{why}")
    check("s", _finite_real(s) and s >= 0, "must be a finite number >= 0")
    if _finite_real(s) and n_max_ok:
        # a largest H^s weight (1 + n_max^2)^s past 2^900 overflows the chain
        most = 900 / math.log2(1 + n_max * n_max)
        check("s", s <= most, f"must be at most {most:.4g} for n_max={n_max}")
    dt_ok = _finite_real(dt) and dt > 0
    check("dt", dt_ok, "must be a finite number > 0")
    t_end_ok = _finite_real(t_end) and (not dt_ok or t_end >= dt)
    check("t_end", t_end_ok, "must be a finite number >= dt")
    if dt_ok and t_end_ok:
        steps = t_end / dt
        check(
            "t_end",
            math.isfinite(steps) and abs(steps - round(steps)) <= _STEP_RTOL * steps,
            f"must be a whole number of steps of dt={dt}",
        )
    epsilon, seed, stride = (
        values[k] for k in ("epsilon", "seed", "diagnostics_stride")
    )
    check("epsilon", _finite_real(epsilon) and epsilon > 0, "must be a finite number > 0")
    check("seed", _integer(seed) and seed >= 0, "must be an integer >= 0")
    check(
        "initial_profile",
        values["initial_profile"] in ("single_mode", "random_band"),
        "must be single_mode or random_band",
    )
    check(
        "diagnostics_stride", _integer(stride) and stride >= 1, "must be an integer >= 1"
    )
    for name in ("linear_only", "corrected_energies"):
        check(name, isinstance(values[name], bool), "must be a boolean")
    return problems


def sweep_problems(eps_list, corrected_energies, linear_only) -> list:
    """The rules of a lifespan sweep on its amplitudes and on the config's
    ``corrected_energies`` and ``linear_only`` flags, as ``config_problems``.

    A sweep measures the corrected energies, so it cannot run without them,
    and their derivatives are those of the full flow, so it cannot run
    without the quadratic term either.  A flag that is not a boolean at all
    is left to ``config_problems``.
    """
    problems = []
    ok = (
        isinstance(eps_list, list)
        and len(eps_list) >= 2
        and all(_finite_real(e) and e > 0 for e in eps_list)
        and all(b < a for a, b in zip(eps_list, eps_list[1:]))
    )
    if not ok:
        problems.append("eps_list: must be a strictly decreasing list of >= 2 amplitudes")
    if corrected_energies is False:
        problems.append("corrected_energies: must be true for a lifespan sweep")
    if linear_only is True:
        problems.append("linear_only: must be false for a lifespan sweep")
    return problems


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one truncated run.  Values are dimensionless.

    Raises ValueError naming every field that breaks a rule of
    ``config_problems``; stores ``s``, ``dt``, ``t_end`` and ``epsilon`` as
    floats.
    """

    m: int = 3
    n_max: int = 24
    s: float = 3.0
    dt: float = 0.01
    t_end: float = 10.0
    epsilon: float = 0.1
    seed: int = 0
    initial_profile: str = "random_band"
    diagnostics_stride: int = 10
    linear_only: bool = False
    corrected_energies: bool = True

    def __post_init__(self):
        problems = config_problems(vars(self))
        if problems:
            raise ValueError("; ".join(sorted(problems)))
        for name in ("s", "dt", "t_end", "epsilon"):
            object.__setattr__(self, name, float(getattr(self, name)))


#: Diagnostic column order shared with the CLI CSV output.
DIAGNOSTIC_COLUMNS = (
    "es",
    "es_c3",
    "es_c34",
    "es_c345",
    "hs_norm",
    "mean_res",
    "sym_res",
)


@dataclass
class Trajectory:
    """Recorded states and per-record diagnostics of one run."""

    config: SimConfig
    times: np.ndarray
    states: list
    table: dict
    stop_time: float | None = None
    #: Real d/dt of the requested levels at each record (sweeps only).
    derivatives: np.ndarray | None = None

    @property
    def stopped_early(self) -> bool:
        return self.stop_time is not None

    def column(self, name: str) -> np.ndarray:
        return self.table[name]


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_phases(seed: int, count: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=count)``,
    bit for bit, without importing ``numpy.random``.

    That import also loads ``secrets``, ``hashlib`` and OpenSSL, about 6 MB
    resident.  The stream is NumPy's: SeedSequence hashes the seed's
    little-endian 32-bit words into a pool of four and generates eight words
    from it; their four little-endian 64-bit pairs seed PCG64 (state from
    the first two, increment from the last two, the higher word first),
    whose XSL-RR output gives each draw its top 53 bits.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    seed = int(seed)
    # seed 0 gives no words, which pads the pool as its single zero word would
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    generated = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        generated.append(value ^ value >> 16)
    high_state, low_state, high_seq, low_seq = (
        generated[i] | generated[i + 1] << 32 for i in range(0, 8, 2)
    )
    increment = ((high_seq << 64 | low_seq) << 1 | 1) & _MASK128
    state = (increment + (high_state << 64 | low_state)) & _MASK128
    state = (state * _PCG64_MULTIPLIER + increment) & _MASK128

    phases = np.empty(count)
    two_pi = 2.0 * math.pi
    for i in range(count):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        rotation = state >> 122
        folded = (state >> 64 ^ state) & _MASK64
        bits = (folded >> rotation | folded << (64 - rotation)) & _MASK64
        phases[i] = 0.0 + two_pi * ((bits >> 11) * 2.0**-53)
    return phases


def initial_state(cfg: SimConfig) -> SpectralField:
    """Initial data of the configured profile, H^s norm exactly epsilon.

    ``single_mode`` excites the fundamental; ``random_band`` fills every
    harmonic with amplitudes (1+n^2)^(-(s+1)/2) and phases drawn from the
    seed, so runs with equal seeds are proportional across epsilon.  The
    phases are NumPy's ``default_rng(seed).uniform(0, 2 pi)`` stream,
    reproduced here (``_uniform_phases``) so that the stream is part of
    sqglab rather than of the installed NumPy.
    """
    harmonics = cfg.n_max // cfg.m
    coeffs = np.zeros(harmonics, dtype=np.complex128)
    if cfg.initial_profile == "single_mode":
        coeffs[0] = 0.5
    else:
        n = cfg.m * np.arange(1, harmonics + 1, dtype=np.float64)
        phases = _uniform_phases(cfg.seed, harmonics)
        coeffs = sobolev_weight(n, -(cfg.s + 1.0) / 2.0) * np.exp(1j * phases)
    raw = SpectralField(cfg.m, cfg.n_max, coeffs)
    return raw.with_coeffs(raw.coeffs * (cfg.epsilon / hs_norm(raw, cfg.s)))


class _Stepper:
    """Integrating-factor RK4 steps, in place, on states of one shape.

    ``step(coeffs)`` advances ``coeffs``, a bare (K,) row or a (B, K) batch of
    the ``shape`` the stepper was built for, by one step of ``dt`` and writes
    the new state over the old.  The stepper owns its workspace, so a step
    allocates nothing: the quadratic term's buffers (their spectra zeroed once,
    only the stored slots rewritten), the four RK4 stages and two scratch
    arrays.  Each stage is written out in the operations and order of

        k1 = N(c)
        k2 = N(h (c + (dt/2) k1)) / h
        k3 = N(h c + ((dt/2) h) k2) / h
        k4 = N(h^2 (c + dt k3)) / h^2
        c <- h^2 (c + (dt/6) (k1 + 2 k2 + 2 k3 + k4))

    with h = ``half_phase`` and N the stored modes of the quadratic term
    (``quad``; None steps the linear flow alone).  ``(dt/2) h`` and ``h^2``
    are computed once.  Every operation is the NumPy ufunc the expressions
    above call, on operands of the same shapes, so every part of every state
    keeps the bits those expressions give it; a NaN part stays NaN, with a
    sign and payload that depend on NumPy's choice of loop.
    """

    def __init__(self, quad, dt: float, half_phase: np.ndarray, shape: tuple):
        self.shape = shape
        self.quad = quad
        self.dt = dt
        self.half_phase = half_phase
        self.phase2 = half_phase * half_phase
        self.half_dt_phase = (0.5 * dt) * half_phase
        self.scratch = np.empty(shape, dtype=np.complex128)
        if quad is not None:
            self.buffers = _ProductBuffers(quad, shape)
            # the stored modes of the spectrum ``product_spectrum`` returns
            self.stored = self.buffers.spectrum[..., quad.stored]
            self.stages = tuple(np.empty((4, *shape), dtype=np.complex128))
            self.mid = np.empty(shape, dtype=np.complex128)

    def _term(self, state: np.ndarray, out: np.ndarray) -> None:
        """The quadratic term at the stored modes, written into ``out``."""
        self.quad.product_spectrum(state, self.buffers)
        np.divide(self.stored, self.quad.grid, out=out)

    def step(self, coeffs: np.ndarray) -> None:
        # No complex multiply or divide writes over one of its operands: on a
        # single element NumPy then takes a loop without FMA, which rounds
        # differently from the expression's fresh result.
        dt, phase, phase2 = self.dt, self.half_phase, self.phase2
        scratch = self.scratch
        if self.quad is None:
            np.multiply(phase2, coeffs, out=scratch)
            np.copyto(coeffs, scratch)
            return
        k1, k2, k3, k4 = self.stages
        mid = self.mid
        self._term(coeffs, k1)
        np.multiply(0.5 * dt, k1, out=scratch)
        np.add(coeffs, scratch, out=scratch)
        np.multiply(phase, scratch, out=mid)
        self._term(mid, scratch)
        np.divide(scratch, phase, out=k2)
        np.multiply(phase, coeffs, out=mid)
        np.multiply(self.half_dt_phase, k2, out=scratch)
        np.add(mid, scratch, out=mid)
        self._term(mid, scratch)
        np.divide(scratch, phase, out=k3)
        np.multiply(dt, k3, out=scratch)
        np.add(coeffs, scratch, out=scratch)
        np.multiply(phase2, scratch, out=mid)
        self._term(mid, scratch)
        np.divide(scratch, phase2, out=k4)
        np.multiply(2.0, k2, out=mid)
        np.add(k1, mid, out=mid)
        np.multiply(2.0, k3, out=scratch)
        np.add(mid, scratch, out=mid)
        np.add(mid, k4, out=mid)
        np.multiply(dt / 6.0, mid, out=scratch)
        np.add(coeffs, scratch, out=scratch)
        np.multiply(phase2, scratch, out=coeffs)


def integrate(
    f: SpectralField, dt: float, n_steps: int, linear_only: bool = False
) -> SpectralField:
    """n_steps of size dt without recording; exact phases on the linear part."""
    freq = dispersion_float(f.modes)
    half_phase = np.exp(-0.5j * freq * dt)
    quad = None if linear_only else _QuadraticTerm(f.m, f.n_max)
    coeffs = f.coeffs.copy()
    stepper = _Stepper(quad, dt, half_phase, coeffs.shape)
    # a blown-up state overflows before it is caught below, and is reported
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            stepper.step(coeffs)
            if not np.all(np.isfinite(coeffs.view(np.float64))):
                raise InstabilityError(k * dt, step=k + 1)
    return f.with_coeffs(coeffs)


def run(
    cfg: SimConfig,
    stop_norm: float | None = None,
    initial: SpectralField | None = None,
) -> Trajectory:
    """Integrate to t_end, recording diagnostics every stride steps.

    Deterministic given the seed.  The corrected energies come from a chain
    that ``forms.build_chain`` builds for this run when
    ``cfg.corrected_energies`` is set, and are NaN otherwise.  ``initial``
    (a restart state) overrides the configured profile; it must live on the
    configured lattice.  Raises
    InstabilityError (carrying the last valid time and the partial
    trajectory) on blow-up; stops cleanly when the H^s norm first reaches
    ``stop_norm`` at a recorded time.
    """
    chain = None
    if cfg.corrected_energies:
        chain = forms.build_chain(cfg.m, cfg.n_max, cfg.s)

    if initial is None:
        f = initial_state(cfg)
    else:
        if initial.m != cfg.m or initial.n_max != cfg.n_max:
            raise ValueError(
                f"restart state lattice (m={initial.m}, n_max={initial.n_max}) "
                f"does not match config (m={cfg.m}, n_max={cfg.n_max})"
            )
        f = initial
    return _lockstep([cfg], [f], chain, [stop_norm])[0]


def _march(
    configs: Sequence[SimConfig],
    initials: Sequence[SpectralField],
    stop_norms: Sequence[float | None],
    emit,
) -> tuple:
    """The stepping half of ``_lockstep``: the RK4 loop, blow-up and stopping.

    At each recorded step, ``emit(t, runs, rows, norms, spectra)`` gets the
    runs recorded there (in sweep order), their states as the rows of one
    array, their H^s norms and the ``full_product_spectrum`` of each state,
    computed on its bare row as a lone state's would be (a linear run
    records it too).  Returns the stop time of each run (None if it did
    not stop) and the (run, step, norm ratio) of the first run to blow up,
    or None.  Reads nothing that ``emit`` computes.
    """
    cfg = configs[0]
    modes = initials[0].modes
    half_phase = np.exp(-0.5j * dispersion_float(modes) * cfg.dt)
    op = _QuadraticTerm(cfg.m, cfg.n_max)
    quad = None if cfg.linear_only else op
    weights = sobolev_weight(modes, cfg.s)
    n_steps = int(round(cfg.t_end / cfg.dt))
    stop_times = [None] * len(configs)
    # ``active`` lists the runs still integrating, in sweep order; row r of
    # ``coeffs``, ``norm`` and ``blowup`` belongs to run active[r].
    active = list(range(len(configs)))
    coeffs = np.array([f.coeffs for f in initials])
    norm = _hs_norms(coeffs, weights)
    blowup = BLOWUP_FACTOR * np.maximum([c.epsilon for c in configs], norm)
    failure = None
    # built for the batch's shape, and again when runs leave the batch
    stepper = None

    for k in range(n_steps + 1):
        if not active:
            break
        failed = False
        if k:
            # A batch of one steps as its bare row.  NumPy multiplies a (1, 1)
            # array by a length-1 one without FMA, so that batch would not
            # round like its row; and at this size broadcasting costs more
            # than the arithmetic.
            state = coeffs[0] if len(active) == 1 else coeffs
            if stepper is None or stepper.shape != state.shape:
                stepper = _Stepper(quad, cfg.dt, half_phase, state.shape)
            stepper.step(state)
            norm = _hs_norms(coeffs, weights)
            # a non-finite state has an infinite or NaN norm, so it fails here too
            failed = not (norm <= blowup).all()
        recorded = k % cfg.diagnostics_stride == 0 or k == n_steps
        if not (failed or recorded):
            continue
        keep = np.ones(len(active), dtype=bool)
        if failed:
            # runs from the first failing one on leave; the earlier go on
            r = int(np.argmax(~(norm <= blowup)))
            finite = np.isfinite(coeffs[r].view(np.float64)).all()
            ratio = float(norm[r] / blowup[r]) if finite else math.nan
            failure = (active[r], k, ratio)
            keep[r:] = False
        if recorded and keep.any():
            t = k * cfg.dt
            rows = np.flatnonzero(keep)
            spectra = [op.full_product_spectrum(coeffs[r]) for r in rows]
            emit(t, [active[r] for r in rows], coeffs[rows], norm[rows], spectra)
            for r in rows:
                i = active[r]
                if stop_norms[i] is not None and float(norm[r]) >= stop_norms[i]:
                    stop_times[i] = t
                    keep[r] = False
        if not keep.all():
            active = [i for i, kept in zip(active, keep) if kept]
            coeffs, norm, blowup = coeffs[keep], norm[keep], blowup[keep]
    return stop_times, failure


def _serve_march(receiver, sender, configs, initials, stop_norms) -> None:
    """The forked worker: ``_march``, pickling each record onto ``sender`` as
    it is taken, then the states sent and the outcome, or the error that ended
    it.  It leaves only through ``os._exit``, 1 if it raised what it could not send."""
    import traceback

    sent = 0

    def emit(t, runs, rows, norms, spectra):
        nonlocal sent
        pickle.dump(("record", (t, runs, rows, norms, spectra)), sender)
        sender.flush()
        sent += len(runs)

    try:
        # an interrupt is the caller's to handle; it ends this process
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        receiver.close()
        try:
            outcome = _march(configs, initials, stop_norms, emit)
            last = ("done", (sent, outcome))
        except Exception as exc:
            trace = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            last = ("error", (exc, trace))
        pickle.dump(last, sender)
        sender.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _march_in_worker(configs, initials, stop_norms, emit) -> tuple:
    """``_march`` in the forked worker ``_serve_march``, with ``emit`` called
    here on each record as it arrives.  Re-raises a worker error with its type
    and message, its traceback as the cause, and checks that every state sent
    arrived.  On every path the worker is killed if still running and
    reaped, and both pipe ends closed."""
    read_end, write_end = os.pipe()
    receiver, sender = os.fdopen(read_end, "rb"), os.fdopen(write_end, "wb")
    pid = 0
    try:
        pid = os.fork()
        if not pid:
            _serve_march(receiver, sender, configs, initials, stop_norms)
        sender.close()
        received = 0
        while True:
            try:
                kind, payload = pickle.load(receiver)
            except (EOFError, pickle.UnpicklingError):
                # the worker has exited, at a message boundary or inside one
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pid = 0
                raise RuntimeError(
                    f"the stepping worker ended with exit status {status} "
                    "before its last record"
                ) from None
            if kind == "record":
                emit(*payload)
                received += len(payload[1])
            elif kind == "error":
                error, trace = payload
                raise error from RuntimeError(f"in the stepping worker:\n{trace}")
            else:
                sent, outcome = payload
                if sent != received:
                    raise RuntimeError(
                        f"the stepping worker sent {sent} states; {received} arrived"
                    )
                return outcome
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        receiver.close()
        sender.close()


def _lockstep(
    configs: Sequence[SimConfig],
    initials: Sequence[SpectralField],
    chain: forms.CorrectedEnergy | None,
    stop_norms: Sequence[float | None],
    derivative_levels: tuple = (),
) -> list:
    """Run each (config, initial state, stop norm) as ``run`` does, together.

    The configs differ at most in ``epsilon``.  Step k = 0 is the initial
    state: it is recorded like every stride-th step and the last one, but
    neither stepped nor checked for blow-up.  At a recorded step or a
    blow-up, one keep mask collects the runs that leave the batch.  Each
    record also evaluates the chain's derivatives of ``derivative_levels``,
    if any, from the quadratic term that ``_march`` sends with the state for
    the mean drift.  Returns the trajectories in order; raises the first
    failing run's InstabilityError after the earlier runs are complete.

    ``_march`` steps and this function evaluates the records it emits.  It
    marches in a forked worker whenever the process can fork safely (it has
    ``os.fork`` and no other thread runs), else here; both ways record the
    same bits.
    """
    cfg = configs[0]
    # the stored modes in the spectra's rfft layout, ``_QuadraticTerm.stored``
    stored = slice(cfg.m, cfg.n_max + 1, cfg.m)
    # times, states, rows and derivatives of each run
    records = [([], [], [], []) for _ in configs]

    def record(t: float, runs: list, rows: np.ndarray, norms: np.ndarray,
               spectra: list) -> None:
        for i, row, norm, spectrum in zip(runs, rows, norms, spectra):
            norm = float(norm)
            state = initials[i].with_coeffs(row)
            if chain is not None:
                levels = chain.levels(state)
            else:
                levels = (sobolev_energy(state, cfg.s), np.nan, np.nan, np.nan)
            times, states, table, derivatives = records[i]
            times.append(t)
            states.append(state)
            table.append([*levels, norm, mean_drift(state, spectrum), symmetry_residual(state)])
            if derivative_levels:
                inserted = state.with_coeffs(spectrum[stored])
                values = chain._derivatives(state, derivative_levels, inserted)
                derivatives.append([value.real for value in values])

    # a fork copies only the calling thread, which is unsafe while others run
    forks = hasattr(os, "fork") and threading.active_count() == 1
    march = _march_in_worker if forks else _march
    # a blown-up state overflows before the norm check in ``_march`` drops it
    with np.errstate(over="ignore", invalid="ignore"):
        stop_times, failure = march(configs, initials, stop_norms, record)

    def trajectory(i: int) -> Trajectory:
        times, states, rows, derivatives = records[i]
        data = np.array(rows)
        table = {name: data[:, j] for j, name in enumerate(DIAGNOSTIC_COLUMNS)}
        return Trajectory(
            configs[i],
            np.array(times),
            states,
            table,
            stop_times[i],
            np.array(derivatives) if derivative_levels else None,
        )

    if failure is not None:
        i, step, ratio = failure
        raise InstabilityError(
            records[i][0][-1],
            trajectory(i),
            step=step,
            epsilon=configs[i].epsilon,
            ratio=ratio,
        )
    return [trajectory(i) for i in range(len(configs))]


@dataclass
class LifespanReport:
    """Amplitude sweep: doubling times and derivative-magnitude slopes."""

    epsilons: list
    doubling_times: list
    derivative_means: dict
    slopes: dict
    config: SimConfig
    trajectories: list

    def to_dict(self) -> dict:
        return {
            "epsilons": [float(e) for e in self.epsilons],
            "doubling_times": [
                None if t is None else float(t) for t in self.doubling_times
            ],
            "derivative_means": {
                k: [float(x) for x in v] for k, v in self.derivative_means.items()
            },
            "slopes": {k: float(v) for k, v in self.slopes.items()},
            "t_end": self.config.t_end,
            "dt": self.config.dt,
            "m": self.config.m,
            "n_max": self.config.n_max,
            "s": self.config.s,
            "seed": self.config.seed,
        }


#: Keys of the three measured derivative magnitudes, by correction depth.
DERIVATIVE_KEYS = ("base", "minus_c3", "full_chain")

#: The levels (0 = bare energy) whose derivatives those keys measure; the
#: quintic derivative of E - C3 - C4 enters no slope and is not evaluated.
_MEASURED_LEVELS = (0, 1, 3)


def _sweep(configs: Sequence[SimConfig]) -> list:
    """The trajectories of an amplitude sweep, each run stopping when its
    norm doubles, with the measured derivatives recorded.

    The chain is local to this call.  Nothing else holds it, so its tables
    are freed when the sweep returns, before the slope fit's first LAPACK
    call raises the resident set.
    """
    cfg = configs[0]
    chain = forms.build_chain(cfg.m, cfg.n_max, cfg.s)
    return _lockstep(
        configs,
        [initial_state(c) for c in configs],
        chain,
        [2.0 * c.epsilon for c in configs],
        _MEASURED_LEVELS,
    )


def lifespan_experiment(eps_list: Sequence[float], cfg: SimConfig) -> LifespanReport:
    """Sweep decreasing amplitudes; measure corrected-derivative scaling.

    For each epsilon the run stops at norm doubling or t_end.  The time
    derivative of each corrected energy equals a known multilinear form on
    the state (the quadratic term inserted into the last correction), so the
    derivative magnitudes are evaluated exactly (no finite differences) and
    their log-log slopes against epsilon are fitted.
    Expected slopes: 3 (bare energy), 4 (cubic correction removed), 6 (full
    chain).  Raises ValueError naming each field that breaks a rule of
    ``sweep_problems``.
    """
    eps_list = list(eps_list)
    problems = sweep_problems(eps_list, cfg.corrected_energies, cfg.linear_only)
    if problems:
        raise ValueError("; ".join(problems))
    eps_list = [float(e) for e in eps_list]

    trajectories = _sweep([replace(cfg, epsilon=eps) for eps in eps_list])
    means: dict[str, list[float]] = {key: [] for key in DERIVATIVE_KEYS}
    for trajectory in trajectories:
        magnitudes = np.mean(np.abs(trajectory.derivatives), axis=0)
        for key, magnitude in zip(DERIVATIVE_KEYS, magnitudes):
            means[key].append(magnitude)

    log_eps = np.log(eps_list)
    slopes = {
        key: float(np.polyfit(log_eps, np.log(means[key]), 1)[0])
        for key in DERIVATIVE_KEYS
    }
    return LifespanReport(
        epsilons=eps_list,
        doubling_times=[t.stop_time for t in trajectories],
        derivative_means=means,
        slopes=slopes,
        config=cfg,
        trajectories=trajectories,
    )
