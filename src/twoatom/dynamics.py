"""Time evolution of the dipole-coupled atom pair.

In the collective basis the equations of motion are linear with constant
coefficients, dy/dt = A y, so one exact propagator serves every scenario:

* ``evolve_block_ode`` -- steps y(t + dt) = expm(A dt) y(t) on the uniform
  output grid; valid for any detuning, including the Dicke points
  gamma12 = +/-gamma where the closed forms are singular.  It returns the
  trajectory as one real (STATE_ROWS, n_points) array whose rows are the
  components of y (see ``generator``); ``scenarios.record_from_state`` maps
  those rows to the output columns and checks them.  Its two steps are
  shared with ``scenarios.run_scenario`` and ``scenarios.sweep``:
  ``propagators`` exponentiates a stack of generators, one per parameter
  set, on one grid in one ``expm`` call (which takes stacks of matrices),
  and ``fill`` propagates one initial state with one of them.

Two independent routes are kept as oracles for it:

* ``evolve_analytic`` -- exponential closed forms for identical atoms (zero
  detuning) away from the Dicke points;
* ``evolve_full_master`` -- the full 4x4 Lindblad generator in the product
  basis, as a 16x16 superoperator stepped exactly on the grid.

Every route prepares the initial state at t = 0; a time grid only selects
the output times (see ``TimeGrid``).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .statespace import CollectiveState

EPS_DICKE = 1e-8
# Largest output grid.  A trajectory takes about 0.22 kB per point in memory
# at its peak: 22 float rows (the state, the output columns and the record
# temporaries) and the masks of the invariant checks, 21.9 MB at 100 000
# points.  Writing its CSV adds the buffers of one chunk, 0.65 MB whatever
# the number of points.  Measured with tracemalloc on `run_scenario` and
# `write_csv` at 100 000 points.
MAX_POINTS = 100_000


class DickeSingularityError(ArithmeticError):
    """Closed form is singular at gamma12 == +/-gamma with excited population."""


class InvariantError(ArithmeticError):
    """A computed trajectory is not a physical two-atom state at some time."""


def _require_finite(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner}: {name} must be finite, got {value}")


class _AtomPairParams(NamedTuple):
    gamma12: float = 0.0
    omega12: float = 0.0
    delta: float = 0.0  # half the transition-frequency difference


class AtomPairParams(_AtomPairParams):
    """Rates and frequencies of the pair, in units of the single-atom decay
    rate gamma (time in units of 1/gamma), in the frame rotating at the mean
    transition frequency.

    Checked on construction and by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, gamma12: float = 0.0, omega12: float = 0.0, delta: float = 0.0):
        _require_finite("AtomPairParams", gamma12=gamma12, omega12=omega12, delta=delta)
        if abs(gamma12) > 1.0 + 1e-12:
            raise ValueError(f"|gamma12| must not exceed gamma, got {gamma12}")
        return super().__new__(cls, gamma12, omega12, delta)

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make skips __new__; _replace goes through it
        return cls(*iterable)


class _TimeGrid(NamedTuple):
    t_start: float
    t_end: float
    n_points: int


class TimeGrid(_TimeGrid):
    """Uniform output times in units of 1/gamma.

    The initial state is always prepared at t = 0.  The grid only selects
    the output times t_start .. t_end: with t_start > 0 the trajectory is
    evolved through [0, t_start] and its first row is the state at t_start.
    At most MAX_POINTS points.  Checked on construction and by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, t_start: float, t_end: float, n_points: int):
        _require_finite("TimeGrid", t_start=t_start, t_end=t_end)
        if t_start < 0.0:
            raise ValueError(f"t_start must be >= 0, got {t_start}")
        if not t_end > t_start:
            raise ValueError("t_end must exceed t_start")
        if not 2 <= n_points <= MAX_POINTS:
            raise ValueError(
                f"n_points must be between 2 and {MAX_POINTS}, got {n_points}"
            )
        return super().__new__(cls, t_start, t_end, n_points)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    # linspace's last point can overflow before it is set to t_end exactly
    @np.errstate(over="ignore")
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


def evolve_analytic(c0: CollectiveState, p: AtomPairParams, t: float) -> CollectiveState:
    """Closed-form collective-basis solution for identical atoms.

    Refuses the Dicke points gamma12 == +/-gamma whenever the doubly
    excited state is populated: the feeding terms for the symmetric and
    antisymmetric populations contain the prefactors
    (gamma +/- gamma12)/(gamma -/+ gamma12).  ``evolve_block_ode`` has no
    such restriction.
    """
    if p.delta != 0.0:
        raise ValueError("analytic solution requires delta == 0")
    g12, o12 = p.gamma12, p.omega12
    if c0.ree > 0.0 and min(abs(1.0 - g12), abs(1.0 + g12)) < EPS_DICKE:
        raise DickeSingularityError(
            "gamma12 == +/-gamma with excited population: use evolve_block_ode"
        )

    e_fast = math.exp(-(1.0 + g12) * t)  # superradiant
    e_slow = math.exp(-(1.0 - g12) * t)  # subradiant
    e_top = math.exp(-2.0 * t)

    ree = c0.ree * e_top
    rss = c0.rss * e_fast
    raa = c0.raa * e_slow
    if c0.ree != 0.0:
        rss += c0.ree * (1.0 + g12) / (1.0 - g12) * (e_fast - e_top)
        raa += c0.ree * (1.0 - g12) / (1.0 + g12) * (e_slow - e_top)
    ras = c0.ras * np.exp(-(1.0 + 2j * o12) * t)
    reg = c0.reg * math.exp(-t)
    rgg = 1.0 - ree - rss - raa
    return CollectiveState(rgg=rgg, ree=ree, rss=rss, raa=raa, reg=reg, ras=ras)


STATE_ROWS = 6  # components of y in ``generator``


def generator(p: AtomPairParams) -> np.ndarray:
    """The constant matrix A of the collective-basis equations dy/dt = A y.

    y = (ree, rss, raa, Re ras, Im ras, |reg|); rgg = 1 - ree - rss - raa.
    reg obeys d reg/dt = -gamma reg, decoupled from the rest, and no output
    reads its phase, so y carries its modulus only.
    """
    g12, o12, d = p.gamma12, p.omega12, p.delta
    up, down = 1.0 + g12, 1.0 - g12  # superradiant and subradiant rates
    return np.array(
        [
            [-2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [up, -up, 0.0, 0.0, -2.0 * d, 0.0],
            [down, 0.0, -down, 0.0, 2.0 * d, 0.0],
            [0.0, 0.0, 0.0, -1.0, 2.0 * o12, 0.0],
            [0.0, d, -d, -2.0 * o12, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        ]
    )


# Numerator coefficients of the degree-13 Pade approximant to exp and the
# largest 1-norm for which it is accurate to double precision without
# scaling (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def _squarings(norm: float) -> int:
    """Halvings that bring a matrix of 1-norm ``norm`` within _THETA13."""
    return math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0


# A huge norm overflows to inf and NaN in the products below, as do a huge
# rate times a time and the powers of an inexact step in ``propagators`` and
# ``fill``.  Callers refuse the result by its non-finite entries, so numpy's
# warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    ``a`` is one square matrix or a stack of them, shape (..., m, m).  Each
    matrix of a stack gets its own scaling and squaring count, so its
    exponential has the same bits as a call on that matrix alone.  Stays
    accurate where a matrix is defective, as the collective generator is at
    the Dicke points gamma12 = +/-gamma.  A non-finite matrix gives NaN in
    its own place only.
    """
    shape = np.shape(a)
    a = np.reshape(a, (-1, *shape[-2:]))
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    bad = ~np.isfinite(norms)
    if bad.any():
        # exponentiated as zero matrices, then set to NaN
        a = np.where(bad[:, np.newaxis, np.newaxis], 0.0, a)
        norms[bad] = 0.0
    squarings = np.array([_squarings(norm) for norm in norms.tolist()])
    a = np.ldexp(a, -squarings[:, np.newaxis, np.newaxis])
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    out = np.linalg.solve(v - u, v + u)
    for level in range(squarings.max()):
        more = np.flatnonzero(squarings > level)
        out[more] = out[more] @ out[more]
    out[bad] = np.nan
    return out.reshape(shape)


class Propagators(NamedTuple):
    """Exact propagators of a stack of generators A_i on one time grid.

    ``start[i]`` is expm(A_i t_start), or None when t_start = 0.
    ``powers[j, i]`` is P_i^(2^j) for the grid step P_i = expm(A_i dt), one
    level per doubling step of ``fill``.
    """

    start: np.ndarray | None
    powers: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def propagators(gens: np.ndarray, grid: TimeGrid) -> Propagators:
    """The propagators of a stack of generators, shape (k, m, m), on the grid.

    One ``expm`` call exponentiates every generator at the grid's step and
    start time; each level of the powers is one matrix product on the stack.
    """
    times = [(grid.t_end - grid.t_start) / (grid.n_points - 1)]
    if grid.t_start > 0.0:
        times.append(grid.t_start)
    e = expm(gens[:, np.newaxis] * np.array(times)[:, np.newaxis, np.newaxis])
    powers = np.empty(((grid.n_points - 1).bit_length(), *gens.shape))
    powers[0] = e[:, 0]
    for j in range(1, len(powers)):
        np.matmul(powers[j - 1], powers[j - 1], out=powers[j])
    return Propagators(e[:, 1] if grid.t_start > 0.0 else None, powers)


def state_vector(c: CollectiveState) -> np.ndarray:
    """y of ``generator``: ree, rss, raa, Re ras, Im ras, |reg|."""
    return np.array([c.ree, c.rss, c.raa, c.ras.real, c.ras.imag, abs(c.reg)], dtype=float)


@np.errstate(over="ignore", invalid="ignore")
def fill(y0: np.ndarray, props: Propagators, k: int, out: np.ndarray) -> np.ndarray:
    """Trajectory k of a stack of propagators: ``out``, shape (m, n_points)
    of their grid, receives y0 prepared at t = 0 and propagated over it.

    Point 0 is expm(A t_start) y0.  The state at point j + m is P^m times
    the state at point j, so the grid is filled by doubling, with
    m = 1, 2, 4, ..., in log2(n_points) matrix products.
    """
    out[:, 0] = y0 if props.start is None else props.start[k] @ y0
    n = out.shape[1]
    filled = 1
    for power in props.powers[:, k]:
        m = min(filled, n - filled)
        np.matmul(power, out[:, :m], out=out[:, filled : filled + m])
        filled += m
    return out


def evolve_block_ode(c0: CollectiveState, p: AtomPairParams, grid: TimeGrid) -> np.ndarray:
    """Exact solution of the collective-basis equations on the grid; any detuning.

    The state c0 is prepared at t = 0 and propagated over the grid by
    ``fill``.  Returns the trajectory as one C-contiguous float array of
    shape (STATE_ROWS, n_points) over ``grid.times()``: the rows are the
    components of y in ``generator``, ree, rss, raa, Re ras, Im ras, |reg|
    (rgg = 1 - ree - rss - raa).  The oracles keep the phase of reg.
    """
    props = propagators(generator(p)[np.newaxis], grid)
    return fill(state_vector(c0), props, 0, np.empty((STATE_ROWS, grid.n_points)))


def _pair_operators():
    """Lowering operators and z projections in the product basis (gg, ee, ge, eg)."""
    s1m = np.zeros((4, 4), dtype=complex)
    s1m[0, 3] = 1.0  # |eg> -> |gg>
    s1m[2, 1] = 1.0  # |ee> -> |ge>
    s2m = np.zeros((4, 4), dtype=complex)
    s2m[0, 2] = 1.0  # |ge> -> |gg>
    s2m[3, 1] = 1.0  # |ee> -> |eg>
    sz1 = 0.5 * np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex)
    sz2 = 0.5 * np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex)
    return s1m, s2m, sz1, sz2


def lindblad_generator(p: AtomPairParams):
    """Right-hand side rho -> drho/dt of the full master equation.

    The sign of the exchange Hamiltonian is fixed operationally: it is the one
    for which this generator reproduces the collective-basis equations of
    motion propagated by evolve_block_ode.
    """
    s1m, s2m, sz1, sz2 = _pair_operators()
    s1p, s2p = s1m.conj().T, s2m.conj().T
    # in the frame rotating at the mean frequency the atoms sit at -/+ delta
    h = p.delta * (sz2 - sz1) - p.omega12 * (s1p @ s2m + s2p @ s1m)

    gmat = np.array([[1.0, p.gamma12], [p.gamma12, 1.0]])
    sp = [s1p, s2p]
    sm = [s1m, s2m]

    def rhs(rho):
        drho = -1j * (h @ rho - rho @ h)
        for i in range(2):
            for j in range(2):
                gij = gmat[i, j]
                spm = sp[i] @ sm[j]
                drho -= 0.5 * gij * (rho @ spm + spm @ rho - 2.0 * (sm[j] @ rho @ sp[i]))
        return drho

    return rhs


def evolve_full_master(
    m0: np.ndarray, p: AtomPairParams, grid: TimeGrid
) -> np.ndarray:
    """Exact solution of the full 4x4 master equation from m0 at t = 0.

    Steps vec(rho)(t + dt) = expm(L dt) vec(rho)(t) one grid point at a
    time, after expm(L t_start) from t = 0.  Unlike ``evolve_block_ode`` it
    does not fill the grid by doubling, so as an oracle it shares only
    ``expm`` with it.  ``expm`` scales by powers of two with ``np.ldexp``,
    which takes real input only, so L acts in its 32x32 real form on
    (Re vec(rho), Im vec(rho)).  Returns the states at ``grid.times()``,
    shape (n_points, 4, 4).
    """
    gen = lindblad_generator(p)
    # the 16x16 superoperator L, vec(drho/dt) = L vec(rho) with vec = ravel:
    # column k is the generator applied to the k-th unit matrix
    lv = np.stack([gen(e.reshape(4, 4)).ravel() for e in np.eye(16)], axis=1)
    real = np.block([[lv.real, -lv.imag], [lv.imag, lv.real]])
    v = np.asarray(m0, dtype=complex).ravel()
    y = np.concatenate([v.real, v.imag])
    if grid.t_start > 0.0:
        y = expm(real * grid.t_start) @ y
    step = expm(real * ((grid.t_end - grid.t_start) / (grid.n_points - 1)))
    ys = np.empty((grid.n_points, 32))
    for k in range(grid.n_points):
        ys[k] = y
        y = step @ y
    return (ys[:, :16] + 1j * ys[:, 16:]).reshape(-1, 4, 4)


def total_spin_squared(c: CollectiveState):
    """Square of the total spin; conserved only when the antisymmetric state decouples.

    Elementwise when the fields of ``c`` are arrays.
    """
    return 2.0 - 2.0 * c.raa


def __getattr__(name: str):
    # bench/tracer.py counts solver evaluations at twoatom.dynamics.solve_ivp.
    # No evolution here uses scipy, so the name is resolved only when asked
    # for and importing twoatom never loads scipy.
    if name == "solve_ivp":
        try:
            from scipy.integrate import solve_ivp
        except ImportError:
            raise AttributeError(
                f"module {__name__!r} has no attribute 'solve_ivp': scipy is not installed"
            ) from None
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
