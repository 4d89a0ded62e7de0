"""Time evolution of the dipole-coupled atom pair.

In the collective basis the equations of motion are linear with constant
coefficients, dy/dt = A y, so one exact propagator serves every scenario:

* ``evolve_block_ode`` -- steps y(t + dt) = expm(A dt) y(t) on the uniform
  output grid; valid for any detuning, including the Dicke points
  gamma12 = +/-gamma where the closed forms are singular.

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
from dataclasses import dataclass

import numpy as np

from .statespace import CollectiveState

EPS_DICKE = 1e-8
# Largest output grid: a trajectory and its CSV rows take about 0.5 kB per
# point in memory.
MAX_POINTS = 100_000


class DickeSingularityError(ArithmeticError):
    """Closed form is singular at gamma12 == +/-gamma with excited population."""


class InvariantError(ArithmeticError):
    """A computed trajectory is not a physical two-atom state at some time."""


def _require_finite(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner}: {name} must be finite, got {value}")


@dataclass(frozen=True)
class AtomPairParams:
    """Rates and frequencies of the pair; all in units of gamma (time 1/gamma)."""

    gamma: float = 1.0
    gamma12: float = 0.0
    omega12: float = 0.0
    delta: float = 0.0  # half the transition-frequency difference
    omega0: float = 0.0  # mean frequency; 0 = rotating frame

    def __post_init__(self):
        _require_finite(
            "AtomPairParams",
            gamma=self.gamma,
            gamma12=self.gamma12,
            omega12=self.omega12,
            delta=self.delta,
            omega0=self.omega0,
        )
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if abs(self.gamma12) > self.gamma * (1.0 + 1e-12):
            raise ValueError(f"|gamma12| must not exceed gamma, got {self.gamma12}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output times in units of 1/gamma.

    The initial state is always prepared at t = 0.  The grid only selects
    the output times t_start .. t_end: with t_start > 0 the trajectory is
    evolved through [0, t_start] and its first row is the state at t_start.
    At most MAX_POINTS points.
    """

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        _require_finite("TimeGrid", t_start=self.t_start, t_end=self.t_end)
        if self.t_start < 0.0:
            raise ValueError(f"t_start must be >= 0, got {self.t_start}")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ValueError(
                f"n_points must be between 2 and {MAX_POINTS}, got {self.n_points}"
            )

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
    g, g12, o12, w0 = p.gamma, p.gamma12, p.omega12, p.omega0
    if c0.ree > 0.0 and min(abs(g - g12), abs(g + g12)) < EPS_DICKE:
        raise DickeSingularityError(
            "gamma12 == +/-gamma with excited population: use evolve_block_ode"
        )

    e_fast = math.exp(-(g + g12) * t)  # superradiant
    e_slow = math.exp(-(g - g12) * t)  # subradiant
    e_top = math.exp(-2.0 * g * t)

    ree = c0.ree * e_top
    rss = c0.rss * e_fast
    raa = c0.raa * e_slow
    if c0.ree != 0.0:
        rss += c0.ree * (g + g12) / (g - g12) * (e_fast - e_top)
        raa += c0.ree * (g - g12) / (g + g12) * (e_slow - e_top)
    ras = c0.ras * np.exp(-(g + 2j * o12) * t)
    reg = c0.reg * np.exp(-(g + 2j * w0) * t)
    rgg = 1.0 - ree - rss - raa
    return CollectiveState(rgg=rgg, ree=ree, rss=rss, raa=raa, reg=reg, ras=ras)


def generator(p: AtomPairParams) -> np.ndarray:
    """The constant matrix A of the collective-basis equations dy/dt = A y.

    y = (ree, rss, raa, Re ras, Im ras, Re reg, Im reg); rgg = 1 - ree - rss - raa.
    """
    g, g12, o12, d, w0 = p.gamma, p.gamma12, p.omega12, p.delta, p.omega0
    up, down = g + g12, g - g12  # superradiant and subradiant rates
    return np.array(
        [
            [-2.0 * g, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [up, -up, 0.0, 0.0, -2.0 * d, 0.0, 0.0],
            [down, 0.0, -down, 0.0, 2.0 * d, 0.0, 0.0],
            [0.0, 0.0, 0.0, -g, 2.0 * o12, 0.0, 0.0],
            [0.0, d, -d, -2.0 * o12, -g, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -g, 2.0 * w0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * w0, -g],
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


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring.

    Stays accurate where ``a`` is defective, as the collective generator is
    at the Dicke points gamma12 = +/-gamma.  A non-finite ``a`` gives NaN.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = np.ldexp(a, -squarings)
    b = _PADE13
    ident = np.eye(a.shape[0])
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
    for _ in range(squarings):
        out = out @ out
    return out


def evolve_block_ode(
    c0: CollectiveState, p: AtomPairParams, grid: TimeGrid
) -> CollectiveState:
    """Exact solution of the collective-basis equations on the grid; any detuning.

    The state c0 is prepared at t = 0 and propagated to t_start by
    expm(A t_start).  With P = expm(A dt) for the grid step dt, the state at
    grid point k + m is P^m times the state at point k; the grid is filled
    by doubling, with m = 1, 2, 4, ..., so the loop runs log2(n_points)
    times.  Returns one CollectiveState whose fields are arrays over
    ``grid.times()``.
    """
    a = generator(p)
    y0 = np.array(
        [c0.ree, c0.rss, c0.raa, c0.ras.real, c0.ras.imag, c0.reg.real, c0.reg.imag],
        dtype=float,
    )
    if grid.t_start > 0.0:
        y0 = expm(a * grid.t_start) @ y0
    n = grid.n_points
    power = expm(a * ((grid.t_end - grid.t_start) / (n - 1)))  # P^filled
    ys = np.empty((n, 7))
    ys[0] = y0
    filled = 1
    while filled < n:
        m = min(filled, n - filled)
        np.matmul(ys[:m], power.T, out=ys[filled : filled + m])
        filled += m
        power = power @ power
    ree, rss, raa, as_r, as_i, eg_r, eg_i = ys.T
    return CollectiveState(
        rgg=1.0 - ree - rss - raa,
        ree=ree,
        rss=rss,
        raa=raa,
        reg=eg_r + 1j * eg_i,
        ras=as_r + 1j * as_i,
    )


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
    w1 = p.omega0 - p.delta
    w2 = p.omega0 + p.delta
    h = w1 * sz1 + w2 * sz2 - p.omega12 * (s1p @ s2m + s2p @ s1m)

    gmat = np.array([[p.gamma, p.gamma12], [p.gamma12, p.gamma]])
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
