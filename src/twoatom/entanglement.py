"""Concurrence and negativity for the two-atom pair.

For the block-diagonal states produced by the dynamics both measures have
closed forms in the block entries; the generic 4x4 routes (spin-flip
eigenvalues, partial transpose) are kept as independent oracles.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import AtomPairParams, DickeSingularityError, EPS_DICKE
from .statespace import BellState4, BlockState

# Spin flip |gg><ee| + |ee><gg| + |ge><eg| + |eg><ge| in the product ordering.
_FLIP = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

# index -> (atom1 bit, atom2 bit) for the product ordering gg, ee, ge, eg
_BITS = ((0, 0), (1, 1), (0, 1), (1, 0))
_INDEX = {bits: k for k, bits in enumerate(_BITS)}


class EntanglementReport(NamedTuple):
    """Both measures plus the two alternative branches they are built from.

    Scalars for one state, arrays for a trajectory.
    """

    concurrence: float
    negativity: float
    c1: float
    c2: float
    c1_plus: float
    c2_plus: float


def _sqrt_clamped(v):
    # round-off can push analytically nonnegative arguments slightly negative
    return np.sqrt(np.maximum(v, 0.0))


def block_report(b: BlockState) -> EntanglementReport:
    """Closed-form concurrence and negativity of a block state.

    Elementwise when the entries of ``b`` are arrays (a trajectory).
    """
    a12 = np.abs(b.r12)
    a34 = np.abs(b.r34)
    root_low = _sqrt_clamped(b.r33 * b.r44)
    root_up = _sqrt_clamped(b.r11 * b.r22)
    c1 = 2.0 * (a12 - root_low)
    c2 = 2.0 * (a34 - root_up)
    c1_plus = 2.0 * (a12 + root_low)
    c2_plus = 2.0 * (a34 + root_up)
    s1 = b.r33 + b.r44
    s2 = b.r11 + b.r22
    n1 = _sqrt_clamped(4.0 * (a12 * a12 - b.r33 * b.r44) + s1 * s1) - s1
    n2 = _sqrt_clamped(4.0 * (a34 * a34 - b.r11 * b.r22) + s2 * s2) - s2
    return EntanglementReport(
        concurrence=np.maximum(0.0, np.maximum(c1, c2)),
        negativity=np.maximum(0.0, np.maximum(n1, n2)),
        c1=c1,
        c2=c2,
        c1_plus=c1_plus,
        c2_plus=c2_plus,
    )


def relation_negativity(report: EntanglementReport, b: BlockState) -> float:
    """Negativity recovered from the concurrence branches; algebraically
    identical to the direct closed form."""
    s1 = b.r33 + b.r44
    s2 = b.r11 + b.r22
    n1 = _sqrt_clamped(report.c1 * report.c1_plus + s1 * s1) - s1
    n2 = _sqrt_clamped(report.c2 * report.c2_plus + s2 * s2) - s2
    return np.maximum(0.0, np.maximum(n1, n2))


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """B with B B^dagger = m, by Cholesky with diagonal pivoting.

    Entries that are exactly zero in m stay exactly zero in B. A diagonal
    entry is taken as a pivot only while its Schur complement exceeds the
    round-off it has accumulated (a few ulp of its value in m); below that
    it is zero, so a rank-deficient m gives zero columns instead of noise.
    """
    a = np.array(m, dtype=complex)
    b = np.zeros_like(a)
    floor = 16.0 * np.finfo(float).eps * a.diagonal().real
    for k in range(a.shape[0]):
        d = np.where(a.diagonal().real > floor, a.diagonal().real, 0.0)
        j = int(np.argmax(d))
        if d[j] <= 0.0:
            break
        col = a[:, j] / np.sqrt(d[j])
        b[:, k] = col
        a -= np.outer(col, col.conj())
        a[j, :] = 0.0
        a[:, j] = 0.0
    return b


def wootters_generic(m: np.ndarray) -> float:
    """Concurrence of an arbitrary 4x4 state via the spin-flip construction.

    With rho = B B^dagger and F the spin flip, rho * rho_tilde =
    B (B^dagger F B^*) B^T F has the nonzero eigenvalues of Z^dagger Z,
    Z = B^T F B, so their square roots are the singular values of Z. Taking
    singular values avoids square roots of eigenvalues near zero, which
    would turn round-off of order eps into errors of order sqrt(eps).
    """
    b = _psd_factor(np.asarray(m, dtype=complex))
    roots = np.linalg.svd(b.T @ _FLIP @ b, compute_uv=False)  # descending
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def partial_transpose_atom1(m: np.ndarray) -> np.ndarray:
    """Transpose with respect to the first atom's indices."""
    m = np.asarray(m, dtype=complex)
    out = np.empty_like(m)
    for r, (a, b) in enumerate(_BITS):
        for c, (ap, bp) in enumerate(_BITS):
            out[r, c] = m[_INDEX[(ap, b)], _INDEX[(a, bp)]]
    return out


def negativity_generic(m: np.ndarray) -> float:
    """Negativity from the eigenvalues of the partial transpose."""
    mu = np.linalg.eigvalsh(partial_transpose_atom1(m))
    return max(0.0, -2.0 * float(mu[mu < 0.0].sum()))


def _sum_sq_minus(a, b, x):
    """(a + b)**2 - 4 x**2 as the product (a + b - 2|x|)(a + b + 2|x|); the
    first factor is a difference of close numbers, which is exact."""
    s, x2 = a + b, 2.0 * np.abs(x)
    return (s - x2) * (s + x2)


def concurrence_bell_form(p: BellState4) -> tuple[float, float]:
    """The two concurrence branches evaluated directly in the Bell basis."""
    # with p21 = conj(p12): (p12 - p21)**2 = -4 Im(p12)**2, (p12 + p21)**2 = 4 Re(p12)**2
    up_diff = (p.p11 - p.p22) ** 2 + 4.0 * p.p12.imag**2
    up_sum = _sum_sq_minus(p.p11, p.p22, p.p12.real)
    low_diff = (p.p33 - p.p44) ** 2 + 4.0 * p.p34.imag**2
    low_sum = _sum_sq_minus(p.p33, p.p44, p.p34.real)
    c1 = _sqrt_clamped(up_diff) - _sqrt_clamped(low_sum)
    c2 = _sqrt_clamped(low_diff) - _sqrt_clamped(up_sum)
    return c1, c2


def _check_identical(p: AtomPairParams) -> None:
    if p.delta != 0.0:
        raise ValueError("closed-form trajectories require delta == 0")


def closed_form_C2_single(p: AtomPairParams, t):
    """Concurrence branch for the one-atom-excited start, as a function of time.

    Accepts a scalar or an array of times.
    """
    _check_identical(p)
    t = np.asarray(t, dtype=float)
    g12, o12 = p.gamma12, p.omega12
    fast = np.exp(-(1.0 + g12) * t)
    slow = np.exp(-(1.0 - g12) * t)
    return np.sqrt(0.25 * (fast - slow) ** 2 + np.exp(-2.0 * t) * np.sin(2.0 * o12 * t) ** 2)


def closed_form_N2_single(p: AtomPairParams, t):
    """Negativity for the one-atom-excited start; always below the concurrence."""
    _check_identical(p)
    t = np.asarray(t, dtype=float)
    g12 = p.gamma12
    c2 = closed_form_C2_single(p, t)
    rgg = 1.0 - 0.5 * (np.exp(-(1.0 + g12) * t) + np.exp(-(1.0 - g12) * t))
    # here the doubly excited state stays empty, so the plus branch equals c2
    return np.sqrt(c2 * c2 + rgg * rgg) - rgg


def closed_form_C2_double(p: AtomPairParams, t):
    """Concurrence candidate for the both-atoms-excited start (may be negative)."""
    _check_identical(p)
    g12 = p.gamma12
    if min(abs(1.0 - g12), abs(1.0 + g12)) < EPS_DICKE:
        raise DickeSingularityError(
            "gamma12 == +/-gamma: the both-excited closed form is singular"
        )
    t = np.asarray(t, dtype=float)
    top = np.exp(-2.0 * t)
    fast = (1.0 + g12) / (1.0 - g12) * (np.exp(-(1.0 + g12) * t) - top)
    slow = (1.0 - g12) / (1.0 + g12) * (np.exp(-(1.0 - g12) * t) - top)
    rgg = np.clip(1.0 - (fast + slow + top), 0.0, None)
    return np.abs(fast - slow) - 2.0 * np.exp(-t) * np.sqrt(rgg)
