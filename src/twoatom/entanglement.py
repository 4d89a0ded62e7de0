"""Concurrence and negativity for the two-atom pair.

For the block-diagonal states produced by the dynamics both measures have
closed forms in the block entries; the generic 4x4 routes (spin-flip
eigenvalues, partial transpose) are kept as independent oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EntanglementReport:
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


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def wootters_generic(m: np.ndarray) -> float:
    """Concurrence of an arbitrary 4x4 state via the spin-flip construction.

    The eigenvalues of rho * rho_tilde are obtained from the Hermitian
    equivalent sqrt(rho) * rho_tilde * sqrt(rho).
    """
    m = np.asarray(m, dtype=complex)
    rho_tilde = _FLIP @ m.conj() @ _FLIP
    s = _sqrtm_psd(m)
    lam = np.linalg.eigvalsh(s @ rho_tilde @ s)
    roots = np.sqrt(np.clip(lam, 0.0, None))[::-1]  # descending
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


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


def concurrence_bell_form(p: BellState4) -> tuple[float, float]:
    """The two concurrence branches evaluated directly in the Bell basis."""
    p12, p21 = p.p12, np.conj(p.p12)
    p34, p43 = p.p34, np.conj(p.p34)
    up_diff = ((p.p11 - p.p22) ** 2 - (p12 - p21) ** 2).real
    up_sum = ((p.p11 + p.p22) ** 2 - (p12 + p21) ** 2).real
    low_diff = ((p.p33 - p.p44) ** 2 - (p34 - p43) ** 2).real
    low_sum = ((p.p33 + p.p44) ** 2 - (p34 + p43) ** 2).real
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
    g, g12, o12 = p.gamma, p.gamma12, p.omega12
    fast = np.exp(-(g + g12) * t)
    slow = np.exp(-(g - g12) * t)
    return np.sqrt(0.25 * (fast - slow) ** 2 + np.exp(-2.0 * g * t) * np.sin(2.0 * o12 * t) ** 2)


def closed_form_N2_single(p: AtomPairParams, t):
    """Negativity for the one-atom-excited start; always below the concurrence."""
    _check_identical(p)
    t = np.asarray(t, dtype=float)
    g, g12 = p.gamma, p.gamma12
    c2 = closed_form_C2_single(p, t)
    rgg = 1.0 - 0.5 * (np.exp(-(g + g12) * t) + np.exp(-(g - g12) * t))
    # here the doubly excited state stays empty, so the plus branch equals c2
    return np.sqrt(c2 * c2 + rgg * rgg) - rgg


def closed_form_C2_double(p: AtomPairParams, t):
    """Concurrence candidate for the both-atoms-excited start (may be negative)."""
    _check_identical(p)
    g, g12 = p.gamma, p.gamma12
    if min(abs(g - g12), abs(g + g12)) < EPS_DICKE:
        raise DickeSingularityError(
            "gamma12 == +/-gamma: the both-excited closed form is singular"
        )
    t = np.asarray(t, dtype=float)
    top = np.exp(-2.0 * g * t)
    fast = (g + g12) / (g - g12) * (np.exp(-(g + g12) * t) - top)
    slow = (g - g12) / (g + g12) * (np.exp(-(g - g12) * t) - top)
    rgg = np.clip(1.0 - (fast + slow + top), 0.0, None)
    return np.abs(fast - slow) - 2.0 * np.exp(-g * t) * np.sqrt(rgg)
