"""State representations for the two-atom pair and transformations among them.

Three coordinate systems are used:

* product basis |1> = |gg>, |2> = |ee>, |3> = |ge>, |4> = |eg>, where the
  density matrix is block diagonal (one 2x2 block on {|1>,|2>}, one on
  {|3>,|4>}) for every state this package evolves;
* Bell basis |Phi+>, |Phi->, |Psi+>, |Psi->;
* collective basis |g>, |e>, |s> = (|3>+|4>)/sqrt2, |a> = (|4>-|3>)/sqrt2,
  in which the dissipative dynamics decouples.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

TOL_HERMITIAN = 1e-10
TOL_TRACE = 1e-9
TOL_PSD = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)

# Product -> Bell change of basis; rows are the Bell vectors expressed in the
# product basis (note the global -1 phases on rows 2 and 4).
U_BELL = _SQ2 * np.array(
    [
        [1, 1, 0, 0],
        [-1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, -1, 1],
    ],
    dtype=complex,
)


class BlockState(NamedTuple):
    """Independent entries of the block-diagonal density matrix."""

    r11: float = 0.0
    r22: float = 0.0
    r33: float = 0.0
    r44: float = 0.0
    r12: complex = 0j
    r34: complex = 0j


class BellState4(NamedTuple):
    """Same block layout, expressed in the Bell basis (``to_bell`` fills it
    with np.longdouble entries)."""

    p11: float = 0.0
    p22: float = 0.0
    p33: float = 0.0
    p44: float = 0.0
    p12: complex = 0j
    p34: complex = 0j


class CollectiveState(NamedTuple):
    """Populations and coherences in the collective basis.

    The fields are scalars for one state, or equal-length arrays for a
    trajectory (``evolve_block_ode`` returns a trajectory as rows instead).
    """

    rgg: float = 0.0
    ree: float = 0.0
    rss: float = 0.0
    raa: float = 0.0
    reg: complex = 0j
    ras: complex = 0j


class Diagnostics(NamedTuple):
    """Validity report for a 4x4 density matrix."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float

    @property
    def hermitian(self) -> bool:
        return self.hermiticity_residual <= TOL_HERMITIAN

    @property
    def unit_trace(self) -> bool:
        return self.trace_residual <= TOL_TRACE

    @property
    def positive(self) -> bool:
        return self.min_eigenvalue >= -TOL_PSD

    @property
    def valid(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive


def block_to_matrix(b: BlockState | BellState4) -> np.ndarray:
    """Embed the block entries into the full 4x4 matrix, by position: a
    BellState4, which has the same layout, embeds in the Bell basis."""
    r11, r22, r33, r44, r12, r34 = b
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = r11
    m[1, 1] = r22
    m[2, 2] = r33
    m[3, 3] = r44
    m[0, 1] = r12
    m[1, 0] = np.conj(r12)
    m[2, 3] = r34
    m[3, 2] = np.conj(r34)
    return m


def matrix_to_block(m: np.ndarray) -> BlockState:
    """Extract the block entries, ignoring the (assumed zero) cross blocks."""
    return BlockState(
        r11=m[0, 0].real,
        r22=m[1, 1].real,
        r33=m[2, 2].real,
        r44=m[3, 3].real,
        r12=complex(m[0, 1]),
        r34=complex(m[2, 3]),
    )


def to_bell(b: BlockState) -> BellState4:
    """Conjugate the state by the Bell transformation."""
    p11, p22, p12 = _bell_block(b.r11, b.r22, complex(b.r12))
    p33, p44, p34 = _bell_block(b.r33, b.r44, complex(b.r34))
    return BellState4(p11=p11, p22=p22, p33=p33, p44=p44, p12=p12, p34=p34)


def _bell_block(ra: float, rb: float, coh: complex):
    """Bell-basis entries of one 2x2 block: (ra + rb)/2 +- Re coh on the
    diagonal, (rb - ra)/2 + i Im coh off it.

    They are held in np.longdouble: where one population is below the ulp
    of the block's trace in double precision, (ra + rb) and (rb - ra) would
    round it away, and the concurrence, which holds its square root, would
    lose about sqrt(ulp) ~ 1e-8. The smaller diagonal entry is the trace
    minus the larger one, which is exact, so the pair keeps the trace.
    (Where np.longdouble is plain double, the guard is lost.)
    """
    ra, rb = np.longdouble(ra), np.longdouble(rb)
    total = ra + rb
    big = total / 2 + abs(np.longdouble(coh.real))
    small = total - big
    plus, minus = (big, small) if coh.real >= 0.0 else (small, big)
    return plus, minus, np.clongdouble((rb - ra) / 2) + np.clongdouble(1j) * coh.imag


def from_bell(p: BellState4) -> BlockState:
    """Exact inverse of :func:`to_bell`."""
    m = U_BELL.conj().T @ block_to_matrix(p) @ U_BELL
    return matrix_to_block(m)


def to_collective(b: BlockState) -> CollectiveState:
    """Rotate only the one-excitation block into the symmetric/antisymmetric pair."""
    half = 0.5 * (b.r33 + b.r44)
    re34 = b.r34.real
    return CollectiveState(
        rgg=b.r11,
        ree=b.r22,
        rss=half + re34,
        raa=half - re34,
        reg=complex(np.conj(b.r12)),
        ras=0.5 * (b.r44 - b.r33) - 1j * b.r34.imag,
    )


def from_collective(c: CollectiveState) -> BlockState:
    """Exact inverse of :func:`to_collective`; elementwise on a trajectory."""
    half = 0.5 * (c.rss + c.raa)
    re_as = c.ras.real
    return BlockState(
        r11=c.rgg,
        r22=c.ree,
        r33=half - re_as,
        r44=half + re_as,
        r12=np.conj(c.reg),
        r34=0.5 * (c.rss - c.raa) - 1j * c.ras.imag,
    )


def validate(m: np.ndarray) -> Diagnostics:
    """Report Hermiticity / trace / positivity residuals of a 4x4 matrix."""
    m = np.asarray(m, dtype=complex)
    herm = float(np.max(np.abs(m - m.conj().T)))
    tr = float(abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag))
    # symmetrize so eigvalsh is applicable even for slightly non-Hermitian input
    evals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return Diagnostics(
        hermiticity_residual=herm,
        trace_residual=tr,
        min_eigenvalue=float(evals.min()),
    )


def is_block_form(m: np.ndarray, tol: float = TOL_PSD) -> bool:
    """True iff every cross-block entry has modulus below tol."""
    m = np.asarray(m)
    cross = np.concatenate([np.abs(m[:2, 2:]).ravel(), np.abs(m[2:, :2]).ravel()])
    return bool(np.all(cross < tol))


def at_index(what: str, bad) -> str:
    """``what``, naming the first True entry of ``bad`` when it is an array."""
    return f"{what} at index {int(np.argmax(bad))}" if np.ndim(bad) else what


def first_violation(finite, trace, populations, blocks) -> str:
    """The first block-state invariant broken, or "" if none, from parts a
    caller has already computed:

    * ``finite``: True where every entry is finite;
    * ``trace``: r11 + r22 + r33 + r44;
    * ``populations``: (r11, r22, r33, r44);
    * ``blocks``: (|r12|**2, r11 * r22) and (|r34|**2, r33 * r44).

    The checks run in that order, each to within TOL_TRACE or TOL_PSD.
    Elementwise on arrays; the message then names the first offending index.
    """
    r11, r22, r33, r44 = populations
    (sq12, up), (sq34, low) = blocks
    # NaN at non-finite entries fails every comparison
    with np.errstate(invalid="ignore"):
        checks = (
            ("non-finite entry", ~finite),
            ("populations do not sum to 1", np.abs(trace - 1.0) > TOL_TRACE),
            ("negative population",
             np.minimum(np.minimum(r11, r22), np.minimum(r33, r44)) < -TOL_PSD),
            ("upper-block coherence violates positivity", sq12 > up + TOL_PSD),
            ("lower-block coherence violates positivity", sq34 > low + TOL_PSD),
        )
    for what, bad in checks:
        if bad.any():
            return at_index(what, bad)
    return ""


def block_violation(b: BlockState) -> str:
    """The first block-state invariant that b breaks, or "" if none.

    Elementwise when the entries are arrays; the message then names the
    first offending index.
    """
    r11, r22, r33, r44, r12, r34 = np.broadcast_arrays(
        b.r11, b.r22, b.r33, b.r44, b.r12, b.r34
    )
    # inf - inf and inf * 0 at non-finite entries; |r|**2 overflows to inf near
    # 1e300, which still fails the positivity checks
    with np.errstate(invalid="ignore", over="ignore"):
        trace = r11 + r22 + r33 + r44
        return first_violation(
            # a sum is finite only when every term is
            np.isfinite(trace + r12 + r34),
            trace,
            (r11, r22, r33, r44),
            ((np.abs(r12) ** 2, r11 * r22), (np.abs(r34) ** 2, r33 * r44)),
        )


def check_block(b: BlockState) -> None:
    """Raise ValueError if b violates the block-state invariants."""
    problem = block_violation(b)
    if problem:
        raise ValueError(f"invalid block state: {problem}")
