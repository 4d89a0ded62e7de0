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

from dataclasses import dataclass

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


@dataclass(frozen=True)
class BlockState:
    """Independent entries of the block-diagonal density matrix."""

    r11: float = 0.0
    r22: float = 0.0
    r33: float = 0.0
    r44: float = 0.0
    r12: complex = 0j
    r34: complex = 0j


@dataclass(frozen=True)
class BellState4:
    """Same block layout, expressed in the Bell basis."""

    p11: float = 0.0
    p22: float = 0.0
    p33: float = 0.0
    p44: float = 0.0
    p12: complex = 0j
    p34: complex = 0j


@dataclass(frozen=True)
class CollectiveState:
    """Populations and coherences in the collective basis.

    The fields are scalars for one state, or equal-length arrays for a
    trajectory (as ``evolve_block_ode`` returns).
    """

    rgg: float = 0.0
    ree: float = 0.0
    rss: float = 0.0
    raa: float = 0.0
    reg: complex = 0j
    ras: complex = 0j


@dataclass(frozen=True)
class Diagnostics:
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


def block_to_matrix(b: BlockState) -> np.ndarray:
    """Embed the block entries into the full 4x4 product-basis matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = b.r11
    m[1, 1] = b.r22
    m[2, 2] = b.r33
    m[3, 3] = b.r44
    m[0, 1] = b.r12
    m[1, 0] = np.conj(b.r12)
    m[2, 3] = b.r34
    m[3, 2] = np.conj(b.r34)
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


def bell_to_matrix(p: BellState4) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = p.p11
    m[1, 1] = p.p22
    m[2, 2] = p.p33
    m[3, 3] = p.p44
    m[0, 1] = p.p12
    m[1, 0] = np.conj(p.p12)
    m[2, 3] = p.p34
    m[3, 2] = np.conj(p.p34)
    return m


def to_bell(b: BlockState) -> BellState4:
    """Conjugate the state by the Bell transformation."""
    mp = U_BELL @ block_to_matrix(b) @ U_BELL.conj().T
    return BellState4(
        p11=mp[0, 0].real,
        p22=mp[1, 1].real,
        p33=mp[2, 2].real,
        p44=mp[3, 3].real,
        p12=complex(mp[0, 1]),
        p34=complex(mp[2, 3]),
    )


def from_bell(p: BellState4) -> BlockState:
    """Exact inverse of :func:`to_bell`."""
    m = U_BELL.conj().T @ bell_to_matrix(p) @ U_BELL
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
        checks = (
            # a sum is finite only when every term is
            ("non-finite entry", ~np.isfinite(trace + r12 + r34)),
            ("populations do not sum to 1", np.abs(trace - 1.0) > TOL_TRACE),
            ("negative population",
             np.minimum(np.minimum(r11, r22), np.minimum(r33, r44)) < -TOL_PSD),
            ("upper-block coherence violates positivity",
             np.abs(r12) ** 2 > r11 * r22 + TOL_PSD),
            ("lower-block coherence violates positivity",
             np.abs(r34) ** 2 > r33 * r44 + TOL_PSD),
        )
    for what, bad in checks:
        if bad.any():
            return f"{what} at index {int(np.argmax(bad))}" if np.ndim(bad) else what
    return ""


def check_block(b: BlockState) -> None:
    """Raise ValueError if b violates the block-state invariants."""
    problem = block_violation(b)
    if problem:
        raise ValueError(f"invalid block state: {problem}")
