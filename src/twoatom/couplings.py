"""Collective damping rate and dipole-dipole shift for a pair of coupled dipoles.

Both rates depend on the geometry only through the dimensionless separation
x = k0*r12 and the projection of the (common) dipole orientation on the
interatomic axis.  They are returned in units of the single-atom decay rate.
"""
from __future__ import annotations

import math
from typing import NamedTuple

# Below this separation the 1/x^3 near field dominates: the damping is at its
# small-sample limit while the shift diverges.
X_MIN = 1e-6
# Beyond this separation the 1/x^2 and 1/x^3 near-field terms are below
# 1e-200 and are dropped (x ** 3 would overflow further out); the rates fall
# to 0 with the 1/x far field.
X_FAR = 1e100
# Below this separation the near-field term cos(x)/x^2 - sin(x)/x^3 of the
# damping is summed as its Taylor series: the difference cancels to -1/3 and
# would lose about eps/x^2.  At 0.2 the two forms agree to 1e-15, and no
# figure or benchmark separation lies below it.
X_SERIES = 0.2
# Taylor coefficients of (x cos x - sin x)/x^3 in powers of x^2,
# (-1)^k 2k/(2k+1)! for k = 1..7; the next term is below 1e-21 at X_SERIES.
_NEAR_SERIES = tuple((-1) ** k * 2 * k / math.factorial(2 * k + 1) for k in range(1, 8))


class GeometryError(ValueError):
    """Invalid interatomic geometry."""


class _Geometry(NamedTuple):
    x: float
    mu_dot_r: float = 0.0


class Geometry(_Geometry):
    """Interatomic geometry: x = k0*r12 > 0, mu_dot_r = cos(dipole, axis).

    Checked on construction and by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, x: float, mu_dot_r: float = 0.0):
        if not (math.isfinite(x) and math.isfinite(mu_dot_r)):
            raise GeometryError(
                f"x and mu_dot_r must be finite, got x={x} and mu_dot_r={mu_dot_r}"
            )
        if not x > 0.0:
            raise GeometryError(f"separation k0*r12 must be > 0, got {x}")
        if abs(mu_dot_r) > 1.0:
            raise GeometryError(f"|mu_dot_r| must be <= 1, got {mu_dot_r}")
        return super().__new__(cls, x, mu_dot_r)

    @classmethod
    def _make(cls, iterable):
        # the tuple's own _make skips __new__; _replace goes through it
        return cls(*iterable)


class CouplingRates(NamedTuple):
    """The two collective parameters, in units of the single-atom decay rate."""

    gamma12: float
    omega12: float


def collective_damping(g: Geometry) -> float:
    """Cross-damping rate (units of gamma).

    Returns the exact small-sample limit 1.0 below X_MIN, where the
    oscillatory terms have not yet turned on.  Below X_SERIES the near-field
    term is its Taylor series, so the rate stays within about 1e-16 of the
    exact one and below 1 at every separation.
    """
    x = g.x
    if x < X_MIN:
        return 1.0
    m2 = g.mu_dot_r ** 2
    if x < X_SERIES:
        x2 = x * x
        near = 0.0
        for c in reversed(_NEAR_SERIES):
            near = near * x2 + c
    elif x > X_FAR:
        near = 0.0
    else:
        near = math.cos(x) / x ** 2 - math.sin(x) / x ** 3
    return 1.5 * ((1.0 - m2) * math.sin(x) / x + (1.0 - 3.0 * m2) * near)


def dipole_dipole_shift(g: Geometry) -> float:
    """Coherent dipole-dipole interaction (units of gamma).

    Diverges as 1/x^3 for x -> 0; separations below X_MIN are rejected.
    """
    x = g.x
    if x < X_MIN:
        raise GeometryError(
            f"dipole-dipole shift diverges as 1/x^3; x={x} is below {X_MIN}"
        )
    m2 = g.mu_dot_r ** 2
    near = 0.0 if x > X_FAR else math.sin(x) / x ** 2 + math.cos(x) / x ** 3
    return 0.75 * (-(1.0 - m2) * math.cos(x) / x + (1.0 - 3.0 * m2) * near)


def rates_from_geometry(g: Geometry) -> CouplingRates:
    """The collective rates of the geometry, in units of the single-atom decay rate."""
    return CouplingRates(gamma12=collective_damping(g), omega12=dipole_dipole_shift(g))
