"""Collective damping rate and dipole-dipole shift for a pair of coupled dipoles.

Both rates depend on the geometry only through the dimensionless separation
x = k0*r12 and the projection of the (common) dipole orientation on the
interatomic axis.  They are returned in units of the single-atom decay rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Below this separation the 1/x^3 near field dominates: the damping is at its
# small-sample limit while the shift diverges.
X_MIN = 1e-6
# Beyond this separation the 1/x^2 and 1/x^3 near-field terms are below
# 1e-200 and are dropped (x ** 3 would overflow further out); the rates fall
# to 0 with the 1/x far field.
X_FAR = 1e100


class GeometryError(ValueError):
    """Invalid interatomic geometry."""


@dataclass(frozen=True)
class Geometry:
    """Interatomic geometry: x = k0*r12 > 0, mu_dot_r = cos(dipole, axis)."""

    x: float
    mu_dot_r: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.mu_dot_r)):
            raise GeometryError(
                f"x and mu_dot_r must be finite, got x={self.x} and mu_dot_r={self.mu_dot_r}"
            )
        if not self.x > 0.0:
            raise GeometryError(f"separation k0*r12 must be > 0, got {self.x}")
        if abs(self.mu_dot_r) > 1.0:
            raise GeometryError(f"|mu_dot_r| must be <= 1, got {self.mu_dot_r}")


@dataclass(frozen=True)
class CouplingRates:
    """Single-atom rate together with the two collective parameters."""

    gamma: float
    gamma12: float
    omega12: float


def collective_damping(g: Geometry) -> float:
    """Cross-damping rate (units of gamma).

    Returns the exact small-sample limit 1.0 below X_MIN, where the
    oscillatory terms have not yet turned on.
    """
    x = g.x
    if x < X_MIN:
        return 1.0
    m2 = g.mu_dot_r ** 2
    near = 0.0 if x > X_FAR else math.cos(x) / x ** 2 - math.sin(x) / x ** 3
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


def rates_from_geometry(g: Geometry, gamma: float = 1.0) -> CouplingRates:
    """Bundle gamma with the geometry-determined collective rates."""
    if not gamma > 0.0:
        raise GeometryError(f"gamma must be > 0, got {gamma}")
    return CouplingRates(
        gamma=gamma,
        gamma12=gamma * collective_damping(g),
        omega12=gamma * dipole_dipole_shift(g),
    )
