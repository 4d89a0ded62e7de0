import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twoatom.couplings import (
    Geometry,
    GeometryError,
    X_MIN,
    collective_damping,
    dipole_dipole_shift,
    rates_from_geometry,
)

# frozen from a 40-digit mpmath evaluation of the same expressions
DAMPING_PI6 = 0.9459687343404735
SHIFT_PI6 = 4.652110961561577


class TestCollectiveDamping:
    def test_sixth_wavelength_perpendicular(self):
        g = Geometry(x=math.pi / 6, mu_dot_r=0.0)
        assert collective_damping(g) == pytest.approx(DAMPING_PI6, abs=1e-12)
        # the figure scenarios round this to 0.95
        assert collective_damping(g) == pytest.approx(0.95, abs=5e-3)

    def test_small_sample_limit(self):
        assert collective_damping(Geometry(x=1e-3)) == pytest.approx(1.0, abs=1e-5)
        # below the cutoff the analytic limit is returned exactly
        assert collective_damping(Geometry(x=X_MIN / 10)) == 1.0

    def test_far_field_vanishes(self):
        assert abs(collective_damping(Geometry(x=200 * math.pi))) < 1e-2

    @given(st.floats(-1.0, 1.0))
    def test_small_sample_limit_any_orientation(self, m):
        # the limit is orientation independent
        assert collective_damping(Geometry(x=1e-3, mu_dot_r=m)) == pytest.approx(
            1.0, abs=1e-5
        )


class TestDipoleDipoleShift:
    def test_sixth_wavelength_perpendicular(self):
        g = Geometry(x=math.pi / 6, mu_dot_r=0.0)
        assert dipole_dipole_shift(g) == pytest.approx(SHIFT_PI6, abs=1e-12)
        assert dipole_dipole_shift(g) == pytest.approx(4.65, abs=0.01)

    def test_far_field_vanishes(self):
        assert abs(dipole_dipole_shift(Geometry(x=200 * math.pi))) < 1e-2

    def test_near_field_divergence_is_rejected(self):
        with pytest.raises(GeometryError):
            dipole_dipole_shift(Geometry(x=X_MIN / 2))

    def test_divergence_scaling(self):
        # 1/x^3 growth just above the cutoff
        v1 = dipole_dipole_shift(Geometry(x=1e-4))
        v2 = dipole_dipole_shift(Geometry(x=2e-4))
        assert v1 / v2 == pytest.approx(8.0, rel=1e-6)


class TestGeometryValidation:
    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_separation(self, x):
        with pytest.raises(GeometryError):
            Geometry(x=x)

    def test_orientation_out_of_range(self):
        with pytest.raises(GeometryError):
            Geometry(x=1.0, mu_dot_r=1.5)

    @pytest.mark.parametrize(
        "x,mu_dot_r", [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan)]
    )
    def test_non_finite_rejected(self, x, mu_dot_r):
        with pytest.raises(GeometryError):
            Geometry(x=x, mu_dot_r=mu_dot_r)


class TestRatesFromGeometry:
    def test_bundles_scaled_rates(self):
        g = Geometry(x=math.pi / 6, mu_dot_r=0.0)
        rates = rates_from_geometry(g, gamma=1.0)
        assert rates.gamma == 1.0
        assert rates.gamma12 == pytest.approx(DAMPING_PI6, abs=1e-12)
        assert rates.omega12 == pytest.approx(SHIFT_PI6, abs=1e-12)

    def test_linear_in_gamma(self):
        g = Geometry(x=math.pi / 6, mu_dot_r=0.0)
        r2 = rates_from_geometry(g, gamma=2.0)
        assert r2.gamma12 == pytest.approx(2 * DAMPING_PI6, rel=1e-14)
        assert r2.omega12 == pytest.approx(2 * SHIFT_PI6, rel=1e-14)

    def test_independent_atom_limit(self):
        rates = rates_from_geometry(Geometry(x=200 * math.pi), gamma=1.0)
        assert abs(rates.gamma12) < 1e-2
        assert abs(rates.omega12) < 1e-2

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(GeometryError):
            rates_from_geometry(Geometry(x=1.0), gamma=0.0)

    @given(st.floats(0.01, 100.0), st.floats(-1.0, 1.0), st.floats(0.1, 10.0))
    def test_scaling_property(self, x, m, c):
        g = Geometry(x=x, mu_dot_r=m)
        base = rates_from_geometry(g, gamma=1.0)
        scaled = rates_from_geometry(g, gamma=c)
        assert scaled.gamma12 == pytest.approx(c * base.gamma12, rel=1e-12, abs=1e-12)
        assert scaled.omega12 == pytest.approx(c * base.omega12, rel=1e-12, abs=1e-12)


def test_damping_bounded_by_gamma(rng):
    xs = rng.uniform(0.01, 100.0, size=10_000)
    ms = rng.uniform(-1.0, 1.0, size=10_000)
    for x, m in zip(xs, ms):
        assert abs(collective_damping(Geometry(x=x, mu_dot_r=m))) <= 1.0 + 1e-12


def test_magic_angle_single_term(rng):
    # at mu_dot_r = 1/sqrt(3) the second bracket vanishes; compare against the
    # hand-reduced single-term expressions
    m = 1.0 / math.sqrt(3.0)
    for x in rng.uniform(0.05, 50.0, size=200):
        g = Geometry(x=float(x), mu_dot_r=m)
        assert collective_damping(g) == pytest.approx(
            math.sin(x) / x, rel=1e-10, abs=1e-10
        )
        assert dipole_dipole_shift(g) == pytest.approx(
            -math.cos(x) / (2.0 * x), rel=1e-10, abs=1e-10
        )
