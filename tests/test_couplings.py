import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from twoatom.couplings import (
    Geometry,
    GeometryError,
    X_MIN,
    X_SERIES,
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


def _damping_40_digits(x: float, mu_dot_r: float) -> float:
    with mpmath.workdps(40):
        x, m2 = mpmath.mpf(x), mpmath.mpf(mu_dot_r) ** 2
        near = mpmath.cos(x) / x ** 2 - mpmath.sin(x) / x ** 3
        return float(1.5 * ((1 - m2) * mpmath.sin(x) / x + (1 - 3 * m2) * near))


class TestSmallSeparations:
    """cos(x)/x^2 - sin(x)/x^3 cancels to -1/3 as x -> 0; below X_SERIES the
    damping sums its Taylor series instead of losing eps/x^2."""

    XS = np.concatenate(
        [np.geomspace(X_MIN, 10.0, 400), [math.nextafter(X_SERIES, 0.0), X_SERIES, 2e-6, 1e-5]]
    ).tolist()

    @pytest.mark.parametrize("mu_dot_r", [0.0, 1.0 / math.sqrt(3.0), 0.5, 1.0])
    def test_matches_40_digit_arithmetic(self, mu_dot_r):
        for x in self.XS:
            value = collective_damping(Geometry(x, mu_dot_r))
            assert abs(value - _damping_40_digits(x, mu_dot_r)) <= 1e-13, x
            assert value <= 1.0, x

    @pytest.mark.parametrize("mu_dot_r", [0.0, 0.3, 1.0])
    def test_continuous_at_the_series_threshold(self, mu_dot_r):
        below = collective_damping(Geometry(math.nextafter(X_SERIES, 0.0), mu_dot_r))
        assert abs(below - collective_damping(Geometry(X_SERIES, mu_dot_r))) <= 1e-14

    def test_formerly_above_gamma(self):
        # unsummed, the cancellation gives 1.0000019 > gamma here, which
        # AtomPairParams refuses
        assert collective_damping(Geometry(1e-5)) == pytest.approx(1.0 - 2e-11, abs=1e-15)


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
        rates = rates_from_geometry(g)
        assert rates == (collective_damping(g), dipole_dipole_shift(g))
        assert rates.gamma12 == pytest.approx(DAMPING_PI6, abs=1e-12)
        assert rates.omega12 == pytest.approx(SHIFT_PI6, abs=1e-12)

    def test_independent_atom_limit(self):
        rates = rates_from_geometry(Geometry(x=200 * math.pi))
        assert abs(rates.gamma12) < 1e-2
        assert abs(rates.omega12) < 1e-2

    @pytest.mark.parametrize("mu_dot_r", [0.0, 1.0])
    @pytest.mark.parametrize("x", [1e100, 1.0000001e100, 1e200, 1e308])
    def test_rates_vanish_at_huge_separations(self, x, mu_dot_r):
        # x ** 3 overflows beyond 5.6e102; the near-field terms are dropped
        # there, and the rates keep falling like 1/x
        rates = rates_from_geometry(Geometry(x=x, mu_dot_r=mu_dot_r))
        assert abs(rates.gamma12) <= 1.5 / x
        assert abs(rates.omega12) <= 0.75 / x



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
