"""Copula CDF and rectangle-mass tests.

Frozen expected values were computed with a 50-digit mpmath evaluation of the
closed forms (independent of the float implementation under test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import CopulaFamily, CopulaSpec, copula_cdf, rectangle_mass
from bdar.copulas import (
    _FRANK_SERIES_DELTA,
    FRANK_INDEPENDENCE_TOL,
    _cdf_core,
    _cdf_partials,
)

GUMBEL2_AT_HALF = 0.37521422724648177
FRANK5_AT_HALF = 0.37714851074652086
GUMBEL2_RECT_06_075 = 0.55640292444159055


def gumbel(delta):
    return CopulaSpec("gumbel", delta)


def frank(delta):
    return CopulaSpec("frank", delta)


PRODUCT = CopulaSpec("product")


class TestSpecValidation:
    def test_product_ignores_delta(self):
        assert CopulaSpec("product", 7.3).delta == 0.0

    def test_gumbel_rejects_delta_below_one(self):
        with pytest.raises(ValueError, match="delta >= 1"):
            gumbel(0.99)

    def test_frank_near_zero_is_independence_limit(self):
        spec = frank(1e-12)
        u, v = 0.37, 0.81
        assert copula_cdf(spec, u, v) == pytest.approx(u * v, abs=1e-12)

    def test_json_round_trip(self):
        spec = frank(-3.5)
        assert CopulaSpec.from_json_dict(spec.to_json_dict()) == spec


class TestCopulaCdf:
    def test_gumbel_delta_one_reduces_to_product(self):
        assert copula_cdf(gumbel(1.0), 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    def test_uniform_margin_boundary(self):
        for spec in (PRODUCT, gumbel(2.0), frank(5.0), frank(-4.0)):
            assert copula_cdf(spec, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_gumbel_frozen_value(self):
        assert copula_cdf(gumbel(2.0), 0.5, 0.5) == pytest.approx(GUMBEL2_AT_HALF, abs=1e-5)

    def test_frank_frozen_value(self):
        assert copula_cdf(frank(5.0), 0.5, 0.5) == pytest.approx(FRANK5_AT_HALF, abs=1e-5)

    def test_rejects_coordinates_outside_unit_square(self):
        with pytest.raises(ValueError, match="outside"):
            copula_cdf(PRODUCT, -0.01, 0.5)
        with pytest.raises(ValueError, match="outside"):
            copula_cdf(gumbel(2.0), 0.5, 1.0 + 1e-9)

    def test_clamps_tiny_overshoot(self):
        assert copula_cdf(PRODUCT, 1.0 + 1e-13, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        spec = frank(3.0)
        u = np.linspace(0.05, 0.95, 7)
        v = np.linspace(0.9, 0.1, 7)
        grid = copula_cdf(spec, u, v)
        for k in range(7):
            assert grid[k] == pytest.approx(copula_cdf(spec, u[k], v[k]), abs=1e-15)


class TestRectangleMass:
    def test_product_rectangle_is_area(self):
        assert rectangle_mass(PRODUCT, 0.0, 0.4, 0.0, 0.25) == pytest.approx(0.10, abs=1e-15)

    def test_total_mass_is_one(self):
        for spec in (PRODUCT, gumbel(3.0), frank(-7.0)):
            assert rectangle_mass(spec, 0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_gumbel_frozen_corner_rectangle(self):
        got = rectangle_mass(gumbel(2.0), 0.0, 0.6, 0.0, 0.75)
        assert got == pytest.approx(GUMBEL2_RECT_06_075, abs=1e-9)

    def test_rejects_unordered_endpoints(self):
        with pytest.raises(ValueError, match="out of order"):
            rectangle_mass(PRODUCT, 0.6, 0.4, 0.0, 1.0)


SPECS = st.one_of(
    st.just(PRODUCT),
    st.floats(1.0, 40.0).map(gumbel),
    st.floats(0.01, 40.0).map(frank),
    st.floats(-40.0, -0.01).map(frank),
)
UNIT = st.floats(0.0, 1.0)


@given(spec=SPECS, u=UNIT, v=UNIT)
@settings(max_examples=300, deadline=None)
def test_boundary_conditions_property(spec, u, v):
    assert abs(copula_cdf(spec, u, 0.0)) <= 1e-12
    assert abs(copula_cdf(spec, 0.0, v)) <= 1e-12
    assert copula_cdf(spec, u, 1.0) == pytest.approx(u, abs=1e-12)
    assert copula_cdf(spec, 1.0, v) == pytest.approx(v, abs=1e-12)
    assert 0.0 <= copula_cdf(spec, u, v) <= 1.0 + 1e-12


@given(
    spec=SPECS,
    u=st.tuples(UNIT, UNIT).map(sorted),
    v=st.tuples(UNIT, UNIT).map(sorted),
)
@settings(max_examples=300, deadline=None)
def test_two_increasing_property(spec, u, v):
    raw = (
        copula_cdf(spec, u[1], v[1])
        - copula_cdf(spec, u[0], v[1])
        - copula_cdf(spec, u[1], v[0])
        + copula_cdf(spec, u[0], v[0])
    )
    assert raw >= -1e-12
    assert rectangle_mass(spec, u[0], u[1], v[0], v[1]) >= 0.0


@given(spec=SPECS, u=UNIT, v=UNIT)
@settings(max_examples=200, deadline=None)
def test_symmetry_property(spec, u, v):
    assert copula_cdf(spec, u, v) == pytest.approx(copula_cdf(spec, v, u), abs=1e-12)


def _grid(n=100):
    x = np.linspace(0.0, 1.0, n)
    return x[:, None], x[None, :]


def test_gumbel_delta_one_equals_product_on_grid():
    uu, vv = _grid()
    diff = copula_cdf(gumbel(1.0), uu, vv) - uu * vv
    assert np.max(np.abs(diff)) <= 1e-12


def test_frank_independence_limit_on_grid():
    uu, vv = _grid()
    diff = copula_cdf(frank(1e-8), uu, vv) - uu * vv
    assert np.max(np.abs(diff)) <= 1e-6


def test_frank_positive_delta_dominates_product():
    uu, vv = _grid()
    assert np.all(copula_cdf(frank(4.0), uu, vv) >= uu * vv - 1e-12)


def test_grid_masses_partition_unit_square():
    rng = np.random.default_rng(20)
    for spec in (PRODUCT, gumbel(2.5), frank(6.0), frank(-3.0)):
        for _ in range(50):
            bu = np.sort(np.concatenate([[0.0, 1.0], rng.random(4)]))
            bv = np.sort(np.concatenate([[0.0, 1.0], rng.random(3)]))
            grid = copula_cdf(spec, bu[:, None], bv[None, :])
            cells = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
            assert cells.min() >= -1e-12
            assert cells.sum() == pytest.approx(1.0, abs=1e-10)


def test_frank_large_delta_against_slow_reference():
    # High-precision reference for the cancellation-prone regime.
    from mpmath import expm1 as mp_expm1
    from mpmath import log as mp_log
    from mpmath import mp, mpf

    for delta in (28.4, 80.0, -60.0):
        mp.dps = 80 + int(abs(delta))
        spec = frank(delta)
        for u, v in ((0.5, 0.5), (0.9, 0.85), (0.13, 0.77)):
            d = mpf(float(delta))
            want = float(-mp_log(1 + (mp_expm1(-d * u) * mp_expm1(-d * v)) / mp_expm1(-d)) / d)
            assert copula_cdf(spec, u, v) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("delta", [s * 10.0**e for e in (-8, -7, -5, -3, -1, -0.05) for s in (1, -1)])
def test_frank_near_independence_against_slow_reference(delta):
    # 1e-8 <= |delta| < 1: a form whose logs cancel to an O(delta) value
    # would be off by ~1e-16/|delta| here
    from mpmath import expm1 as mp_expm1
    from mpmath import log as mp_log
    from mpmath import mp, mpf

    mp.dps = 50
    d = mpf(delta)
    for u, v in ((0.3, 0.7), (0.05, 0.9), (0.5, 0.5), (0.99, 0.01), (1e-3, 0.2)):
        want = float(-mp_log(1 + mp_expm1(-d * u) * mp_expm1(-d * v) / mp_expm1(-d)) / d)
        assert abs(copula_cdf(frank(delta), u, v) - want) <= 2e-16


# (family, delta, dC/du, dC/dv, dC/ddelta) at (u, v) = (0.3, 0.7), from a
# 50-digit mpmath differentiation of the closed forms
PARTIALS_AT_03_07 = [
    ("frank", 5.0, 0.90219189042460858, 0.097808109575391416, 0.0067239940498256328),
    ("frank", -3.0, 0.59657317140998263, 0.40342682859001737, 0.018955961462300277),
    ("frank", 0.02, 0.70084072517148517, 0.29915927482851483, 0.022026137558085448),
    ("frank", 1e-4, 0.70000420001819965, 0.29999579998180035, 0.022049882391433601),
    ("gumbel", 2.0, 0.91048038647545552, 0.11559784394154602, 0.025079038415729412),
    ("gumbel", 1.0 + 1e-9, 0.70000000040557237, 0.29999999980884957, 0.17616129122697434),
]


class TestCdfPartials:
    @pytest.mark.parametrize("family, delta, du, dv, dd", PARTIALS_AT_03_07)
    def test_frozen_values(self, family, delta, du, dv, dd):
        got = _cdf_partials(CopulaSpec(family, delta), np.float64(0.3), np.float64(0.7))
        assert [float(g) for g in got] == pytest.approx([du, dv, dd], rel=1e-11)

    def test_product(self):
        du, dv, dd = _cdf_partials(PRODUCT, np.float64(0.3), np.float64(0.7))
        assert (float(du), float(dv), float(dd)) == (0.7, 0.3, 0.0)

    def test_frank_negative_delta_at_tiny_v(self):
        # 1 - v rounds to 1 in the reflection; the partials are the v -> 0 limits
        spec = frank(-4.0)
        tiny = _cdf_partials(spec, np.float64(0.3), np.float64(1e-17))
        near = _cdf_partials(spec, np.float64(0.3), np.float64(1e-15))
        for a, b in zip(tiny, near):
            assert np.isfinite(a) and abs(float(a) - float(b)) <= 1e-12

    # the independence band stands in for its delta -> 0 limit, an O(delta)
    # step; the series and the Euler form are the same function
    @pytest.mark.parametrize("edge, tol", [(FRANK_INDEPENDENCE_TOL, 1e-8), (_FRANK_SERIES_DELTA, 1e-9)])
    def test_frank_continuous_across_branches(self, edge, tol):
        uu, vv = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 5))
        for sign in (1.0, -1.0):
            below = _cdf_partials(frank(sign * edge * (1 - 1e-9)), uu, vv)
            above = _cdf_partials(frank(sign * edge * (1 + 1e-9)), uu, vv)
            for a, b in zip(below, above):
                assert np.max(np.abs(a - b)) <= tol

    @given(
        spec=st.one_of(
            st.floats(1.001, 40.0).map(gumbel),
            st.floats(0.1, 40.0).map(frank),
            st.floats(-40.0, -0.1).map(frank),
        ),
        u=st.floats(0.02, 0.98),
        v=st.floats(0.02, 0.98),
    )
    @settings(max_examples=300, deadline=None)
    def test_match_central_differences(self, spec, u, v):
        h = 1e-6

        def cdf(uu, vv, delta=spec.delta):
            return float(_cdf_core(CopulaSpec(spec.family, delta), np.float64(uu), np.float64(vv)))

        want = [
            (cdf(u + h, v) - cdf(u - h, v)) / (2 * h),
            (cdf(u, v + h) - cdf(u, v - h)) / (2 * h),
            (cdf(u, v, spec.delta + h) - cdf(u, v, spec.delta - h)) / (2 * h),
        ]
        got = [float(g) for g in _cdf_partials(spec, np.float64(u), np.float64(v))]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-7)
