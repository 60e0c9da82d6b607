"""Copula CDF and rectangle-mass tests.

Frozen expected values were computed with a 50-digit mpmath evaluation of the
closed forms (independent of the float implementation under test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import CopulaSpec, copula_cdf
from bdar.copulas import (
    _FRANK_SERIES_DELTA,
    FRANK_INDEPENDENCE_TOL,
    _cdf_core,
    _cdf_with_partials,
)
from conftest import load_script
from oracles import rectangle_cells

cells_digests = load_script("tools/make_cells_digests.py")

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

    @pytest.mark.parametrize("family", ["product", "gumbel", "frank"])
    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_delta(self, family, delta):
        with pytest.raises(ValueError, match="must be finite"):
            CopulaSpec(family, delta)

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
    """Cell masses by inclusion-exclusion over ``copula_cdf``, the cells of
    the dense oracle in tests/oracles.py."""

    def test_product_rectangle_is_area(self):
        cells = rectangle_cells((0.4, 0.6), (0.25, 0.75), PRODUCT)
        assert np.max(np.abs(cells - np.outer((0.4, 0.6), (0.25, 0.75)))) <= 1e-15

    def test_total_mass_is_one(self):
        for spec in (PRODUCT, gumbel(3.0), frank(-7.0), None):
            assert rectangle_cells((0.2, 0.5, 0.3), (0.7, 0.3), spec).sum() == pytest.approx(1.0, abs=1e-14)

    def test_gumbel_frozen_corner_rectangle(self):
        # (0, 0.6] x (0, 0.75] has mass C(0.6, 0.75)
        got = copula_cdf(gumbel(2.0), 0.6, 0.75)
        assert got == pytest.approx(GUMBEL2_RECT_06_075, abs=1e-9)
        assert rectangle_cells((0.6, 0.4), (0.75, 0.25), gumbel(2.0))[0, 0] == pytest.approx(got, abs=1e-16)


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


def _partials(spec, u, v):
    """The (dC/du, dC/dv, dC/ddelta) part of ``_cdf_with_partials``."""
    return _cdf_with_partials(spec.family, spec.delta, u, v)[1:]


# sha256 of copula_cdf's values per spec (tools/make_cells_digests.py),
# taken while _cdf_core still had a family dispatch of its own
COPULA_CDF_SHA256 = {
    "frank 5e-09": "224c7691702e554363e94cbd5b7fc38bcbe1ec19deabf6690de0e0079082ddae",
    "frank -5e-09": "224c7691702e554363e94cbd5b7fc38bcbe1ec19deabf6690de0e0079082ddae",
    "frank 0.003": "16d91b95cd0218c54c2574843df5ca38d42dbad35201f12e1cb1ee2d3317fab3",
    "frank -0.003": "caac0b1402a16957243ea6cd98b59ecaa72b4ea2b52516857b3162f68be91ea6",
    "frank 0.4": "efaac17e621fd2009f071bb727eba3e85bf3ff6730da0be501deb8da241f0c89",
    "frank -0.4": "7ff2c8f65e6b6c959c1e798a558ac35bb16d11813e55047e0ffbd16e25d221e7",
    "frank 5.0": "af3d47fc34541b34ea1f74185b535866adb73fa6a74673230900c00f39e13744",
    "frank -5.0": "7f200cb901352ce2aa9a2e3a5252ef64c0ee8bd38261fef6fba939f73bcd2053",
    "frank 72000000000.0": "9f2e279316b613d2e08c1570654cb78a16ce765063519824349dc0eb92a8a700",
    "frank -72000000000.0": "c9dad2c927ecc9bc739e9a56f51c880a7c5c6afc8905065beefe1b4be22e5731",
    "gumbel 1.0": "224c7691702e554363e94cbd5b7fc38bcbe1ec19deabf6690de0e0079082ddae",
    "gumbel 1.000000000001": "556b60ae065aaaa903976dc3b28f84ebea865a5fce45311aeadbbe7b072f66c2",
    "gumbel 2.5": "2c2da4c2931358e43c8982aab7df2e8f995883dce31083a671732f0fa0e7ce2f",
    "gumbel 72000000000.0": "627de472f80bdfbdd540ed63fc4d8cb5216c0ca14277e59c4f4e2e1198a730cd",
    "product 0.0": "224c7691702e554363e94cbd5b7fc38bcbe1ec19deabf6690de0e0079082ddae",
}


class TestCdfPartials:
    @pytest.mark.parametrize("spec", cells_digests.COPULA_SPECS)
    def test_value_is_cdf_core_bit_for_bit(self, spec):
        # _cdf_core's values, the edges 0, 1, 1e-300, 1e-17 and 1 - 2^-53
        # included, are bit for bit those of its former arithmetic
        assert cells_digests.copula_cdf_digest(spec) == COPULA_CDF_SHA256[cells_digests.label(spec)]

    @pytest.mark.parametrize("family, delta, du, dv, dd", PARTIALS_AT_03_07)
    def test_frozen_values(self, family, delta, du, dv, dd):
        got = _partials(CopulaSpec(family, delta), np.float64(0.3), np.float64(0.7))
        assert [float(g) for g in got] == pytest.approx([du, dv, dd], rel=1e-11)

    def test_product(self):
        du, dv, dd = _partials(PRODUCT, np.float64(0.3), np.float64(0.7))
        assert (float(du), float(dv), float(dd)) == (0.7, 0.3, 0.0)

    def test_frank_negative_delta_at_tiny_v(self):
        # 1 - v rounds to 1 in the reflection; the partials are the v -> 0
        # limits, and the log(0) on the way is expected
        spec = frank(-4.0)
        with np.errstate(divide="ignore"):
            tiny = _partials(spec, np.float64(0.3), np.float64(1e-17))
        near = _partials(spec, np.float64(0.3), np.float64(1e-15))
        for a, b in zip(tiny, near):
            assert np.isfinite(a) and abs(float(a) - float(b)) <= 1e-12

    # the independence band stands in for its delta -> 0 limit, an O(delta)
    # step; the series and the Euler form are the same function
    @pytest.mark.parametrize("edge, tol", [(FRANK_INDEPENDENCE_TOL, 1e-8), (_FRANK_SERIES_DELTA, 1e-9)])
    def test_frank_continuous_across_branches(self, edge, tol):
        uu, vv = np.meshgrid(np.linspace(0.05, 0.95, 7), np.linspace(0.05, 0.95, 5))
        for sign in (1.0, -1.0):
            below = _partials(frank(sign * edge * (1 - 1e-9)), uu, vv)
            above = _partials(frank(sign * edge * (1 + 1e-9)), uu, vv)
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
        got = [float(g) for g in _partials(spec, np.float64(u), np.float64(v))]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-7)
