"""Mechanism and innovation cell construction and sampling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import Bdar1Params, CategoricalMarginal, CopulaSpec, TransitionKernel, Variant, sample_joint
from bdar.copulas import FRANK_INDEPENDENCE_TOL, _cdf_with_partials
from bdar.joint import (
    _MAX_BUCKETS,
    PROB_SUM_TOL,
    _cell_table,
    _draw_cells,
    _innovation_cells,
    _innovation_cells_vjp,
    _mechanism_cells,
)
from bdar.model import _FREE_SCALARS
from conftest import load_script

cells_digests = load_script("tools/make_cells_digests.py")

PRODUCT = CopulaSpec("product")
GUMBEL2 = CopulaSpec("gumbel", 2.0)

# 50-digit oracle values for phi1=0.4, phi2=0.25 under the Gumbel(2) coupling.
PI_00 = 0.55640292444159055
PI_01 = 0.04359707555840945
PI_10 = 0.19359707555840945
PI_11 = 0.20640292444159055


class TestCategoricalMarginal:
    def test_rejects_zero_probability_state(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            CategoricalMarginal((0.0, 1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            CategoricalMarginal((0.5, 0.6))

    def test_rejects_single_state(self):
        with pytest.raises(ValueError, match="at least 2"):
            CategoricalMarginal((1.0,))


def _innovation(m1: CategoricalMarginal, m2: CategoricalMarginal, spec: CopulaSpec) -> np.ndarray:
    return _innovation_cells(m1.as_array(), m2.as_array(), spec.family, spec.delta)[0]


def _mechanism(phi1: float, phi2: float, spec: CopulaSpec) -> np.ndarray:
    return _mechanism_cells(phi1, phi2, spec.family, spec.delta)[0]


class TestBernoulliJoint:
    def test_product_cells(self):
        pi = _mechanism(0.4, 0.25, PRODUCT)
        assert pi[1, 1] == pytest.approx(0.10, abs=1e-15)
        assert pi[1, 0] == pytest.approx(0.30, abs=1e-15)
        assert pi[0, 1] == pytest.approx(0.15, abs=1e-15)
        assert pi[0, 0] == pytest.approx(0.45, abs=1e-15)

    def test_degenerate_margins(self):
        pi = _mechanism(0.0, 0.0, GUMBEL2)
        assert pi[0, 0] == 1.0
        assert pi[0, 1] == pi[1, 0] == pi[1, 1] == 0.0

    def test_gumbel_frozen_cells(self):
        pi = _mechanism(0.4, 0.25, GUMBEL2)
        assert pi[0, 0] == pytest.approx(PI_00, abs=1e-9)
        assert pi[0, 1] == pytest.approx(PI_01, abs=1e-9)
        assert pi[1, 0] == pytest.approx(PI_10, abs=1e-9)
        assert pi[1, 1] == pytest.approx(PI_11, abs=1e-9)

    def test_margins_recovered_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            phi1, phi2 = rng.random(2) * 0.999
            spec = CopulaSpec("frank", rng.uniform(-20, 20))
            pi = _mechanism(phi1, phi2, spec)
            assert pi[1].sum() == pytest.approx(phi1, abs=1e-12)
            assert pi[:, 1].sum() == pytest.approx(phi2, abs=1e-12)
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)


# sha256 of TransitionKernel.from_params cells, mech then pe, per group of
# seeded random parameters (tools/make_cells_digests.py), taken while the
# kernel still had value-only cell builders
KERNEL_CELLS_SHA256 = {
    "m1 product": "71b71d8a6af77e3974eef06fa81a25345f0634970bd4535b5ccabbe468acb29f",
    "m2 gumbel": "2cb42902844209bea4fc3109114a75001c961bdff594d55f5933f49a96438d4e",
    "m2 frank": "7bd2cdc8dda1e7aaf13fc8080eda3ac91d967ddcfc812e42ff50a1c882815a67",
    "m3 gumbel": "0bd723b43ec248ec2866d8ed4e9d05729dbf6eb66f5a2ba16ac87599c2061745",
    "m3 frank": "c1c5f56063c8495dd2d498a4841965ef4eb225264a1e8becba960267351dd4cf",
    "m4 gumbel": "3599a7916649a1d9d2a26e22dbf422274427d6c9a76258f3ef3c6444921e881b",
    "m4 frank": "bf443b65f6c009c3310b28114424b751953a8a793ea384e7bf59ee62a0797d6a",
    "m5 gumbel": "bbf8ebe8ea5fdc42d377e91e36834830f8174e97d3e331369c7e54107fea548f",
    "m5 frank": "68392658b3934e4dc1e39a69ce1cbad26185fd72c5455a23276878e90060532d",
}


def test_kernel_cells_match_frozen_digests():
    assert cells_digests.kernel_cells_digests() == KERNEL_CELLS_SHA256


class TestInnovationJoint:
    def test_product_is_outer_product(self):
        m1 = CategoricalMarginal((0.5, 0.5))
        m2 = CategoricalMarginal((0.5, 0.5))
        assert np.allclose(_innovation(m1, m2, PRODUCT), 0.25, atol=1e-15)

    def test_outer_product_general(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, PRODUCT)
        assert np.max(np.abs(pe - np.outer(m1.as_array(), m2.as_array()))) <= 1e-12

    def test_gumbel_margins_reproduced(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, GUMBEL2)
        assert np.max(np.abs(pe.sum(axis=1) - m1.as_array())) <= 1e-10
        assert np.max(np.abs(pe.sum(axis=0) - m2.as_array())) <= 1e-10

    def test_frank_independence_limit(self):
        m1 = CategoricalMarginal((0.3, 0.7))
        m2 = CategoricalMarginal((0.3, 0.7))
        pe = _innovation(m1, m2, CopulaSpec("frank", 1e-12))
        assert np.max(np.abs(pe - np.outer(m1.as_array(), m2.as_array()))) <= 1e-6

    @pytest.mark.parametrize("spec", [GUMBEL2, CopulaSpec("frank", -4.0)])
    def test_cdf_rounds_to_one_before_the_last_state(self, spec):
        # 0.6 + 0.4 is exactly 1, so F(2) = 1 for the 3-state margin: its
        # grid is the 2-state margin's with the edge point repeated, on
        # either axis
        p3, p2, q = np.array([0.6, 0.4, 1e-17]), np.array([0.6, 0.4]), np.array([0.2, 0.3, 0.5])
        assert np.cumsum(p3)[1] == 1.0

        def cells(a, b):
            return _innovation_cells(a, b, spec.family, spec.delta)

        rows, row_partials = cells(p3, q)
        cols, col_partials = cells(q, p3)
        assert np.array_equal(rows[:2], cells(p2, q)[0]) and not rows[2].any()
        assert np.array_equal(cols[:, :2], cells(q, p2)[0]) and not cols[:, 2].any()
        # finite partials: a NaN would poison the gradient even where its
        # weight is 0
        for partials in (row_partials, col_partials):
            pulled = _innovation_cells_vjp(partials, np.ones((3, 3)))
            assert all(np.all(np.isfinite(a)) for a in (*partials, *pulled))

    def test_random_marginals_total_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d1, d2 = rng.integers(2, 6, size=2)
            p1 = rng.dirichlet(np.ones(d1)) + 1e-3
            p2 = rng.dirichlet(np.ones(d2)) + 1e-3
            m1 = CategoricalMarginal(tuple(p1 / p1.sum()))
            m2 = CategoricalMarginal(tuple(p2 / p2.sum()))
            spec = CopulaSpec("frank", rng.uniform(-15, 15))
            pe = _innovation(m1, m2, spec)
            assert pe.min() >= 0.0
            assert pe.sum() == pytest.approx(1.0, abs=1e-10)


# Frank delta on each branch of _cdf_with_partials: the independence band,
# (0, 1) and [1, 7e10] on the positive side, and the reflected negative
# side, out to the optimizer's bound
_FRANK_DELTAS = st.one_of(
    st.floats(-FRANK_INDEPENDENCE_TOL, FRANK_INDEPENDENCE_TOL, exclude_min=True, exclude_max=True),
    st.floats(FRANK_INDEPENDENCE_TOL, 1.0, exclude_max=True),
    st.floats(1.0, 7e10),
    st.floats(-7e10, -FRANK_INDEPENDENCE_TOL),
)
_COPULAS = st.one_of(
    st.just(PRODUCT),
    st.builds(CopulaSpec, st.just("gumbel"), st.floats(1.0, 7e10)),
    st.builds(CopulaSpec, st.just("frank"), _FRANK_DELTAS),
)


@st.composite
def _marginals(draw):
    """Probabilities of 2 to 6 states; half of them have F(d - 1) exactly 1
    (multiples of 1/64 and a last probability of 1e-17), which sends the
    innovation cells down their edge path."""
    d = draw(st.integers(2, 6))
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=d - 2, max_size=d - 2, unique=True)))
        return np.append(np.diff([0, *cuts, 64]) / 64.0, 1e-17)
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    return w / w.sum()


class TestValuesOnlyCells:
    @given(
        variant=st.sampled_from(list(Variant)),
        alpha=_COPULAS,
        eps=_COPULAS,
        p1=_marginals(),
        p2=_marginals(),
        phi=st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
    )
    @settings(max_examples=400, deadline=None)
    def test_kernel_cells_equal_the_partials_path_bit_for_bit(self, variant, alpha, eps, p1, p2, phi):
        free = _FREE_SCALARS[variant]
        phi1, phi2 = (phi[0], phi[0]) if "phi" in free else phi
        params = Bdar1Params(
            variant, phi1, phi2, CategoricalMarginal(p1), CategoricalMarginal(p2),
            alpha if "delta_alpha" in free else None, eps if "delta_eps" in free else None,
        )
        kernel = TransitionKernel.from_params(params)
        a, e = params.copula_alpha, params.copula_eps
        u = np.array([1e-17, 1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-12])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mech = _mechanism_cells(phi1, phi2, *((None, 0.0) if a is None else (a.family, a.delta)))[0]
            pe = _innovation_cells(kernel.p1, kernel.p2, e.family, e.delta)[0]
            for spec in filter(None, (a, e)):
                grid = (spec.family, spec.delta, u[:, None], u[None, :])
                values_only = _cdf_with_partials(*grid, values_only=True)
                assert len(values_only) == 1
                assert values_only[0].tobytes() == _cdf_with_partials(*grid)[0].tobytes()
        assert kernel.mech.tobytes() == mech.tobytes()
        assert kernel.pe.tobytes() == pe.tobytes()


def _concordance(p: np.ndarray) -> float:
    """Brute-force concordance: sum over cell pairs of p_ij p_kl sign((i-k)(j-l))."""
    d1, d2 = p.shape
    total = 0.0
    for i in range(d1):
        for j in range(d2):
            for k in range(d1):
                for l in range(d2):
                    total += p[i, j] * p[k, l] * np.sign((i - k) * (j - l))
    return total


def test_frank_positive_dependence_orders_concordance():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p1 = rng.dirichlet(np.ones(3)) + 0.05
        p2 = rng.dirichlet(np.ones(3)) + 0.05
        m1 = CategoricalMarginal(tuple(p1 / p1.sum()))
        m2 = CategoricalMarginal(tuple(p2 / p2.sum()))
        dependent = _innovation(m1, m2, CopulaSpec("frank", 6.0))
        independent = _innovation(m1, m2, PRODUCT)
        assert _concordance(dependent) >= _concordance(independent) - 1e-12


@st.composite
def _pmf_cells(draw):
    """Cell tables from 1x2 up to 30x30 (2x2 often), with zero cells, runs
    of cells below 1e-12 that share one guide bucket, or one dominant first
    or last cell."""
    d1, d2 = draw(st.one_of(
        st.just((2, 2)),
        st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda s: s[0] * s[1] >= 2),
    ))
    n = d1 * d2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(n)
    if draw(st.booleans()):
        w[rng.random(n) < draw(st.floats(0.1, 0.9))] = 0.0
    if draw(st.booleans()):
        start = int(rng.integers(0, n))
        w[start:start + int(rng.integers(1, n + 1))] = 1e-13 * rng.random()
    dominant = draw(st.sampled_from([None, 0, -1]))
    if dominant is not None:
        w[dominant] = 1e6 * (1.0 + w.sum())
    if w.sum() == 0.0:
        w[-1] = 1.0
    return (w / w.sum()).reshape(d1, d2), draw(st.integers(0, 2**32 - 1))


class _ScriptedRng:
    """Stands in for a Generator whose ``random(size)`` calls return given
    uniforms in turn."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, size):
        out = self.u[self.used:self.used + size].copy()
        assert len(out) == size
        self.used += size
        return out


def _assert_draws_equal_the_plain_search(cells, seed):
    """Codes of the table that ``_cell_table`` builds against the plain
    search, on the first and last uniform of every bucket, on and beside
    every step of the cumulative sum, inside every crossed bucket, and on
    random uniforms. Returns the table's entries."""
    table = _cell_table(cells)
    lookup = table[1]
    m = len(lookup)
    assert m & (m - 1) == 0  # the exactness of u * m rests on it
    cum = np.cumsum(cells.ravel())
    cum[-1] = 1.0
    crossed = np.flatnonzero(lookup == np.iinfo(lookup.dtype).max)
    rng = np.random.default_rng(seed)
    u = np.concatenate([
        np.arange(m) / m,
        np.arange(1, m + 1) / m - 2.0**-53,
        cum,
        np.nextafter(cum, -np.inf),
        np.nextafter(cum, np.inf),
        (crossed + rng.random(len(crossed))) / m,
        rng.random(500),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    scripted = _ScriptedRng(u)
    codes = _draw_cells(table, scripted, len(u))
    assert scripted.used == len(u)
    assert codes.dtype == np.min_scalar_type(cells.size - 1)
    assert np.array_equal(codes, np.searchsorted(cum, u, side="right"))
    return lookup


def _every_bucket_crossed():
    # the largest table, with one step in the middle of each bucket
    m = _MAX_BUCKETS
    cells = np.full(m + 1, 1.0 / m)
    cells[0] = cells[-1] = 0.5 / m
    return cells.reshape(1, -1)


_EDGE_CELLS = {
    "zero-mass-cells": lambda: np.array([[0.0, 0.25, 0.0], [0.0, 0.75, 0.0]]),
    "masses-near-1e-300": lambda: np.array([[1e-300, 3e-300, 0.5], [5e-324, 0.5, 1e-300]]),
    # cum[-2] lies above 1 by less than PROB_SUM_TOL, and cum[-1] is forced to 1
    "last-step-above-one": lambda: np.array([[0.25, 0.75 + 0.5 * PROB_SUM_TOL], [1e-3, 0.0]]),
    # 256 cells: code 255 is the sentinel's value, and half the mass is on it
    "code-equal-to-the-sentinel": lambda: np.concatenate([np.full(255, 0.5 / 255), [0.5]]).reshape(16, 16),
    "every-bucket-crossed": _every_bucket_crossed,
}


class TestSampling:
    @given(case=_pmf_cells())
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_the_plain_search(self, case):
        cells, seed = case
        d2 = cells.shape[1]
        _assert_draws_equal_the_plain_search(cells, seed)

        cum = np.cumsum(cells.ravel())
        cum[-1] = 1.0
        single = sample_joint(cells, np.random.default_rng(seed))
        plain = np.divmod(np.searchsorted(cum, np.random.default_rng(seed).random(), side="right"), d2)
        assert single == tuple(int(x) for x in plain)

    @pytest.mark.parametrize("name", list(_EDGE_CELLS))
    def test_edge_tables_draw_like_the_plain_search(self, name):
        cells = _EDGE_CELLS[name]()
        lookup = _assert_draws_equal_the_plain_search(cells, 7)
        sentinel = np.iinfo(lookup.dtype).max
        if name == "every-bucket-crossed":
            assert np.all(lookup == sentinel)
        elif name == "code-equal-to-the-sentinel":
            assert np.mean(lookup == sentinel) >= 0.5
        else:
            assert len(lookup) == 1 << (64 * cells.size - 1).bit_length()

    def test_degenerate_table_always_same_cell(self):
        pi = _mechanism(0.0, 0.0, PRODUCT)  # all mass at (0, 0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_joint(pi, rng) == (0, 0)

    def test_same_seed_same_draws(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, GUMBEL2)
        a = _draw_cells(_cell_table(pe), np.random.default_rng(99), 1000)
        b = _draw_cells(_cell_table(pe), np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, GUMBEL2)
        n = 10**6
        codes = _draw_cells(_cell_table(pe), np.random.default_rng(123), n)  # 3 * i + j
        freq = np.bincount(codes, minlength=9).reshape(3, 3) / n
        bound = 3.0 * np.sqrt(pe * (1.0 - pe) / n)
        assert np.all(np.abs(freq - pe) <= bound + 1e-12)

    def test_mechanism_states_are_binary(self):
        pi = _mechanism(0.4, 0.25, GUMBEL2)
        i, j = np.divmod(_draw_cells(_cell_table(pi), np.random.default_rng(4), 500), 2)
        assert set(np.unique(i)) <= {0, 1} and set(np.unique(j)) <= {0, 1}
