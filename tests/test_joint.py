"""Mechanism and innovation cell construction and sampling tests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import CategoricalMarginal, CopulaSpec, sample_joint
from bdar.joint import _innovation_cells, _innovation_cells_vjp, _mechanism_cells

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_cells_digests.py"
_spec = importlib.util.spec_from_file_location("make_cells_digests", _TOOL)
cells_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cells_digests)

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
    """Stands in for a Generator whose ``random(size)`` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


class TestSampling:
    @given(case=_pmf_cells())
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_the_plain_search(self, case):
        cells, seed = case
        d2 = cells.shape[1]
        cum = np.cumsum(cells.ravel())
        cum[-1] = 1.0
        m = 1 << (8 * cum.size - 1).bit_length()
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            np.arange(m) / m,
            cum,
            np.nextafter(cum, -np.inf),
            np.nextafter(cum, np.inf),
            np.random.default_rng(seed).random(500),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        rows, cols = sample_joint(cells, _ScriptedRng(u), size=len(u))
        want_rows, want_cols = np.divmod(np.searchsorted(cum, u, side="right"), d2)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

        single = sample_joint(cells, np.random.default_rng(seed))
        first = sample_joint(cells, np.random.default_rng(seed), size=1)
        assert single == (first[0][0], first[1][0])
        plain = np.divmod(np.searchsorted(cum, np.random.default_rng(seed).random(), side="right"), d2)
        assert single == tuple(int(x) for x in plain)

    def test_degenerate_table_always_same_cell(self):
        pi = _mechanism(0.0, 0.0, PRODUCT)  # all mass at (0, 0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_joint(pi, rng) == (0, 0)

    def test_same_seed_same_draws(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, GUMBEL2)
        a = sample_joint(pe, np.random.default_rng(99), size=1000)
        b = sample_joint(pe, np.random.default_rng(99), size=1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_law_of_large_numbers(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        pe = _innovation(m1, m2, GUMBEL2)
        n = 10**6
        i, j = sample_joint(pe, np.random.default_rng(123), size=n)
        freq = np.bincount(i * 3 + j, minlength=9).reshape(3, 3) / n
        bound = 3.0 * np.sqrt(pe * (1.0 - pe) / n)
        assert np.all(np.abs(freq - pe) <= bound + 1e-12)

    def test_mechanism_states_are_binary(self):
        pi = _mechanism(0.4, 0.25, GUMBEL2)
        i, j = sample_joint(pi, np.random.default_rng(4), size=500)
        assert set(np.unique(i)) <= {0, 1} and set(np.unique(j)) <= {0, 1}
