"""Joint table construction and sampling tests."""

import numpy as np
import pytest

from bdar import (
    CategoricalMarginal,
    CopulaSpec,
    MechanismTable,
    bernoulli_joint,
    innovation_joint,
    sample_joint,
)

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

    def test_cdf_ends_at_exactly_one(self):
        # 0.1 accumulates drift over many sums; the last entry is forced.
        m = CategoricalMarginal((0.1,) * 10)
        assert m.cdf()[-1] == 1.0


class TestBernoulliJoint:
    def test_product_cells(self):
        t = bernoulli_joint(0.4, 0.25, PRODUCT)
        assert t.pi[1, 1] == pytest.approx(0.10, abs=1e-15)
        assert t.pi[1, 0] == pytest.approx(0.30, abs=1e-15)
        assert t.pi[0, 1] == pytest.approx(0.15, abs=1e-15)
        assert t.pi[0, 0] == pytest.approx(0.45, abs=1e-15)

    def test_degenerate_margins(self):
        t = bernoulli_joint(0.0, 0.0, GUMBEL2)
        assert t.pi[0, 0] == 1.0
        assert t.pi[0, 1] == t.pi[1, 0] == t.pi[1, 1] == 0.0

    def test_gumbel_frozen_cells(self):
        t = bernoulli_joint(0.4, 0.25, GUMBEL2)
        assert t.pi[0, 0] == pytest.approx(PI_00, abs=1e-9)
        assert t.pi[0, 1] == pytest.approx(PI_01, abs=1e-9)
        assert t.pi[1, 0] == pytest.approx(PI_10, abs=1e-9)
        assert t.pi[1, 1] == pytest.approx(PI_11, abs=1e-9)

    def test_rejects_phi_at_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            bernoulli_joint(1.0, 0.5, PRODUCT)

    def test_margins_recovered_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            phi1, phi2 = rng.random(2) * 0.999
            spec = CopulaSpec("frank", rng.uniform(-20, 20))
            t = bernoulli_joint(phi1, phi2, spec)
            assert t.pi[1].sum() == pytest.approx(phi1, abs=1e-12)
            assert t.pi[:, 1].sum() == pytest.approx(phi2, abs=1e-12)
            assert t.pi.sum() == pytest.approx(1.0, abs=1e-12)


class TestInnovationJoint:
    def test_product_is_outer_product(self):
        m1 = CategoricalMarginal((0.5, 0.5))
        m2 = CategoricalMarginal((0.5, 0.5))
        t = innovation_joint(m1, m2, PRODUCT)
        assert np.allclose(t.p, 0.25, atol=1e-15)

    def test_outer_product_general(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        t = innovation_joint(m1, m2, PRODUCT)
        assert np.max(np.abs(t.p - np.outer(m1.as_array(), m2.as_array()))) <= 1e-12

    def test_gumbel_margins_reproduced(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        t = innovation_joint(m1, m2, GUMBEL2)
        assert np.max(np.abs(t.p.sum(axis=1) - m1.as_array())) <= 1e-10
        assert np.max(np.abs(t.p.sum(axis=0) - m2.as_array())) <= 1e-10

    def test_frank_independence_limit(self):
        m1 = CategoricalMarginal((0.3, 0.7))
        m2 = CategoricalMarginal((0.3, 0.7))
        t = innovation_joint(m1, m2, CopulaSpec("frank", 1e-12))
        assert np.max(np.abs(t.p - np.outer(m1.as_array(), m2.as_array()))) <= 1e-6

    def test_random_marginals_total_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d1, d2 = rng.integers(2, 6, size=2)
            p1 = rng.dirichlet(np.ones(d1)) + 1e-3
            p2 = rng.dirichlet(np.ones(d2)) + 1e-3
            m1 = CategoricalMarginal(tuple(p1 / p1.sum()))
            m2 = CategoricalMarginal(tuple(p2 / p2.sum()))
            spec = CopulaSpec("frank", rng.uniform(-15, 15))
            t = innovation_joint(m1, m2, spec)
            assert t.p.min() >= 0.0
            assert t.p.sum() == pytest.approx(1.0, abs=1e-10)


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
        dependent = innovation_joint(m1, m2, CopulaSpec("frank", 6.0))
        independent = innovation_joint(m1, m2, PRODUCT)
        assert _concordance(dependent.p) >= _concordance(independent.p) - 1e-12


class TestSampling:
    def test_degenerate_table_always_same_cell(self):
        table = bernoulli_joint(0.0, 0.0, PRODUCT)  # all mass at (0, 0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_joint(table.pi, rng) == (0, 0)

    def test_same_seed_same_draws(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        table = innovation_joint(m1, m2, GUMBEL2)
        a = sample_joint(table.p, np.random.default_rng(99), size=1000)
        b = sample_joint(table.p, np.random.default_rng(99), size=1000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_law_of_large_numbers(self):
        m1 = CategoricalMarginal((0.15, 0.6, 0.25))
        m2 = CategoricalMarginal((0.2, 0.3, 0.5))
        table = innovation_joint(m1, m2, GUMBEL2)
        n = 10**6
        i, j = sample_joint(table.p, np.random.default_rng(123), size=n)
        freq = np.bincount(i * 3 + j, minlength=9).reshape(3, 3) / n
        bound = 3.0 * np.sqrt(table.p * (1.0 - table.p) / n)
        assert np.all(np.abs(freq - table.p) <= bound + 1e-12)

    def test_mechanism_states_are_binary(self):
        table = bernoulli_joint(0.4, 0.25, GUMBEL2)
        i, j = sample_joint(table.pi, np.random.default_rng(4), size=500)
        assert set(np.unique(i)) <= {0, 1} and set(np.unique(j)) <= {0, 1}


def test_mechanism_table_validates_margins():
    with pytest.raises(ValueError, match="phi1"):
        MechanismTable(pi=np.array([[0.5, 0.0], [0.0, 0.5]]), phi1=0.4, phi2=0.5)
