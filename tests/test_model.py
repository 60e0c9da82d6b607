"""Process-level tests: conditional/stationary pmfs, moments, simulation.

Monte-Carlo oracles run at moderate sizes here with pinned seeds; the full
criterion-sized versions live in test_acceptance.py.
"""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import (
    Bdar1Params,
    BivariateOrdinalSeries,
    CategoricalMarginal,
    CopulaSpec,
    TransitionKernel,
    Transitions,
    conditional_loglik,
    cross_moments,
    dar1_conditional_pmf,
    dar1_simulate,
    exact_forecast_pmf,
    forecast,
    joint_conditional_pmf,
    simulate,
    stationary_joint_pmf,
    transition_tensor,
)
from bdar.joint import _BLOCK, _draw_cells, sample_joint
from bdar.rng import substream


def m2_params(phi, m1, m2, delta_eps=3.0):
    return Bdar1Params(
        variant="m2", phi1=phi, phi2=phi, m1=m1, m2=m2,
        copula_eps=CopulaSpec("frank", delta_eps),
    )


class TestParams:
    def test_m1_forces_product_copulas(self):
        p = Bdar1Params(
            variant="m1", phi1=0.3, phi2=0.4,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
        )
        assert p.copula_alpha.family.value == "product"
        assert p.copula_eps.family.value == "product"

    def test_m1_rejects_parametric_copula(self):
        with pytest.raises(ValueError, match="product"):
            Bdar1Params(
                variant="m1", phi1=0.3, phi2=0.4,
                m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
                copula_eps=CopulaSpec("frank", 2.0),
            )

    def test_m2_requires_equal_phi(self):
        with pytest.raises(ValueError, match="phi1 must equal phi2"):
            Bdar1Params(
                variant="m2", phi1=0.3, phi2=0.4,
                m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
                copula_eps=CopulaSpec("frank", 2.0),
            )

    def test_m2_mechanism_is_comonotone(self):
        p = m2_params(0.7, CategoricalMarginal((0.5, 0.5)), CategoricalMarginal((0.5, 0.5)))
        mech = TransitionKernel.from_params(p).mech
        assert mech[1, 1] == 0.7 and mech[0, 0] == pytest.approx(0.3)
        assert mech[0, 1] == mech[1, 0] == 0.0

    def test_phi_stationarity_bound(self):
        with pytest.raises(ValueError, match="stationary"):
            Bdar1Params(
                variant="m1", phi1=1.0, phi2=0.4,
                m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
            )

    def test_json_round_trip(self, study_params):
        again = Bdar1Params.from_json_dict(study_params.to_json_dict())
        assert again.variant == study_params.variant
        assert again.phi1 == study_params.phi1
        assert again.m1.probs == study_params.m1.probs
        assert again.copula_alpha == study_params.copula_alpha


class TestSeries:
    def test_validates_state_range(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            BivariateOrdinalSeries(np.array([1, 3]), np.array([1, 2]), 2, 2)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            BivariateOrdinalSeries(np.array([1]), np.array([1]), 2, 2)

    def test_from_sequences_infers_sizes(self):
        s = BivariateOrdinalSeries.from_sequences([1, 2, 3], [1, 1, 2])
        assert (s.d1, s.d2) == (3, 2)


class TestDar1ConditionalPmf:
    def test_phi_zero_returns_marginal(self):
        m = CategoricalMarginal((0.2, 0.3, 0.5))
        assert np.allclose(dar1_conditional_pmf(0.0, m, 2), m.as_array())

    def test_half_and_half(self):
        out = dar1_conditional_pmf(0.5, CategoricalMarginal((0.2, 0.8)), 1)
        assert np.allclose(out, [0.6, 0.4])

    def test_high_persistence_value(self):
        m = CategoricalMarginal((0.143, 0.164, 0.270, 0.423))
        out = dar1_conditional_pmf(0.857, m, 3)
        assert out[2] == pytest.approx(0.857 + 0.143 * 0.270, abs=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_state_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            dar1_conditional_pmf(0.5, CategoricalMarginal((0.5, 0.5)), 3)


class TestJointConditionalPmf:
    def test_no_persistence_gives_innovation_table(self, study_params):
        p = Bdar1Params(
            variant="m5", phi1=0.0, phi2=0.0,
            m1=study_params.m1, m2=study_params.m2,
            copula_alpha=study_params.copula_alpha, copula_eps=study_params.copula_eps,
        )
        table = TransitionKernel.from_params(p).pe
        for prev in ((1, 1), (2, 3), (3, 2)):
            assert np.allclose(joint_conditional_pmf(p, *prev), table, atol=1e-15)

    def test_persistence_limit_concentrates_on_previous(self):
        p = m2_params(1 - 1e-9, CategoricalMarginal((0.2, 0.3, 0.5)),
                      CategoricalMarginal((0.2, 0.3, 0.5)))
        out = joint_conditional_pmf(p, 2, 3)
        assert out[1, 2] == pytest.approx(1.0, abs=1e-8)

    def test_matches_recursion_monte_carlo(self, study_params):
        # One-step transition frequencies from the defining recursion.
        n = 200_000
        rng = substream(77, "one-step")
        from bdar.joint import sample_joint

        kernel = TransitionKernel.from_params(study_params)
        a1, a2 = sample_joint(kernel.mech, rng, size=n)
        e1, e2 = sample_joint(kernel.pe, rng, size=n)
        e1, e2 = e1 + 1, e2 + 1
        s, l = 1, 1
        z1 = a1 * s + (1 - a1) * e1
        z2 = a2 * l + (1 - a2) * e2
        freq = np.bincount((z1 - 1) * 3 + (z2 - 1), minlength=9).reshape(3, 3) / n
        assert np.max(np.abs(freq - joint_conditional_pmf(study_params, s, l))) < 0.01

    def test_rows_sum_to_one_and_marginalize(self, random_params_factory):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_params_factory(rng)
            tensor = transition_tensor(p)
            sums = tensor.sum(axis=(2, 3))
            assert np.max(np.abs(sums - 1.0)) <= 1e-10
            # marginalizing the joint conditional over the second series
            # recovers the univariate keep-or-innovate conditional
            for s in range(1, p.d1 + 1):
                for l in range(1, p.d2 + 1):
                    joint = joint_conditional_pmf(p, s, l)
                    uni = dar1_conditional_pmf(p.phi1, p.m1, s)
                    assert np.max(np.abs(joint.sum(axis=1) - uni)) <= 1e-10
                    uni2 = dar1_conditional_pmf(p.phi2, p.m2, l)
                    assert np.max(np.abs(joint.sum(axis=0) - uni2)) <= 1e-10

    def test_tensor_matches_single_conditionals(self, study_params):
        tensor = transition_tensor(study_params)
        for s in (1, 2, 3):
            for l in (1, 2, 3):
                assert np.allclose(
                    tensor[s - 1, l - 1], joint_conditional_pmf(study_params, s, l), atol=1e-15
                )


@st.composite
def _kernel_cases(draw):
    """Any variant, either family, d up to 6, keep rates up to 0.95."""
    variant = draw(st.sampled_from(["m1", "m2", "m3", "m4", "m5"]))

    def marginal():
        w = [draw(st.floats(0.05, 1.0)) for _ in range(draw(st.integers(2, 6)))]
        return CategoricalMarginal(tuple(np.asarray(w) / sum(w)))

    def copula():
        if draw(st.booleans()):
            return CopulaSpec("gumbel", draw(st.floats(1.0, 30.0)))
        return CopulaSpec("frank", draw(st.floats(-30.0, 30.0)))

    phi1 = draw(st.floats(0.0, 0.95))
    phi2 = phi1 if variant == "m2" else draw(st.floats(0.0, 0.95))
    return Bdar1Params(
        variant=variant, phi1=phi1, phi2=phi2, m1=marginal(), m2=marginal(),
        copula_alpha=copula() if variant in ("m4", "m5") else None,
        copula_eps=copula() if variant in ("m2", "m3", "m5") else None,
    ), draw(st.integers(0, 2**32 - 1))


class TestTransitionKernel:
    """The O(d1 d2) kernel against the dense transition tensor."""

    @given(case=_kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracles(self, case):
        p, seed = case
        rng = np.random.default_rng(seed)
        kernel = TransitionKernel.from_params(p)
        n_states = p.d1 * p.d2
        tensor = transition_tensor(p)

        dist = rng.dirichlet(np.ones(n_states)).reshape(p.d1, p.d2)
        want = (dist.ravel() @ tensor.reshape(n_states, n_states)).reshape(p.d1, p.d2)
        assert np.max(np.abs(kernel.push(dist) - want)) <= 1e-14

        counts = rng.integers(0, 3, size=(2, 2, p.d1, p.d2)).astype(float)
        obs = Transitions.from_counts(counts)
        r1, r2 = obs.keep1.astype(int), obs.keep2.astype(int)
        assert np.array_equal(obs.weights, counts[r1, r2, obs.i, obs.j])
        assert obs.weights.sum() == counts.sum()
        assert np.array_equal(obs.both, obs.keep1 * obs.keep2)
        # a previous pair with each cell's repeat pattern
        s = np.where(r1 == 1, obs.i, (obs.i + 1) % p.d1)
        l = np.where(r2 == 1, obs.j, (obs.j + 1) % p.d2)
        with np.errstate(divide="ignore"):
            want_log = np.log(tensor[s, l, obs.i, obs.j])
        assert np.allclose(kernel.log_prob(obs), want_log, rtol=0.0, atol=1e-13)

        series = simulate(p, 60, substream(seed, "kernel-oracle"))
        z1, z2 = series.z1, series.z2
        want_ll = math.fsum(
            math.log(joint_conditional_pmf(p, z1[t - 1], z2[t - 1])[z1[t] - 1, z2[t] - 1])
            for t in range(1, series.n)
        )
        assert conditional_loglik(p, series) == pytest.approx(want_ll, rel=1e-12, abs=1e-12)

    def test_stationary_is_fixed_point_of_push(self, random_params_factory):
        rng = np.random.default_rng(37)
        for family in ("gumbel", "frank"):
            for _ in range(25):
                d1, d2 = rng.integers(2, 7, size=2)
                p = random_params_factory(rng, d1=int(d1), d2=int(d2), family=family)
                stat = stationary_joint_pmf(p)
                assert np.max(np.abs(TransitionKernel.from_params(p).push(stat) - stat)) <= 1e-15

    def test_marginal_whose_cdf_overshoots_one(self, study_params):
        # the sum is within PROB_SUM_TOL of 1, but F(2) = 1 + 2e-11: that grid
        # point lies on the edge u = 1, so no cell is NaN and the third
        # state's innovation row is empty
        m1 = CategoricalMarginal((0.5, 0.50000000002, 1e-11))
        assert np.cumsum(m1.probs)[1] > 1.0
        p = dataclasses.replace(study_params, m1=m1)
        kernel = TransitionKernel.from_params(p)
        assert np.all(np.isfinite(kernel.pe)) and not kernel.pe[2].any()
        assert np.all(np.isfinite(stationary_joint_pmf(p)))
        assert all(np.all(np.isfinite(pmf)) for pmf in exact_forecast_pmf(p, (3, 1), 4))
        series = simulate(p, 300, substream(17, "overshoot"))
        assert np.isfinite(conditional_loglik(p, series))
        result = forecast(p, (3, 1), 4, 200, substream(17, "overshoot-forecast"))
        assert np.all(np.isfinite(result.joint))

    @pytest.mark.parametrize("delta", [-4.0, -7e10])
    def test_first_probability_below_double_resolution(self, delta):
        # F(1) = 1e-17: the Frank value and the reflection of its partials
        # pass through log(0) at that grid point; the build warns nothing
        m = CategoricalMarginal((1e-17, 0.4, 0.6 - 1e-17))
        p = Bdar1Params("m3", 0.3, 0.2, m, m, copula_eps=CopulaSpec("frank", delta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = TransitionKernel.from_params(p)
        assert kernel.pe.min() >= 0.0 and kernel.pe.sum() == pytest.approx(1.0, abs=1e-15)

    def test_sample_follows_the_kernel(self, study_params):
        kernel = TransitionKernel.from_params(study_params)
        n = 200_000
        i, j = kernel.sample(np.full(n, 1), np.full(n, 2), substream(5, "kernel-sample"))
        freq = np.bincount(i * 3 + j, minlength=9).reshape(3, 3) / n
        want = joint_conditional_pmf(study_params, 2, 3)
        assert np.all(np.abs(freq - want) <= 4.0 * np.sqrt(want * (1.0 - want) / n) + 1e-12)


class TestStationaryJointPmf:
    def test_m1_is_outer_product(self):
        p = Bdar1Params(
            variant="m1", phi1=0.6, phi2=0.3,
            m1=CategoricalMarginal((0.15, 0.6, 0.25)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
        )
        outer = np.outer(p.m1.as_array(), p.m2.as_array())
        assert np.max(np.abs(stationary_joint_pmf(p) - outer)) <= 1e-12

    def test_m2_equals_innovation_table(self):
        p = m2_params(0.8, CategoricalMarginal((0.15, 0.6, 0.25)),
                      CategoricalMarginal((0.2, 0.3, 0.5)), delta_eps=8.0)
        pe = TransitionKernel.from_params(p).pe
        assert np.max(np.abs(stationary_joint_pmf(p) - pe)) <= 1e-12

    def test_margins_match_innovation_marginals(self, random_params_factory):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = random_params_factory(rng, family="frank")
            stat = stationary_joint_pmf(p)
            assert np.max(np.abs(stat.sum(axis=1) - p.m1.as_array())) <= 1e-10
            assert np.max(np.abs(stat.sum(axis=0) - p.m2.as_array())) <= 1e-10

    def test_is_fixed_point_of_transition_operator(self, random_params_factory):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_params_factory(rng)
            stat = stationary_joint_pmf(p)
            tensor = transition_tensor(p)
            pushed = np.einsum("sl,slij->ij", stat, tensor)
            assert np.max(np.abs(pushed - stat)) <= 1e-8

    def test_matches_long_simulation(self, study_params):
        s = simulate(study_params, 300_000, substream(17, "stationary"))
        freq = np.bincount((s.z1 - 1) * 3 + (s.z2 - 1), minlength=9).reshape(3, 3) / s.n
        assert np.max(np.abs(freq - stationary_joint_pmf(study_params))) < 0.005


class TestCrossMoments:
    def test_m1_lag0_cross_covariance_is_zero(self):
        p = Bdar1Params(
            variant="m1", phi1=0.6, phi2=0.3,
            m1=CategoricalMarginal((0.15, 0.6, 0.25)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
        )
        assert cross_moments(p, 3).gamma(0)[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_geometric_decay_by_construction(self, study_params):
        cm = cross_moments(study_params, 10)
        for k in range(1, 11):
            assert cm.gamma(k)[0, 0] == pytest.approx(
                study_params.phi1**k * cm.gamma(0)[0, 0], abs=1e-12
            )
            assert cm.gamma(k)[0, 1] == pytest.approx(
                study_params.phi1 * cm.gamma(k - 1)[0, 1], abs=1e-12
            )
            assert cm.gamma(k)[1, 0] == pytest.approx(
                study_params.phi2 * cm.gamma(k - 1)[1, 0], abs=1e-12
            )

    def test_unit_diagonal_correlation_at_lag0(self, study_params):
        rho0 = cross_moments(study_params, 1).rho(0)
        assert rho0[0, 0] == 1.0 and rho0[1, 1] == 1.0

    def test_against_sample_cross_correlations(self, study_params):
        cm = cross_moments(study_params, 3)
        s = simulate(study_params, 200_000, substream(23, "xcorr"))
        z1 = s.z1.astype(float)
        z2 = s.z2.astype(float)
        for k in (0, 1, 2):
            got = np.corrcoef(z1[k:], z2[: len(z2) - k])[0, 1]
            assert got == pytest.approx(cm.rho(k)[0, 1], abs=0.02)

    def test_custom_state_values(self, study_params):
        cm = cross_moments(study_params, 1, values1=(10.0, 20.0, 30.0))
        default = cross_moments(study_params, 1)
        assert cm.mu1 == pytest.approx(10.0 * default.mu1)
        # correlations are scale invariant
        assert cm.rho(1)[0, 1] == pytest.approx(default.rho(1)[0, 1], abs=1e-12)

    def test_rejects_negative_lag(self, study_params):
        with pytest.raises(ValueError, match=">= 0"):
            cross_moments(study_params, -1)


class TestSimulate:
    def test_no_persistence_is_iid_innovations(self, study_params):
        p = Bdar1Params(
            variant="m5", phi1=0.0, phi2=0.0,
            m1=study_params.m1, m2=study_params.m2,
            copula_alpha=study_params.copula_alpha, copula_eps=study_params.copula_eps,
        )
        s = simulate(p, 100_000, substream(3, "iid"))
        # lag-1 independence: joint frequency of consecutive pairs factorizes
        for z in (s.z1, s.z2):
            corr = np.corrcoef(z[1:], z[:-1])[0, 1]
            assert abs(corr) < 0.01

    def test_m2_run_lengths(self):
        p = m2_params(0.99, CategoricalMarginal((1 / 3,) * 3), CategoricalMarginal((1 / 3,) * 3),
                      delta_eps=1e-9)
        s = simulate(p, 1000, substream(8, "runs"))
        pair_changes = (s.z1[1:] != s.z1[:-1]) | (s.z2[1:] != s.z2[:-1])
        n_runs = 1 + int(pair_changes.sum())
        mean_run = s.n / n_runs
        # keep probability 0.99 gives mean run length ~1/(1-phi) = 100
        # (slightly longer since innovations can repeat the same pair)
        assert 80 <= mean_run <= 160

    def test_same_seed_same_path(self, study_params):
        a = simulate(study_params, 500, substream(12, "det"))
        b = simulate(study_params, 500, substream(12, "det"))
        assert np.array_equal(a.z1, b.z1) and np.array_equal(a.z2, b.z2)

    def test_fixed_init_and_burn_in(self, study_params):
        s = simulate(study_params, 100, substream(1, "init"), burn_in=0, init=(2, 3))
        assert (s.z1[0], s.z2[0]) == (2, 3)
        assert s.n == 100

    def test_transition_frequencies_shrink_with_length(self, study_params):
        # chi-square style distance to the exact conditional decreases in T
        tensor = transition_tensor(study_params)

        def distance(T, key):
            s = simulate(study_params, T, substream(31, key))
            counts = np.zeros((3, 3, 3, 3))
            np.add.at(counts, (s.z1[:-1] - 1, s.z2[:-1] - 1, s.z1[1:] - 1, s.z2[1:] - 1), 1.0)
            anchor_totals = counts.sum(axis=(2, 3), keepdims=True)
            freq = counts / np.maximum(anchor_totals, 1.0)
            return float(np.max(np.abs(freq - tensor)))

        assert distance(100_000, "big") < distance(1_000, "small")

    def test_stationary_start_builds_one_kernel(self, study_params, monkeypatch):
        built = []
        from_params = TransitionKernel.from_params

        def counting(params):
            built.append(params)
            return from_params(params)

        monkeypatch.setattr(TransitionKernel, "from_params", counting)
        simulate(study_params, 50, substream(2, "one-kernel"))
        assert len(built) == 1

    # sha256 of z1.tobytes() + z2.tobytes(), computed with the plain
    # searchsorted inverse-CDF draw: any faster draw must give the same paths
    def test_study_path_is_frozen(self, study_params):
        s = simulate(study_params, 10_000, substream(6, "golden-path"))
        digest = hashlib.sha256(s.z1.tobytes() + s.z2.tobytes()).hexdigest()
        assert digest == "15d2689c591d1ac09327f0bbb48143389d6dc15a0ed7656fc451f2c614f0ed8b"

    def test_frank_8x8_path_from_fixed_init_is_frozen(self):
        p = Bdar1Params(
            variant="m5", phi1=0.3, phi2=0.55,
            m1=CategoricalMarginal((0.05, 0.1, 0.2, 0.15, 0.1, 0.2, 0.12, 0.08)),
            m2=CategoricalMarginal((0.3, 0.1, 0.05, 0.05, 0.1, 0.15, 0.1, 0.15)),
            copula_alpha=CopulaSpec("frank", 4.0), copula_eps=CopulaSpec("frank", -3.0),
        )
        s = simulate(p, 10_000, substream(6, "golden-path"), init=(3, 5))
        digest = hashlib.sha256(s.z1.tobytes() + s.z2.tobytes()).hexdigest()
        assert digest == "2220e4ef7eafa1a390e3d3e23c62aed37b469952007c2ed4bc44cec67021f2f8"


class TestDar1Simulate:
    def test_phi_zero_iid(self):
        m = CategoricalMarginal((0.2, 0.3, 0.5))
        z = dar1_simulate(0.0, m, 50_000, substream(2, "dar-iid"))
        assert abs(np.corrcoef(z[1:], z[:-1])[0, 1]) < 0.015

    def test_marginal_matches_innovation_distribution(self):
        m = CategoricalMarginal((0.2, 0.3, 0.5))
        z = dar1_simulate(0.6, m, 100_000, substream(5, "dar-marg"))
        freq = np.bincount(z - 1, minlength=3) / len(z)
        assert np.max(np.abs(freq - m.as_array())) < 0.01

    def test_lag1_autocorrelation_near_phi(self):
        m = CategoricalMarginal((0.2, 0.3, 0.5))
        z = dar1_simulate(0.6, m, 100_000, substream(6, "dar-acf"))
        rho1 = np.corrcoef(z[1:], z[:-1])[0, 1]
        assert rho1 == pytest.approx(0.6, abs=0.03)

    def test_deterministic(self):
        m = CategoricalMarginal((0.5, 0.5))
        a = dar1_simulate(0.4, m, 200, substream(9, "dar-det"))
        b = dar1_simulate(0.4, m, 200, substream(9, "dar-det"))
        assert np.array_equal(a, b)


def _plain_draws(cells, rng, n):
    """Row-major cell codes by the plain inverse-CDF search, one uniform each."""
    cum = np.cumsum(np.asarray(cells, dtype=float).ravel())
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(n), side="right")


def _carry_forward_loop(init, keeps, fresh):
    """z_0 = init, then the previous state where kept and the fresh one elsewhere."""
    path = [init]
    for keep, value in zip(keeps, fresh):
        path.append(path[-1] if keep else value)
    return np.array(path)


def _reference_simulate(params, length, rng, burn_in=None, init=None):
    """``simulate`` by the plain search and a loop per step over the same stream."""
    kernel = TransitionKernel.from_params(params)
    if init is None:
        burn = 0 if burn_in is None else burn_in
        init1, init2 = divmod(int(_plain_draws(kernel.stationary(), rng, 1)[0]), params.d2)
    else:
        burn = 100 if burn_in is None else burn_in
        init1, init2 = init[0] - 1, init[1] - 1
    n = length + burn - 1
    a1, a2 = np.divmod(_plain_draws(kernel.mech, rng, n), 2)
    e1, e2 = np.divmod(_plain_draws(kernel.pe, rng, n), params.d2)
    z1 = _carry_forward_loop(init1, a1.tolist(), e1.tolist()) + 1
    z2 = _carry_forward_loop(init2, a2.tolist(), e2.tolist()) + 1
    return z1[burn:], z2[burn:]


def _reference_dar1_simulate(phi, marginal, length, rng, burn_in=None, init=None):
    """``dar1_simulate`` by the plain search and a loop per step over the same stream."""
    if init is None:
        burn = 0 if burn_in is None else burn_in
        init = int(_plain_draws(marginal.probs, rng, 1)[0]) + 1
    else:
        burn = 100 if burn_in is None else burn_in
    n = length + burn - 1
    keeps = (rng.random(n) < phi).tolist()
    fresh = (_plain_draws(marginal.probs, rng, n) + 1).tolist()
    return _carry_forward_loop(init, keeps, fresh)[burn:]


# lengths around the block edges of the draws and of the carry-forward
_EDGE_LENGTHS = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


class TestBlockEdges:
    """Blocked draws and carry-forward against one plain search over the
    whole stream and a loop per step."""

    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    @pytest.mark.parametrize("params_name, init, burn_in", [
        ("study_params", None, None),
        ("fixture_params", (2, 3), None),
        ("study_params", None, 7),
        ("fixture_params", (4, 1), 0),
    ])
    def test_simulate_matches_reference(self, request, params_name, init, burn_in, length):
        params = request.getfixturevalue(params_name)
        key = (params_name, str(init), str(burn_in), length)
        got = simulate(params, length, substream(95, *key), burn_in=burn_in, init=init)
        want1, want2 = _reference_simulate(
            params, length, substream(95, *key), burn_in=burn_in, init=init
        )
        assert got.z1.dtype == got.z2.dtype == np.int64
        assert np.array_equal(got.z1, want1) and np.array_equal(got.z2, want2)

    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    @pytest.mark.parametrize("init, burn_in", [(None, None), (2, None), (None, 3), (1, 0)])
    def test_dar1_simulate_matches_reference(self, init, burn_in, length):
        m = CategoricalMarginal((0.2, 0.3, 0.5))
        key = (str(init), str(burn_in), length)
        got = dar1_simulate(0.45, m, length, substream(96, *key), burn_in=burn_in, init=init)
        want = _reference_dar1_simulate(0.45, m, length, substream(96, *key), burn_in=burn_in, init=init)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("shape, dtype", [((2, 2), np.uint8), ((16, 16), np.uint8),
                                              ((17, 16), np.uint16), ((30, 30), np.uint16)])
    def test_draw_cells_over_several_blocks(self, shape, dtype):
        rng = substream(97, *shape)
        cells = rng.random(shape)
        cells[rng.random(shape) < 0.2] = 0.0
        cells /= cells.sum()
        n = 3 * _BLOCK + 5
        codes = _draw_cells(cells, substream(98, *shape), n)
        assert codes.dtype == dtype
        assert np.array_equal(codes, _plain_draws(cells, substream(98, *shape), n))

    def test_sample_joint_returns_intp(self, study_params):
        cells = TransitionKernel.from_params(study_params).pe
        rows, cols = sample_joint(cells, substream(99, "intp"), size=_BLOCK + 1)
        assert rows.dtype == cols.dtype == np.intp
        codes = _plain_draws(cells, substream(99, "intp"), _BLOCK + 1)
        assert np.array_equal(rows * 3 + cols, codes)
        row, col = sample_joint(cells, substream(99, "intp"))
        assert type(row) is int and type(col) is int and row * 3 + col == codes[0]


def test_simulate_peak_memory_is_near_its_output(study_params):
    # the returned int64 states are 16 bytes per step; the draws and the
    # carry-forward add about 2 bytes per step plus blocks of fixed size
    simulate(study_params, 1000, substream(91, "warm"))
    tracemalloc.start()
    try:
        s = simulate(study_params, 200_000, substream(91, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (s.z1.nbytes + s.z2.nbytes)


_FRANK_M5 = Bdar1Params(
    variant="m5", phi1=0.3, phi2=0.45,
    m1=CategoricalMarginal((0.2, 0.5, 0.3)), m2=CategoricalMarginal((0.35, 0.4, 0.25)),
    copula_alpha=CopulaSpec("frank", 4.0), copula_eps=CopulaSpec("frank", -5.0),
)


@pytest.mark.parametrize("params_name", ["study_params", "frank_m5"])
def test_long_path_matches_stationary_pmf_and_cross_moments(request, params_name):
    """The paper's properties on one path of 10^6 steps: the stationary joint
    pmf and the lag-0/1/2 (cross-)correlations of ``cross_moments``.

    The pair chain's transition operator has eigenvalues 1, phi1, phi2 and
    the both-keep mass, so the lag-h correlations of any function of the pair
    fall at least as fast as lam^h, lam = max(phi1, phi2). The bands are 4.5
    standard errors of a binomial frequency (or of a correlation, 1/sqrt(n))
    widened by the integrated autocorrelation (1 + lam) / (1 - lam), and by
    a further 2 for a cross-correlation, whose variance sums the product of
    both series' autocorrelations and that of both cross-correlations."""
    params = _FRANK_M5 if params_name == "frank_m5" else request.getfixturevalue(params_name)
    n = 10**6
    s = simulate(params, n, substream(92, params_name))
    lam = max(params.phi1, params.phi2)
    inflation = (1.0 + lam) / (1.0 - lam)

    pmf = TransitionKernel.from_params(params).stationary()
    freq = np.bincount((s.z1 - 1) * params.d2 + (s.z2 - 1), minlength=pmf.size) / n
    band = 4.5 * np.sqrt(pmf.ravel() * (1.0 - pmf.ravel()) * inflation / n)
    assert np.all(np.abs(freq - pmf.ravel()) <= band)

    rho = cross_moments(params, 2).rhos
    z = (s.z1.astype(float), s.z2.astype(float))
    band = 4.5 * np.sqrt(2.0 * inflation / n)
    for k in (0, 1, 2):
        for r in (0, 1):
            for c in (0, 1):
                if k == 0 and r == c:
                    continue
                got = np.corrcoef(z[r][k:], z[c][:n - k])[0, 1]
                assert abs(got - rho[k, r, c]) <= band, (k, r, c)
