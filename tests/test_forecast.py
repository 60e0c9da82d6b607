"""Forecasting tests: Monte-Carlo path against the exact pushes of the kernel."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from numpy.random import default_rng

from bdar import (
    Bdar1Params,
    CategoricalMarginal,
    CopulaSpec,
    TransitionKernel,
    exact_forecast_pmf,
    forecast,
    joint_conditional_pmf,
    stationary_joint_pmf,
)
from bdar.rng import substream
from oracles import dense_transition_matrix


class TestExactForecastPmf:
    def test_one_step_is_the_conditional(self, study_params):
        out = exact_forecast_pmf(study_params, (2, 1), 1)
        assert np.allclose(out[0], joint_conditional_pmf(study_params, 2, 1), atol=1e-15)

    def test_long_horizon_reaches_stationary(self, study_params):
        out = exact_forecast_pmf(study_params, (3, 2), 500)
        assert np.max(np.abs(out[-1] - stationary_joint_pmf(study_params))) <= 1e-8

    @pytest.mark.parametrize("family", ["gumbel", "frank"])
    @pytest.mark.parametrize("variant", ["m1", "m2", "m3", "m4", "m5"])
    def test_matches_dense_transition_powers(self, variant, family):
        # the anchor's row of the h-th power of the dense oracle matrix
        rng = substream(61, variant, family)
        for _ in range(3):
            d1, d2 = (int(d) for d in rng.integers(2, 6, size=2))
            m1, m2 = (CategoricalMarginal(tuple(rng.dirichlet(np.full(d, 2.0)))) for d in (d1, d2))
            phi1, phi2 = rng.uniform(0.0, 0.9, size=2)
            # Gumbel takes delta >= 1; Frank either sign
            sign = 1.0 if family == "gumbel" else rng.choice((-1.0, 1.0))
            delta_alpha, delta_eps = sign * rng.uniform(1.0, 8.0, size=2)
            p = Bdar1Params(
                variant, phi1, phi1 if variant == "m2" else phi2, m1, m2,
                copula_alpha=CopulaSpec(family, delta_alpha) if variant in ("m4", "m5") else None,
                copula_eps=CopulaSpec(family, delta_eps) if variant in ("m2", "m3", "m5") else None,
            )
            s, l = int(rng.integers(1, d1 + 1)), int(rng.integers(1, d2 + 1))
            matrix = dense_transition_matrix(p)
            for h, got in enumerate(exact_forecast_pmf(p, (s, l), 12), start=1):
                want = np.linalg.matrix_power(matrix, h)[(s - 1) * d2 + l - 1].reshape(d1, d2)
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_each_step_is_a_distribution(self, fixture_params):
        for step in exact_forecast_pmf(fixture_params, (2, 1), 12):
            assert step.min() >= -1e-15
            assert step.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_anchor(self, study_params):
        with pytest.raises(ValueError, match="outside"):
            exact_forecast_pmf(study_params, (0, 1), 3)

    def test_large_state_space(self):
        # 150 x 150 states: a dense transition matrix would take 4 GB
        w = 1.0 + np.arange(150) % 7
        p = Bdar1Params(
            variant="m5", phi1=0.5, phi2=0.3,
            m1=CategoricalMarginal(tuple(w / w.sum())),
            m2=CategoricalMarginal(tuple(w[::-1] / w.sum())),
            copula_alpha=CopulaSpec("frank", 4.0), copula_eps=CopulaSpec("frank", 3.0),
        )
        out = exact_forecast_pmf(p, (150, 1), 120)
        assert np.max(np.abs(out[-1] - stationary_joint_pmf(p))) <= 1e-15
        # one step is the (150, 1) slice of the dense tensor, built cell by cell
        mech, pe = TransitionKernel.from_params(p)[:2]
        want = mech[0, 0] * pe
        want[149, :] += mech[1, 0] * p.m2.as_array()
        want[:, 0] += mech[0, 1] * p.m1.as_array()
        want[149, 0] += mech[1, 1]
        assert np.max(np.abs(out[0] - want)) <= 1e-16
        assert np.max(np.abs(out[0] - joint_conditional_pmf(p, 150, 1))) <= 1e-16


class TestMonteCarloForecast:
    def test_memoryless_converges_to_innovation_table(self, study_params):
        p = Bdar1Params(
            variant="m5", phi1=0.0, phi2=0.0,
            m1=study_params.m1, m2=study_params.m2,
            copula_alpha=study_params.copula_alpha, copula_eps=study_params.copula_eps,
        )
        result = forecast(p, (1, 1), horizon=4, n_sims=100_000, rng=default_rng(5))
        table = TransitionKernel.from_params(p).pe
        for h in range(4):
            assert np.max(np.abs(result.joint[h] - table)) < 0.005

    def test_one_step_against_conditional(self, study_params):
        result = forecast(study_params, (2, 3), horizon=1, n_sims=200_000, rng=default_rng(6))
        exact = joint_conditional_pmf(study_params, 2, 3)
        assert np.max(np.abs(result.joint[0] - exact)) < 0.005

    def test_matches_exact_over_horizon(self, fixture_params):
        result = forecast(fixture_params, (2, 1), horizon=6, n_sims=100_000, rng=default_rng(7))
        exact = exact_forecast_pmf(fixture_params, (2, 1), 6)
        for h in range(6):
            assert np.max(np.abs(result.joint[h] - exact[h])) < 0.01

    def test_marginals_share_counts_with_joint(self, study_params):
        result = forecast(study_params, (1, 2), horizon=5, n_sims=3_000, rng=default_rng(8))
        assert np.allclose(result.joint.sum(axis=2), result.marginal1, atol=0)
        assert np.allclose(result.joint.sum(axis=1), result.marginal2, atol=0)
        assert np.allclose(result.marginal1.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(result.marginal2.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic_given_seed(self, study_params):
        a = forecast(study_params, (1, 1), horizon=3, n_sims=2_000, rng=default_rng(17))
        b = forecast(study_params, (1, 1), horizon=3, n_sims=2_000, rng=default_rng(17))
        assert np.array_equal(a.joint, b.joint)

    def test_modal_stability_across_seeds(self, fixture_params):
        a = forecast(fixture_params, (2, 1), horizon=12, n_sims=10_000, rng=default_rng(21))
        b = forecast(fixture_params, (2, 1), horizon=12, n_sims=10_000, rng=default_rng(22))
        for h in range(12):
            top_two = np.sort(a.marginal1[h])[-2:]
            if top_two[1] - top_two[0] > 0.03:
                assert a.modal1[h] == b.modal1[h]
            top_two = np.sort(a.marginal2[h])[-2:]
            if top_two[1] - top_two[0] > 0.03:
                assert a.modal2[h] == b.modal2[h]

    def test_monte_carlo_error_shrinks_like_root_n(self, study_params):
        exact = exact_forecast_pmf(study_params, (1, 1), 3)

        def err(n_sims, seed):
            result = forecast(study_params, (1, 1), horizon=3, n_sims=n_sims, rng=default_rng(seed))
            return max(np.max(np.abs(result.joint[h] - exact[h])) for h in range(3))

        assert err(1_000, 31) > err(100_000, 33) * 2

    def test_validation(self, study_params):
        rng = default_rng(0)
        with pytest.raises(ValueError, match="horizon"):
            forecast(study_params, (1, 1), horizon=0, n_sims=10, rng=rng)
        with pytest.raises(ValueError, match="n_sims"):
            forecast(study_params, (1, 1), horizon=1, n_sims=0, rng=rng)
        with pytest.raises(ValueError, match="outside"):
            forecast(study_params, (9, 1), horizon=1, n_sims=10, rng=rng)

    def test_joint_is_frozen(self, study_params):
        # sha256 computed with the plain searchsorted inverse-CDF draw
        result = forecast(study_params, (2, 3), 12, 5_000, substream(6, "golden-forecast"))
        digest = hashlib.sha256(result.joint.tobytes()).hexdigest()
        assert digest == "e0b56dd7c6a9a5d1e7af99c27d09d01f729675c8e158169aa206a16a338414f8"

    def test_accepts_generator(self, study_params):
        result = forecast(study_params, (1, 1), horizon=2, n_sims=500,
                          rng=default_rng(3))
        # the result holds no seed: run_forecast records the one it made the generator from
        assert "seed" not in result.to_json_dict()


class TestModalRules:
    def test_ties_break_to_lowest_state(self):
        # symmetric memoryless model: every joint cell is exactly 0.25 in
        # expectation; force exact ties with n_sims=4 impossible, so check
        # the argmax convention on the exact pmf instead
        p = Bdar1Params(
            variant="m1", phi1=0.0, phi2=0.0,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
        )
        exact = exact_forecast_pmf(p, (1, 1), 1)[0]
        assert np.all(exact == 0.25)
        # row-major argmax of a flat matrix is the lowest (z1, z2) pair
        flat_mode = int(np.argmax(exact.ravel()))
        assert flat_mode == 0

    def test_modal_fields_are_argmax(self, fixture_params):
        result = forecast(fixture_params, (2, 1), horizon=8, n_sims=5_000, rng=default_rng(41))
        for h in range(8):
            assert result.modal1[h] == int(np.argmax(result.marginal1[h])) + 1
            assert result.modal2[h] == int(np.argmax(result.marginal2[h])) + 1
            i, j = result.modal_joint[h]
            assert result.joint[h, i - 1, j - 1] == result.joint[h].max()

    def test_json_payload_shape(self, study_params):
        doc = forecast(study_params, (1, 1), horizon=2, n_sims=100, rng=default_rng(1)).to_json_dict()
        assert doc["horizon"] == 2
        assert len(doc["marginal1"]) == 2 and len(doc["marginal1"][0]) == 3
        assert len(doc["joint"]) == 2


def test_anchor_state_frequency_decays_monotonically(fixture_params):
    """From anchor (2, 1), the first series' state-2 share decays toward its
    stationary value and the heaviest stationary state's share grows."""
    exact = exact_forecast_pmf(fixture_params, (2, 1), 12)
    stationary = stationary_joint_pmf(fixture_params).sum(axis=1)
    share_state2 = [step.sum(axis=1)[1] for step in exact]
    assert all(a > b for a, b in zip(share_state2, share_state2[1:]))
    heavy = int(np.argmax(stationary))
    share_heavy = [step.sum(axis=1)[heavy] for step in exact]
    assert all(a < b for a, b in zip(share_heavy, share_heavy[1:]))
    mc = forecast(fixture_params, (2, 1), horizon=12, n_sims=100_000, rng=default_rng(51))
    assert np.max(np.abs(mc.marginal1[11] - exact[11].sum(axis=1))) < 0.01


def test_monte_carlo_forecast_peak_memory(random_params_factory):
    # 10^5 paths over 12 steps at 30 x 30 states: two 2-byte states per path,
    # a step's two codes and narrow temporaries per path, and one 8-byte
    # index per path while the states are counted (2.34 MB measured; 3.17 MB
    # with int64 states)
    params = random_params_factory(substream(62, "forecast-memory"), d1=30, d2=30, family="frank")
    forecast(params, (15, 15), 12, 1_000, substream(62, "warm"))
    tracemalloc.start()
    try:
        forecast(params, (15, 15), 12, 100_000, substream(62, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_500_000
