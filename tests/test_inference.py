"""Likelihood, fitting, and model-comparison tests."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from scipy import optimize

from bdar import (
    Bdar1Params,
    BivariateOrdinalSeries,
    CategoricalMarginal,
    CopulaSpec,
    FitReport,
    LikelihoodError,
    TransitionKernel,
    UnobservedStateError,
    conditional_loglik,
    fit,
    information_criteria,
    likelihood_ratio_test,
    simulate,
)
from bdar import cli, inference
from bdar.copulas import FRANK_INDEPENDENCE_TOL, CopulaFamily
from bdar.inference import (
    _ALL_RECIPES,
    _FRANK_ETA_BOUNDS,
    _GUMBEL_ETA_BOUNDS,
    _PHI_ETA_BOUNDS,
    _central_gradient,
    _Layout,
    _make_objective,
    delta_to_eta,
    eta_to_delta,
    eta_to_phi,
    eta_to_simplex,
    phi_to_eta,
    simplex_to_eta,
    transition_counts,
)
from bdar.joint import (
    _BLOCK,
    _innovation_cells,
    _innovation_cells_vjp,
    _mechanism_cells,
    _mechanism_cells_vjp,
)
from bdar.model import Variant
from bdar.rng import substream
from conftest import load_script
from oracles import dense_transition_tensor


cells_digests = load_script("tools/make_cells_digests.py")
start_study = load_script("tools/start_study.py")
_tolerance = start_study._tolerance


def _delta_etas(family: CopulaFamily):
    """Optimizer-scale dependence values, weighted toward the hard regimes:
    for Frank the independence band, 1e-8 <= |delta| < 0.1 just outside it
    (where eta ~ delta) and the bounds."""
    if family is CopulaFamily.FRANK:
        lo, hi = _FRANK_ETA_BOUNDS
        return st.one_of(
            st.floats(-0.99 * FRANK_INDEPENDENCE_TOL, 0.99 * FRANK_INDEPENDENCE_TOL),
            st.floats(-0.1, -FRANK_INDEPENDENCE_TOL),
            st.floats(FRANK_INDEPENDENCE_TOL, 0.1),
            st.floats(lo, hi),
            st.sampled_from([lo, hi]),
        )
    lo, hi = _GUMBEL_ETA_BOUNDS
    return st.one_of(
        st.floats(lo, math.log(1e-12)),  # delta - 1 down to 1e-12 and below
        st.floats(lo, hi),
        st.just(hi),
    )


@st.composite
def _objective_cases(draw):
    variant = draw(st.sampled_from(["m1", "m2", "m3", "m4", "m5"]))
    families = st.sampled_from([CopulaFamily.FRANK, CopulaFamily.GUMBEL])
    layout = _Layout.build(
        variant, draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(families), draw(families)
    )
    n_alr = layout.d1 + layout.d2 - 2
    x = [draw(st.floats(-3.0, 3.0)) for _ in range(n_alr)]
    x += [draw(st.floats(-4.0, 6.0)) for _ in range(layout.n_phi)]
    x += [draw(_delta_etas(f)) for f in (layout.alpha_family, layout.eps_family) if f is not None]
    return layout, np.asarray(x), draw(st.integers(0, 2**32 - 1))


class TestConditionalLoglik:
    def test_two_point_series_single_term(self):
        p = Bdar1Params(
            variant="m1", phi1=0.0, phi2=0.0,
            m1=CategoricalMarginal((0.15, 0.6, 0.25)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
        )
        data = BivariateOrdinalSeries(np.array([2, 1]), np.array([3, 2]), 3, 3)
        # phi = 0: the only term is the innovation product for the pair (1, 2)
        assert conditional_loglik(p, data) == pytest.approx(math.log(0.15 * 0.3), abs=1e-12)

    def test_matches_entropy_rate_of_independent_path(self, study_params):
        t_len = 40_000
        a = simulate(study_params, t_len, substream(51, "xent-a"))
        b = simulate(study_params, t_len, substream(51, "xent-b"))
        per_obs_a = conditional_loglik(study_params, a) / (t_len - 1)
        per_obs_b = conditional_loglik(study_params, b) / (t_len - 1)
        assert per_obs_a == pytest.approx(per_obs_b, abs=0.02)

    def test_generating_params_beat_independence(self, fixture_params):
        series = simulate(fixture_params, 104, substream(99, "nesting"))
        independent = Bdar1Params(
            variant="m1", phi1=fixture_params.phi1, phi2=fixture_params.phi2,
            m1=fixture_params.m1, m2=fixture_params.m2,
        )
        assert conditional_loglik(fixture_params, series) > conditional_loglik(
            independent, series
        )

    def test_zero_probability_term_raises(self):
        # delta 1e17 pushes the off-diagonal innovation cells below double
        # resolution, so the discordant pair has probability exactly 0
        p = Bdar1Params(
            variant="m2", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
            copula_eps=CopulaSpec("frank", 1e17),
        )
        data = BivariateOrdinalSeries(np.array([1, 1]), np.array([1, 2]), 2, 2)
        with pytest.raises(LikelihoodError, match="t=2"):
            conditional_loglik(p, data)

    def test_zero_probability_names_earliest_step(self):
        # both steps t=2, (2,2) -> (1,2), and t=4, (1,1) -> (2,1), are
        # impossible; the error names the earlier one
        p = Bdar1Params(
            variant="m2", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
            copula_eps=CopulaSpec("frank", 1e17),
        )
        data = BivariateOrdinalSeries(np.array([2, 1, 1, 2]), np.array([2, 2, 1, 1]), 2, 2)
        with pytest.raises(LikelihoodError, match=r"^transition \(2,2\) -> \(1,2\) at t=2 "):
            conditional_loglik(p, data)

    def test_zero_probability_step_across_blocks(self):
        # the only impossible step lies in the third block of the count
        p = Bdar1Params(
            variant="m2", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
            copula_eps=CopulaSpec("frank", 1e17),
        )
        n = 2 * _BLOCK + 10
        z1 = np.ones(n, dtype=np.int64)
        z2 = np.ones(n, dtype=np.int64)
        k = 2 * _BLOCK + 3  # the step from index k to k + 1
        z2[k + 1:] = 2
        data = BivariateOrdinalSeries(z1, z2, 2, 2)
        with pytest.raises(LikelihoodError, match=rf"^transition \(1,1\) -> \(1,2\) at t={k + 2} "):
            conditional_loglik(p, data)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_transition_tensor(self, seed, random_params_factory):
        # the repeat-pattern likelihood against a sum over the steps of the
        # dense (d1 d2)^2 tensor, for d up to 8
        rng = substream(84, "dense-loglik", seed)
        d1, d2 = (int(d) for d in rng.integers(2, 9, size=2))
        family = ("gumbel", "frank")[seed % 2]
        params = random_params_factory(rng, d1=d1, d2=d2, family=family)
        series = simulate(params, 400, rng)
        tensor = dense_transition_tensor(params)
        z1, z2 = series.z1 - 1, series.z2 - 1
        want = math.fsum(np.log(tensor[z1[:-1], z2[:-1], z1[1:], z2[1:]]).tolist())
        assert conditional_loglik(params, series) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_series_visits_fewer_states_than_params(self, study_params):
        # the counts are 2 x 2 per pattern, the kernel 3 x 3
        data = BivariateOrdinalSeries([1, 2, 2, 1, 2], [1, 1, 2, 2, 1], 2, 2)
        params = Bdar1Params(
            variant="m1", phi1=study_params.phi1, phi2=study_params.phi2,
            m1=study_params.m1, m2=study_params.m2,
        )
        tensor = dense_transition_tensor(params)
        z1, z2 = data.z1 - 1, data.z2 - 1
        want = math.fsum(np.log(tensor[z1[:-1], z2[:-1], z1[1:], z2[1:]]).tolist())
        assert conditional_loglik(params, data) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_probability_step_in_fewer_states_than_params(self):
        # one shared indicator and comonotone innovations: only the last
        # step, (2,2) -> (1,2), moves one series alone
        m = CategoricalMarginal((0.3, 0.3, 0.4))
        p = Bdar1Params("m2", 0.5, 0.5, m, m, copula_eps=CopulaSpec("frank", 1e17))
        data = BivariateOrdinalSeries([1, 1, 2, 2, 1], [1, 1, 2, 2, 2], 2, 2)
        with pytest.raises(LikelihoodError, match=r"^transition \(2,2\) -> \(1,2\) at t=5 "):
            conditional_loglik(p, data)

    def test_state_range_checked(self, study_params):
        data = BivariateOrdinalSeries(np.array([1, 4]), np.array([1, 2]), 4, 3)
        with pytest.raises(ValueError, match="exceed"):
            conditional_loglik(study_params, data)

    @given(case=_objective_cases(), phi_eta=st.sampled_from([None, *_PHI_ETA_BOUNDS]))
    @settings(max_examples=300, deadline=None)
    def test_objective_equals_public_loglik(self, case, phi_eta):
        # the objective builds its cells from one copula pass of its own;
        # they must be the kernel's to the bit, so the values are equal. At
        # the lower keep-rate bound 1 - phi1 rounds to 1, an edge of the square.
        layout, x, seed = case
        if phi_eta is not None:
            x[layout.d1 + layout.d2 - 2] = phi_eta
        params = layout.unpack(x)
        series = simulate(params, 150, substream(seed, "objective-value"))
        try:
            want = -conditional_loglik(params, series)
        except LikelihoodError:
            reject()  # a floored term: the objective floors it instead of raising
        assert _make_objective(layout, transition_counts(series))(x)[0] == want


class TestTransforms:
    @given(phi=st.floats(1e-6, 1.0 - 2e-6))
    @settings(max_examples=200)
    def test_phi_round_trip(self, phi):
        assert eta_to_phi(phi_to_eta(phi)) == pytest.approx(phi, abs=1e-10)

    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=200)
    def test_simplex_round_trip(self, raw):
        p = np.asarray(raw) / np.sum(raw)
        again = eta_to_simplex(simplex_to_eta(p))
        assert np.max(np.abs(again - p)) <= 1e-10
        assert again.sum() == pytest.approx(1.0, abs=1e-12)

    @given(delta=st.floats(1.0 + 1e-9, 1e6))
    @settings(max_examples=200)
    def test_gumbel_delta_round_trip(self, delta):
        eta = delta_to_eta(delta, CopulaFamily.GUMBEL)
        assert eta_to_delta(eta, CopulaFamily.GUMBEL) == pytest.approx(delta, rel=1e-10)

    @given(delta=st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_frank_delta_round_trip(self, delta):
        eta = delta_to_eta(delta, CopulaFamily.FRANK)
        assert eta_to_delta(eta, CopulaFamily.FRANK) == pytest.approx(
            delta, rel=1e-10, abs=1e-10
        )

    def test_phi_stays_strictly_below_one(self):
        assert eta_to_phi(1e9) < 1.0

    def test_phi_transforms_equal_scipy_bit_for_bit(self):
        from scipy import special

        def around(x, ulps=4):
            """x and its nearest neighbours, ``ulps`` on either side."""
            below, above = [x], [x]
            for _ in range(ulps):
                below.append(np.nextafter(below[-1], -np.inf))
                above.append(np.nextafter(above[-1], np.inf))
            return below[1:] + above

        cap = inference.PHI_CAP
        # ratio phi / PHI_CAP across logit's branch edges 0.3 and 0.65 and
        # both 1e-12 clamps
        phis = np.concatenate([
            np.linspace(0.0, cap, 20_001),
            *(around(c * cap) for c in (0.3, 0.65, 1e-12, 1.0 - 1e-12)),
            [1e-13, 0.5 * cap, np.nextafter(cap, 0.0)],
        ])
        for phi in map(float, phis):
            ratio = min(max(phi / cap, 1e-12), 1.0 - 1e-12)
            assert phi_to_eta(phi) == float(special.logit(ratio)), phi
        etas = np.concatenate([np.linspace(-40.0, 40.0, 20_001), [-800.0, -745.0, -709.8, 0.0, 800.0]])
        for eta in map(float, etas):
            assert eta_to_phi(eta) == float(cap * special.expit(eta)), eta



class TestLayout:
    @pytest.mark.parametrize("variant", ["m1", "m2", "m3", "m4", "m5"])
    def test_pack_inverts_unpack(self, variant):
        layout = _Layout.build(variant, 3, 4, "gumbel", "frank")
        x = substream(82, "pack", variant).uniform(-3.0, 3.0, layout.size)
        params = layout.unpack(x)
        assert list(params.named_values())[7:] == layout.report_names()[5:]
        packed = layout.encode(params.m1.probs, params.m2.probs, params.named_values())
        assert np.allclose(packed, x, rtol=0.0, atol=1e-9)

    def test_embed_places_nested_coordinates_by_name(self):
        m5 = _Layout.build("m5", 3, 4, "gumbel", "frank")
        m2 = _Layout.build("m2", 3, 4, None, "frank")
        x2 = np.arange(1.0, m2.size + 1.0)  # 5 log ratios, phi, delta_eps
        x = m5.embed(m2, x2, {"delta_alpha": 25.0})
        assert dict(zip(m5.report_names()[5:], x[5:])) == {
            "phi1": 6.0, "phi2": 6.0, "delta_alpha": 25.0, "delta_eps": 7.0
        }
        assert np.array_equal(x[:5], x2[:5])

def _oracle_step(layout: _Layout, x: np.ndarray) -> float:
    """The central-difference oracle's relative step at ``x``. Near its
    comonotone (countermonotone) limit a copula turns over within about
    1/|delta| of u = v (u + v = 1), with curvature of order |delta|; farther
    out it bends only at the kink of min(u, v). So the step is at most 1e-6
    and at most a hundredth of max(gap, 1/|delta|) over the copula's grid
    pairs (u, v), gap being a pair's distance from the turn."""
    p1, p2, phi1, phi2, delta_alpha, delta_eps = layout.raw_unpack(x)
    pairs = [
        (delta_eps, np.cumsum(p1)[:-1, None], np.cumsum(p2)[None, :-1]),
        (delta_alpha, 1.0 - phi1, 1.0 - phi2),
    ]
    step = 1e-6
    for delta, u, v in pairs:
        if delta != 0.0:
            gap = np.abs(u - v) if delta > 0 else np.abs(u + v - 1.0)
            step = min(step, 0.01 * max(np.min(gap), 1.0 / abs(delta)))
    return step


def _dense_counts(series: BivariateOrdinalSeries) -> np.ndarray:
    """(d1, d2, d1, d2) counts of the transitions (s, l) -> (i, j), by a loop
    over the steps."""
    counts = np.zeros((series.d1, series.d2, series.d1, series.d2))
    z1, z2 = series.z1 - 1, series.z2 - 1
    for t in range(1, series.n):
        counts[z1[t - 1], z2[t - 1], z1[t], z2[t]] += 1
    return counts


def _fold_by_repeats(dense: np.ndarray) -> np.ndarray:
    """Dense transition counts summed, cell by cell, into (series 1 repeated,
    series 2 repeated, i, j)."""
    d1, d2 = dense.shape[:2]
    out = np.zeros((2, 2, d1, d2))
    for s, l, i, j in np.ndindex(dense.shape):
        out[int(s == i), int(l == j), i, j] += dense[s, l, i, j]
    return out


def _per_transition_objective(layout: _Layout, dense: np.ndarray, x: np.ndarray):
    """The objective's value and gradient as a sum over the distinct
    transitions (s, l) -> (i, j) of dense counts: the formula the fit used
    before it read repeat-pattern counts."""
    s, l, i, j = np.nonzero(dense)
    weights = dense[s, l, i, j]
    keep1, keep2 = (i == s).astype(float), (j == l).astype(float)
    p1, p2, phi1, phi2, delta_alpha, delta_eps = layout.raw_unpack(x)
    alpha_family, eps_family = layout.copula_families()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pe, eps_partials = _innovation_cells(p1, p2, eps_family, delta_eps)
        mech, alpha_partials = _mechanism_cells(phi1, phi2, alpha_family, delta_alpha)
    m = mech.ravel().tolist()
    terms = (pe[i, j], keep2 * p1[i], keep1 * p2[j], keep1 * keep2)
    probs = sum(mk * term for mk, term in zip(m, terms))
    floored = np.maximum(probs, inference.MIN_TERM_PROB)
    value = -float(weights @ np.log(floored))
    g_probs = np.where(probs >= inference.MIN_TERM_PROB, -weights / floored, 0.0)
    g_pe = np.zeros_like(pe)
    np.add.at(g_pe, (i, j), m[0] * g_probs)
    g_p1, g_p2, g_eps = _innovation_cells_vjp(eps_partials, g_pe * (pe > 0.0))
    g_p1 += np.bincount(i, weights=m[1] * keep2 * g_probs, minlength=layout.d1)
    g_p2 += np.bincount(j, weights=m[2] * keep1 * g_probs, minlength=layout.d2)
    g_mech = [float(g_probs @ term) if mk > 0.0 else 0.0 for mk, term in zip(m, terms)]
    g_phi1, g_phi2, g_alpha = _mechanism_cells_vjp(alpha_partials, *g_mech)
    return value, layout.chain(x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps)


class TestGradient:
    @given(case=_objective_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_transition_formula(self, case):
        # summing by repeat pattern regroups the float sums, nothing else
        layout, x, seed = case
        series = simulate(layout.unpack(x), 150, substream(seed, "per-transition"))
        value, grad = _make_objective(layout, transition_counts(series))(x)
        want_value, want_grad = _per_transition_objective(layout, _dense_counts(series), x)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    @given(case=_objective_cases())
    @example(case=(
        # an innovation grid pair 3.8e-6 apart at delta_eps 6.0e4: a step of
        # 1e-6 crosses the copula's turn and misses coordinates 6 and 7
        _Layout.build("m5", 6, 6, CopulaFamily.FRANK, CopulaFamily.GUMBEL),
        np.array([0, 0, 0, 0, -0.923828125, 2.25, 2.9310183330799617, 2.9719859009904983, 0.5,
                  -0.96875, 0, 0, 0, 11]),
        0,
    ))
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_match_oracles(self, case):
        layout, x, seed = case
        step = _oracle_step(layout, x)
        # below that, rounding in the value swamps the difference
        assume(step >= 1e-8)
        series = simulate(layout.unpack(x), 150, substream(seed, "gradient-oracle"))
        objective = _make_objective(layout, transition_counts(series))
        f, grad = objective(x)
        assert np.isfinite(f) and np.all(np.isfinite(grad))
        try:
            assert f == pytest.approx(-conditional_loglik(layout.unpack(x), series), abs=1e-9)
        except LikelihoodError:
            pass  # the objective floors impossible terms instead of raising

        def value(y):
            return objective(y)[0]

        oracle = _central_gradient(value, x, step)
        families = [f for f in (layout.alpha_family, layout.eps_family) if f is not None]
        # the free deltas are the last coordinates
        for j, family in zip(range(layout.size - len(families), layout.size), families):
            if family is CopulaFamily.FRANK and abs(x[j]) < FRANK_INDEPENDENCE_TOL:
                # Inside the band the value is flat in delta, and the signed
                # log map has a kink in its second derivative at 0, so the
                # oracle steps out of the band in delta (wide enough to clear
                # the closed form's noise) and applies d(delta)/d(eta) = 1 + |delta|.
                def along(t, j=j):
                    y = x.copy()
                    y[j] = delta_to_eta(t[0], family)
                    return value(y)

                delta = eta_to_delta(x[j], family)
                oracle[j] = _central_gradient(along, np.array([delta]), 1e-3)[0] * (1 + abs(delta))
        tol = 1e-5 * np.abs(oracle) + 1e-7 * (1.0 + abs(f))
        assert np.all(np.abs(grad - oracle) <= tol), (grad, oracle)


class TestFit:
    def test_recovers_generating_parameters_loosely(self, study_params):
        series = simulate(study_params, 1000, substream(71, "recover"))
        report = fit(series, "m5", "gumbel", "gumbel")
        est = report.estimates()
        assert est["phi1"] == pytest.approx(0.4, abs=0.1)
        assert est["phi2"] == pytest.approx(0.25, abs=0.1)
        assert est["p1_2"] == pytest.approx(0.6, abs=0.1)
        assert report.converged

    def test_deterministic_given_seed(self, study_params):
        series = simulate(study_params, 400, substream(72, "determinism"))
        a = fit(series, "m5", "gumbel", "gumbel")
        b = fit(series, "m5", "gumbel", "gumbel")
        assert a.loglik == b.loglik
        assert a.estimates() == b.estimates()
        assert a.std_errors == b.std_errors

    def test_loglik_matches_params_hat(self, study_params):
        series = simulate(study_params, 400, substream(73, "consistency"))
        report = fit(series, "m3", "gumbel", "gumbel")
        assert conditional_loglik(report.params_hat, series) == pytest.approx(
            report.loglik, abs=1e-9
        )

    def test_parameter_counts_by_variant(self, fixture_params):
        series = simulate(fixture_params, 300, substream(74, "counts"))
        expected = {"m1": 7, "m2": 7, "m3": 8, "m4": 8, "m5": 9}
        for variant, k in expected.items():
            report = fit(series, variant, "frank", "frank")
            assert report.n_params == k, variant
            assert report.aic == pytest.approx(-2 * report.loglik + 2 * k, abs=1e-9)

    def test_unobserved_state_error(self):
        z1 = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2] * 4)
        z2 = np.array([1, 1, 2, 2, 1, 1, 2, 2, 1, 1] * 4)
        data = BivariateOrdinalSeries(z1, z2, 3, 2)  # state 3 never occurs
        with pytest.raises(UnobservedStateError, match="state 3"):
            fit(data, "m1")

    def test_short_series_rejected(self):
        data = BivariateOrdinalSeries(np.array([1, 2, 1]), np.array([1, 2, 2]), 2, 2)
        with pytest.raises(ValueError, match="at least 20"):
            fit(data, "m1")

    @pytest.mark.parametrize("variant", ["m1", "m2", "m3", "m4", "m5"])
    def test_misspelled_family_rejected_by_every_variant(self, variant, study_params):
        # a variant with the product copula never reads that family otherwise
        series = simulate(study_params, 100, substream(75, "family-names"))
        for alpha, eps in (("bogus", "frank"), ("gumbel", "bogus")):
            with pytest.raises(ValueError, match="'bogus' is not a valid CopulaFamily"):
                fit(series, variant, alpha, eps)

    def test_report_json_round_trip(self, study_params):
        series = simulate(study_params, 400, substream(75, "json"))
        report = fit(series, "m2", "gumbel", "gumbel")
        again = FitReport.from_json_dict(report.to_json_dict())
        assert again.loglik == report.loglik
        assert again.estimates() == report.estimates()
        assert again.n_params == report.n_params

    def test_nesting_order_on_fixture_data(self, fixture_params):
        series = simulate(fixture_params, 200, substream(76, "nesting-order"))
        lls = {
            v: fit(series, v, "frank", "frank").loglik for v in ("m1", "m2", "m3", "m4", "m5")
        }
        for nested in ("m1", "m2", "m3", "m4"):
            assert lls["m5"] >= lls[nested] - 1e-6, nested
        assert lls["m3"] >= lls["m1"] - 1e-6
        assert lls["m4"] >= lls["m1"] - 1e-6

    def test_negative_frank_dependence(self):
        # the innovation CDF edges reach ~1e-26 inside the eta bounds, where
        # the reflected Frank partials evaluate log(0) at their v -> 0 limit
        truth = Bdar1Params(
            variant="m5", phi1=0.3, phi2=0.4,
            m1=CategoricalMarginal((0.3, 0.4, 0.3)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
            copula_alpha=CopulaSpec("frank", -3.0), copula_eps=CopulaSpec("frank", -4.0),
        )
        series = simulate(truth, 1000, substream(1234, "neg", 1000, 2))
        report = fit(series, "m3", "frank", "frank")
        assert report.loglik == pytest.approx(conditional_loglik(report.params_hat, series), abs=1e-9)


class _CappedOptimize:
    """Stand-in for ``scipy.optimize`` whose L-BFGS-B runs can be cut short.

    ``cap(x0)`` returns an iteration cap for the run starting at ``x0`` (or
    None for the fit's own cap); every result is kept in call order.
    """

    def __init__(self, cap):
        self.cap = cap
        self.results = []

    def minimize(self, fun, x0, **kwargs):
        cap = self.cap(np.asarray(x0))
        if cap is not None:
            kwargs["options"] = {**kwargs["options"], "maxiter": cap}
        res = optimize.minimize(fun, x0, **kwargs)
        self.results.append(res)
        return res


class TestFitBookkeeping:
    """``converged`` and ``n_iterations`` describe the run that produced the
    reported point and the whole fit, whichever phase won."""

    def test_best_restart_wins(self, monkeypatch, study_params):
        series = simulate(study_params, 400, substream(77, "best-restart"))
        caps = (3, 1, None, 2, 4)  # the uncapped middle run is the only one to converge
        capped = _CappedOptimize(lambda x0: caps[len(capped.results)])
        monkeypatch.setattr(inference, "optimize", capped)
        report = fit(series, "m3", "gumbel", "gumbel")
        funs = [r.fun for r in capped.results]
        assert len(funs) == len(caps) == len(set(funs))  # restarts only, each at its own point
        best = capped.results[int(np.argmin(funs))]
        assert report.loglik == -best.fun
        layout = _Layout.build("m3", 3, 3, "gumbel", "gumbel")
        assert report.estimates() == layout.unpack(best.x).named_values()
        assert report.converged is bool(best.success) is True
        assert not any(r.success for r in capped.results if r is not best)
        assert report.n_iterations == sum(r.nit for r in capped.results)

    def test_corner_refit_wins(self, monkeypatch, study_params):
        series = simulate(study_params, 400, substream(78, "corner-wins"))
        m5_size = _Layout.build("m5", 3, 3, "gumbel", "gumbel").size
        seen_m2 = []

        def cap(x0):
            # every run of the M5 layout before the shared-mechanism sub-fit
            # stops after one iteration; the sub-fit and the corner refit run
            if len(x0) < m5_size:
                seen_m2.append(True)
            return None if seen_m2 else 1

        capped = _CappedOptimize(cap)
        monkeypatch.setattr(inference, "optimize", capped)
        report = fit(series, "m5", "gumbel", "gumbel")
        sizes = [len(r.x) for r in capped.results]
        assert sizes[-1] == m5_size and sizes[-2] < m5_size  # the corner refit ran last
        first_m2 = sizes.index(sizes[-2])
        assert not any(r.success for r in capped.results[:first_m2])
        assert report.converged is bool(capped.results[-1].success) is True
        assert report.loglik == -capped.results[-1].fun
        assert report.n_iterations == sum(r.nit for r in capped.results)

    def test_each_objective_call_builds_both_cells_through_inference(self, monkeypatch, study_params):
        # perfbench counts the cell builds by hooking bdar.inference's names:
        # the objective must look both up there at call time, once per call.
        # L-BFGS-B gets one objective call per point it evaluates, and the
        # standard errors two per coordinate.
        calls = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("_innovation_cells", "_mechanism_cells"):
            monkeypatch.setattr(inference, name, counting(name, getattr(inference, name)))
        make_objective = inference._make_objective
        monkeypatch.setattr(inference, "_make_objective", lambda *args: counting("objective", make_objective(*args)))
        recorded = _CappedOptimize(lambda x0: None)
        monkeypatch.setattr(inference, "optimize", recorded)
        report = fit(simulate(study_params, 300, substream(80, "cell-builds")), "m5", "frank", "frank")
        assert calls["objective"] == sum(r.nfev for r in recorded.results) + 2 * report.n_params
        assert calls["_innovation_cells"] == calls["_mechanism_cells"] == calls["objective"]

    def test_m5_reaches_shared_mechanism_fit(self):
        # M2 lies on the comonotone boundary of M5; restarts alone stop
        # 6.9e-7 short of the M2 fit on this series, the corner refit closes it
        truth = Bdar1Params(
            variant="m2", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.3, 0.4, 0.3)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
            copula_eps=CopulaSpec("frank", 4.0),
        )
        series = simulate(truth, 1000, substream(1234, "m2", 1000, 2))
        m2 = fit(series, "m2", "frank", "frank")
        m5 = fit(series, "m5", "frank", "frank")
        assert m5.loglik >= m2.loglik - 1e-8

    def test_converged_flag_on_flat_ridges(self, study_params):
        # fits whose dependence estimates sit on a flat ridge still end with
        # a run that reports success
        cases = [(0, "m2"), (2, "m2"), (13, "m3"), (14, "m5"), (17, "m2"), (19, "m2")]
        unconverged = [
            (seed, variant)
            for seed, variant in cases
            if not fit(
                simulate(study_params, 400, substream(91, "corner-wins", seed)),
                variant, "gumbel", "gumbel",
            ).converged
        ]
        assert unconverged == []


    @pytest.mark.parametrize("variant", ["m1", "m2", "m3", "m4", "m5"])
    def test_max_gradient_norm_is_gradient_at_estimate(self, monkeypatch, study_params, variant):
        series = simulate(study_params, 400, substream(79, "max-gradient", variant))
        self._check_max_gradient_norm(monkeypatch, series, variant, "gumbel")

    def test_max_gradient_norm_when_corner_refit_wins(self, monkeypatch):
        # the series of test_m5_reaches_shared_mechanism_fit: the corner refit
        # returns the estimate, on the mechanism copula's upper bound
        truth = Bdar1Params(
            variant="m2", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.3, 0.4, 0.3)), m2=CategoricalMarginal((0.2, 0.3, 0.5)),
            copula_eps=CopulaSpec("frank", 4.0),
        )
        series = simulate(truth, 1000, substream(1234, "m2", 1000, 2))
        winners = self._check_max_gradient_norm(monkeypatch, series, "m5", "frank")
        assert winners[-1] == -1  # the last run

    @staticmethod
    def _check_max_gradient_norm(monkeypatch, series, variant, family):
        """``max_gradient_norm`` equals the largest entry of a fresh objective
        gradient at the returned run's point, exactly; returns the positions,
        counted from the end, of the runs that reached the estimate."""
        recorded = _CappedOptimize(lambda x0: None)
        monkeypatch.setattr(inference, "optimize", recorded)
        report = fit(series, variant, family, family)
        layout = _Layout.build(variant, series.d1, series.d2, family, family)
        objective = _make_objective(layout, transition_counts(series))
        winners = []
        for k, res in enumerate(recorded.results):
            if len(res.x) == layout.size and -res.fun == report.loglik:
                assert layout.unpack(res.x).named_values() == report.estimates()
                assert report.max_gradient_norm == float(np.max(np.abs(objective(res.x)[1])))
                winners.append(k - len(recorded.results))
        assert winners
        return winners


def _bincount_marginal(z, d):
    """The start marginal from a direct scan of the series."""
    freq = np.bincount(z - 1, minlength=d).astype(float)
    freq = np.maximum(freq, 0.5)
    return freq / freq.sum()


def _scan_moment_phi(z, p_hat):
    """The moment keep rate from a direct scan of the series."""
    agree = float(np.mean(z[1:] == z[:-1]))
    psq = float(np.sum(p_hat**2))
    phi = (agree - psq) / max(1.0 - psq, 1e-9)
    return float(np.clip(phi, 0.02, 0.95))


def _scan_unobserved_message(data):
    """The ``UnobservedStateError`` message a direct scan gives, or None."""
    for name, z, d in (("series 1", data.z1, data.d1), ("series 2", data.z2, data.d2)):
        seen = np.bincount(z - 1, minlength=d)
        if np.any(seen == 0):
            missing = int(np.argmin(seen)) + 1
            return f"state {missing} of {name} never occurs; collapse states before fitting"
    return None


@st.composite
def _edge_state_series(draw):
    """Series with d in 2..6 and n in 20..200; state 1 may occur only at
    t = 0, state d only at t = n - 1, and one state not at all."""
    n = draw(st.integers(20, 200))
    rng = substream(draw(st.integers(0, 2**32 - 1)), "edge-state-series")

    def one():
        d = draw(st.integers(2, 6))
        z = rng.integers(1, d + 1, n)
        edges = ["none", "first", "last"] + (["both"] if d > 2 else [])
        edge = draw(st.sampled_from(edges))
        if edge in ("first", "both"):
            z[1:] = np.where(z[1:] == 1, 2, z[1:])
            z[0] = 1
        if edge in ("last", "both"):
            z[:-1] = np.where(z[:-1] == d, d - 1, z[:-1])
            z[-1] = d
        missing = draw(st.one_of(st.none(), st.integers(1, d)))
        if missing is not None:
            z = np.where(z == missing, missing % d + 1, z)
        return z, d

    (z1, d1), (z2, d2) = one(), one()
    return BivariateOrdinalSeries(z1, z2, d1, d2)


class TestStartStatistics:
    """A fit reads the series only through its transition counts: the start
    statistics taken from them equal a direct scan of the series."""

    @given(data=_edge_state_series())
    @settings(max_examples=300, deadline=None)
    def test_match_direct_scan(self, data):
        counts = transition_counts(data)
        summaries = inference._series_summaries(counts, (data.z1[0], data.z2[0]))
        for (freq, repeat), z, d in zip(summaries, (data.z1, data.z2), (data.d1, data.d2)):
            assert np.array_equal(freq, np.bincount(z - 1, minlength=d).astype(float))
            assert repeat == float(np.mean(z[1:] == z[:-1]))
            p_hat = inference._empirical_marginal(freq)
            assert np.array_equal(p_hat, _bincount_marginal(z, d))
            assert inference._moment_phi(repeat, p_hat) == _scan_moment_phi(z, p_hat)
        message = _scan_unobserved_message(data)
        if message is not None:
            with pytest.raises(UnobservedStateError) as info:
                fit(data, "m1")
            assert str(info.value) == message

    @pytest.mark.parametrize("d1, d2", [(4, 3), (2, 5)])
    def test_transition_counts_match_loop(self, d1, d2):
        rng = substream(80, "transition-counts", d1, d2)
        z1, z2 = rng.integers(1, d1 + 1, 500), rng.integers(1, d2 + 1, 500)
        data = BivariateOrdinalSeries(z1, z2, d1, d2)
        want = np.zeros((2, 2, d1, d2))
        for t in range(1, data.n):
            repeat1, repeat2 = int(z1[t] == z1[t - 1]), int(z2[t] == z2[t - 1])
            want[repeat1, repeat2, z1[t] - 1, z2[t] - 1] += 1
        assert np.array_equal(transition_counts(data), want)
        assert np.array_equal(transition_counts(data), _fold_by_repeats(_dense_counts(data)))

    def test_transition_counts_across_blocks(self, study_params):
        # series whose steps end just before, at and after a block edge,
        # against the dense transition counts folded by repeat pattern
        for n in (_BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 3):
            data = simulate(study_params, n, substream(82, "count-blocks", n))
            codes = (data.z1 - 1) * 3 + (data.z2 - 1)
            dense = np.bincount(codes[:-1] * 9 + codes[1:], minlength=81).reshape(3, 3, 3, 3)
            assert np.array_equal(transition_counts(data), _fold_by_repeats(dense))

    def test_transition_counts_match_loop_across_blocks(self):
        rng = substream(85, "count-loop-blocks")
        n = 2 * _BLOCK + 3
        z1, z2 = rng.integers(1, 5, n), rng.integers(1, 3, n)
        # long runs, so that repeats of both series straddle the block edges
        z1[_BLOCK - 5:_BLOCK + 5] = 2
        z2[2 * _BLOCK - 4:2 * _BLOCK + 3] = 1
        want = np.zeros((2, 2, 4, 2))
        for t in range(1, n):
            want[int(z1[t] == z1[t - 1]), int(z2[t] == z2[t - 1]), z1[t] - 1, z2[t] - 1] += 1
        assert np.array_equal(transition_counts(BivariateOrdinalSeries(z1, z2, 4, 2)), want)

    def test_codes_past_int16_match_oracles(self, random_params_factory):
        # d1 d2 = 40,000 pair codes (160,000 pattern codes) do not fit the
        # states' int16; the oracles are a loop per step and, per step, the
        # kernel pushed from the previous pair, which is that pair's row of
        # the dense transition tensor (too large to build at this d)
        d = 200
        params = random_params_factory(substream(87, "d200"), d1=d, d2=d, family="frank")
        rng = substream(87, "d200-series")
        z1, z2 = rng.integers(1, d + 1, 300), rng.integers(1, d + 1, 300)
        z1[[3, 9, 10, 11]] = z1[[2, 8, 8, 8]]  # repeats of each pattern
        z2[[5, 9, 10, 12]] = z2[[4, 8, 8, 8]]
        z1[-2:], z2[-2:] = d, d
        data = BivariateOrdinalSeries(z1, z2, d, d)
        assert data.z1.dtype == np.int16
        want = np.zeros((2, 2, d, d))
        for t in range(1, data.n):
            want[int(z1[t] == z1[t - 1]), int(z2[t] == z2[t - 1]), z1[t] - 1, z2[t] - 1] += 1
        assert np.array_equal(transition_counts(data), want)
        assert want[1, 1].sum() and want[1, 0].sum() and want[0, 1].sum()
        kernel = TransitionKernel.from_params(params)
        terms = []
        for t in range(1, data.n):
            point = np.zeros((d, d))
            point[z1[t - 1] - 1, z2[t - 1] - 1] = 1.0
            terms.append(math.log(kernel.push(point)[z1[t] - 1, z2[t] - 1]))
        assert conditional_loglik(params, data) == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d1, d2", [(127, 127), (127, 128), (128, 127), (128, 128)])
    def test_one_byte_states_never_wrap(self, random_params_factory, d1, d2):
        # states up to 127 are stored in one byte, where z1 * d2 would wrap
        # (d1 d2 = 16,129 at 127 x 127); the oracles take the states as
        # int64 first
        params = random_params_factory(substream(88, d1, d2), d1=d1, d2=d2, family="frank")
        rng = substream(88, d1, d2, "series")
        z1, z2 = rng.integers(1, d1 + 1, 400), rng.integers(1, d2 + 1, 400)
        z1[[3, 9, 10, 11]] = z1[[2, 8, 8, 8]]  # repeats of each pattern
        z2[[5, 9, 10, 12]] = z2[[4, 8, 8, 8]]
        z1[-3:], z2[-3:] = d1, d2
        data = BivariateOrdinalSeries(z1, z2, d1, d2)
        assert data.z1.dtype == (np.int8 if max(d1, d2) <= 127 else np.int16)
        z1, z2 = data.z1.astype(np.int64), data.z2.astype(np.int64)
        step = ((z1[1:] == z1[:-1]).astype(np.int64), (z2[1:] == z2[:-1]).astype(np.int64), z1[1:] - 1, z2[1:] - 1)
        want = np.zeros((2, 2, d1, d2))
        np.add.at(want, step, 1)
        assert np.array_equal(transition_counts(data), want)
        assert want[1, 1].sum() and want[1, 0].sum() and want[0, 1].sum() and want[:, :, -1, -1].sum()
        terms = np.log(TransitionKernel.from_params(params).by_pattern()[step])
        assert conditional_loglik(params, data) == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)
        for x, y, dx, dy in ((data.z1, data.z2, d1, d2), (data.z1[1:], data.z1[:-1], d1, d1),
                             (data.z2[1:], data.z2[:-1], d2, d2)):
            table = np.zeros((dx, dy), dtype=np.int64)
            np.add.at(table, (x.astype(np.int64) - 1, y.astype(np.int64) - 1), 1)
            assert np.array_equal(cli._pair_table(x, y, dx, dy), table)

    def test_transition_counts_peak_memory(self, study_params):
        # temporaries of one block, whatever the series length: 0.35 MB
        # measured, against 2 MB of int8 states
        data = simulate(study_params, 10**6, substream(83, "count-memory"))
        transition_counts(simulate(study_params, 100, substream(83, "warm")))
        tracemalloc.start()
        try:
            transition_counts(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 800_000

    def test_conditional_loglik_peak_memory_d30(self, random_params_factory):
        # 4 d1 d2 = 3600 count cells, not (d1 d2)^2 = 810,000, and
        # temporaries of one block: 0.38 MB measured
        params = random_params_factory(substream(86, "loglik-d30"), d1=30, d2=30, family="frank")
        data = simulate(params, 200_000, substream(86, "loglik-d30-path"))
        conditional_loglik(params, simulate(params, 100, substream(86, "warm")))
        tracemalloc.start()
        try:
            conditional_loglik(params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 800_000

    def test_default_starts_are_distinct(self, study_params):
        config = cli.RunConfig(
            input=str(cli.BUNDLED_SERIES), breakpoints=list(cli.DEFAULT_RATE_BREAKPOINTS)
        )
        fixture = cli.load_ordinal(config)[1]
        simulated = simulate(study_params, 400, substream(81, "distinct-starts"))
        families = ("frank", "gumbel")
        for series in (fixture, simulated):
            summaries = inference._series_summaries(
                transition_counts(series), (series.z1[0], series.z2[0])
            )
            for variant in ("m1", "m2", "m3", "m4", "m5"):
                for alpha in families:
                    for eps in families:
                        layout = _Layout.build(variant, series.d1, series.d2, alpha, eps)
                        starts = inference._default_starts(summaries, layout)
                        assert all(
                            not np.array_equal(a, b)
                            for i, a in enumerate(starts) for b in starts[:i]
                        ), (variant, alpha, eps)
                        if series is fixture:
                            assert len(starts) == {"m1": 1, "m2": 2, "m3": 5, "m4": 5, "m5": 5}[variant]

    # per recipe, in _default_starts order: (truth, length, seed, variant,
    # family) of a series on which the runs from every other recipe end
    # short of the run from this one. The variants are M3 and M4, which
    # ``fit`` fits from these restarts alone, so its log-likelihood drops by
    # the same amount without the recipe (tools/start_study.py measures the
    # same over many series, M5's refit included)
    NEEDED = {
        "mild": ("m2", 1000, 6, "m4", "gumbel"),
        "adjacent": ("m2", 1000, 23, "m4", "frank"),
        "strong": ("bundled", 104, 19, "m3", "frank"),
        "negative": ("m2", 1000, 12, "m4", "frank"),
        "corner": ("m2", 1000, 28, "m4", "frank"),
    }

    @pytest.mark.parametrize("recipe", list(NEEDED))
    def test_each_start_recipe_is_needed(self, recipe, fixture_params):
        truth, length, seed, variant, family = self.NEEDED[recipe]
        m1, m2 = CategoricalMarginal((0.3, 0.3, 0.4)), CategoricalMarginal((0.2, 0.5, 0.3))
        params = {
            "bundled": fixture_params,
            "m1": Bdar1Params("m1", 0.4, 0.3, m1, m2),
            "m2": Bdar1Params("m2", 0.5, 0.5, m1, m2, copula_eps=CopulaSpec("frank", 5.0)),
        }[truth]
        series = simulate(params, length, substream(seed, "recipe-needed"))
        counts = transition_counts(series)
        summaries = inference._series_summaries(counts, (series.z1[0], series.z2[0]))
        layout = _Layout.build(variant, series.d1, series.d2, family, family)
        starts = inference._default_starts(summaries, layout)
        assert len(starts) == len(self.NEEDED)  # no two recipes coincide here
        objective = _make_objective(layout, counts)
        funs = [inference._lbfgsb(objective, x0, layout).fun for x0 in starts]
        k = list(self.NEEDED).index(recipe)
        assert min(funs[:k] + funs[k + 1:]) - funs[k] > 1e-8

    # per (variant, recipe) of the defaults of M2 and M5: (seed, dataset,
    # family) of tools/start_study.py on which the defaults without that
    # recipe end more than the tolerance below all five (M2 by 322 from
    # ``strong`` alone), while the defaults do not. As with NEEDED, margins
    # under 1e-5 depend on numpy's exp/log kernels: four of these hold with
    # its AVX-512 kernels and not without them
    DEFAULTS_NEEDED = {
        ("m2", "mild"): (9, "m1-T1000-r1", "frank"),
        ("m2", "strong"): (7, "negative-frank-T1000-r1", "gumbel"),
        ("m5", "mild"): (7, "bundled-params-T104-r3", "frank"),
        ("m5", "adjacent"): (3, "bundled-params-T104-r2", "gumbel"),
        ("m5", "strong"): (7, "bundled-params-T104-r4", "frank"),
        ("m5", "negative"): (7, "bundled-params-T104-r4", "gumbel"),
        ("m5", "corner"): (9, "bundled-params-T104-r4", "gumbel"),
    }

    @pytest.mark.parametrize("variant, recipe", list(DEFAULTS_NEEDED))
    def test_each_default_recipe_is_needed(self, variant, recipe):
        seed, name, family = self.DEFAULTS_NEEDED[variant, recipe]
        series = next(s for n, s in start_study.datasets(seed) if n == name)
        runs = start_study.Fit(name, series, Variant(variant), family)
        defaults, sub = inference._START_RECIPES[Variant(variant)], inference._START_RECIPES[Variant.M2]
        five = runs.loglik(_ALL_RECIPES, _ALL_RECIPES)
        assert five - runs.loglik(defaults, sub) <= _tolerance(five)
        without = tuple(r for r in defaults if r != recipe)
        assert five - runs.loglik(without, sub) > _tolerance(five)


class TestPrunedStarts:
    """M1 and M2, and so M5's M2 sub-fit, start from fewer recipes than M3,
    M4 and M5, and still reach the fit from all five (tools/start_study.py
    measures this over many series). These hold under both of numpy's
    kernel sets."""

    @pytest.mark.parametrize("path", ["bundled", "m1", "m5"])
    def test_m1_reaches_one_optimum_from_every_recipe(self, path, study_params):
        # M1's log-likelihood is concave in a = (1 - phi) p, so every start
        # ends at its one maximum
        m1, m2 = CategoricalMarginal((0.3, 0.3, 0.4)), CategoricalMarginal((0.2, 0.5, 0.3))
        if path == "bundled":
            config = cli.RunConfig(input=str(cli.BUNDLED_SERIES), breakpoints=list(cli.DEFAULT_RATE_BREAKPOINTS))
            series = cli.load_ordinal(config)[1]
        else:
            truth = {"m1": Bdar1Params("m1", 0.4, 0.3, m1, m2), "m5": study_params}[path]
            series = simulate(truth, 1000, substream(92, "m1-concave", path))
        counts = transition_counts(series)
        summaries = inference._series_summaries(counts, (series.z1[0], series.z2[0]))
        layout = _Layout.build("m1", series.d1, series.d2, "frank", "frank")
        objective = _make_objective(layout, counts)
        logliks = [
            -inference._lbfgsb(objective, x0, layout).fun
            for x0 in inference._recipe_starts(summaries, layout, _ALL_RECIPES)
        ]
        assert max(logliks) - min(logliks) <= _tolerance(max(logliks))
        assert fit(series, "m1").loglik == logliks[0]  # the "mild" start

    # (seed, dataset, variant, family) of tools/start_study.py where the
    # default recipes come closest to losing against all five: the M2 fits
    # that ``strong`` alone lost the most on (seeds 3 and 7), the worst M2
    # and M5 fits from the defaults over seeds 3, 5, 7 and 9, and the M5 fit
    # that ``mild``, ``adjacent``, ``strong`` and ``negative`` with M5's
    # corner refit lost the most on (seed 7)
    CLOSEST = [
        (3, "negative-frank-T1000-r0", Variant.M2, "gumbel"),
        (7, "negative-frank-T1000-r3", Variant.M2, "gumbel"),
        (3, "negative-frank-T1000-r1", Variant.M2, "gumbel"),
        (5, "m2-T1000-r3", Variant.M5, "gumbel"),
        (7, "bundled-params-T104-r1", Variant.M5, "frank"),
    ]

    @pytest.mark.parametrize("seed, name, variant, family", CLOSEST)
    def test_pruned_starts_reach_the_five_recipe_fit(self, seed, name, variant, family):
        series = next(s for n, s in start_study.datasets(seed) if n == name)
        five = start_study.Fit(name, series, variant, family).loglik(_ALL_RECIPES, _ALL_RECIPES)
        assert five - fit(series, variant, family, family).loglik <= _tolerance(five)

    @pytest.mark.parametrize("family", ["frank", "gumbel"])
    @pytest.mark.parametrize("name", ["bundled", "study-T1000-r0"])
    def test_start_study_scores_the_fit_it_studies(self, name, family):
        # the study builds its starts and runs as fit does, so its fit from
        # each variant's defaults, M5's sub-fit and corner refit included,
        # is fit's to the bit
        series = next(s for n, s in start_study.datasets(3) if n == name)
        defaults = inference._START_RECIPES
        for variant in Variant:
            study = start_study.Fit(name, series, variant, family).loglik(defaults[variant], defaults[Variant.M2])
            assert study == fit(series, variant, family, family).loglik, variant


# sha256 of the objective's value and gradient per layout group, of every
# _default_starts vector and of every L-BFGS-B start of a seeded M5 fit
# (tools/make_cells_digests.py). The two starts digests were taken since
# each variant starts from its own recipes (inference._START_RECIPES); the
# objective digest since the objective scores every repeat-pattern cell
# against TransitionKernel.by_pattern and sums the gradient over patterns by
# axis, which regroups the float sums (test_matches_per_transition_formula
# checks the regrouping).
OBJECTIVE_SHA256 = {
    "m1 frank frank": "e2f2cb956f7083d7212bab700ecfe36449347985c2c8a8b5710052589b6d97c7",
    "m1 frank gumbel": "ba5d02bf5435c7e8d272c181a490accac5822c79a6c0a2081382f50674d67a4a",
    "m1 gumbel frank": "fbe39a4206ff6030a2ff338a80d4e886cfebd8fce1549c719f73226359fb06a1",
    "m1 gumbel gumbel": "fe7e30d43f2aae79883510cac291297785b59176d295dacf77f330c6e15acadd",
    "m2 frank frank": "99b9cff3ee8743fbb4bd6aa1e48ea9663e91c1c7d66c636cdff121f616b75df2",
    "m2 frank gumbel": "d5040cba93db031986ccee9ee4d4c6f9a17101d5071604b69b06ac32de1442c7",
    "m2 gumbel frank": "a992edecb47eeb447e6b21750b478edbb6447888599224d733b2dacb8759e76a",
    "m2 gumbel gumbel": "b9fd6977b7bd230e093eb4b0e390d0219b65561bd50609608f9a9499a2fbe3b3",
    "m3 frank frank": "7a4c93bf5859f38a24e3770ede14881da7778ac60b4d5b0c0add33b70f7d3556",
    "m3 frank gumbel": "afd1b79033d608726b08ff17481f591cf136dd2c53b6be2af6849f189f013521",
    "m3 gumbel frank": "f996e06aeb02917822672d6c85d47572234487eb34bad83e3d6f4847db3c6080",
    "m3 gumbel gumbel": "86f27a6b9ae51d03ce2a11787cb081c8fa1a041ee07c96903a8f0b791415a2ad",
    "m4 frank frank": "4d48ad2ad0eebe64befca4b2d048fb23189e94d245b9ce956ded8fc67da99b0b",
    "m4 frank gumbel": "ac140f9a1b639faf6b899831fa0b62f220af042adffd206579a6092bf7f351fc",
    "m4 gumbel frank": "1fd0495c30480fbb56e73c83d861aba4cf407109d2da3bf7cb2ed8c87bb1f6bb",
    "m4 gumbel gumbel": "e2f8cc79c11112804e7375b2b37647cc2477e639f0afccb51cf819bbaa3e4685",
    "m5 frank frank": "1a6d98f7145115de19fcf61904a6d3610918f8872cd1548c02053f51b14a535e",
    "m5 frank gumbel": "d54a333b3c4d96d42dd0ba74f25f540704c65c509817afb5e5d1fcdab833b206",
    "m5 gumbel frank": "eea94e59a0d57753edae537cece1da3fd9d2af6063b88018c2dc708e5e61e23c",
    "m5 gumbel gumbel": "c8b46a57fc19afdf074bc9f6b4a94dccd86e1011a9b3dab30dd4b3689ebe2fe4",
}
# The same digest of M5's objective at d1, d2 in [7, 12], where numpy's sums
# of 8 or more entries regroup: a rewrite that reorders the simplex sums or
# the row sums of the cells' gradient changes these and none above.
OBJECTIVE_LARGE_D_SHA256 = {
    "m5 frank frank": "fe85ae706db608b356637e87ca72cf8171e0472e610daa7642041c0006d66fb4",
    "m5 frank gumbel": "f3d3ad28eaa7f34a43da30534898c3a7ee44145b5cf13444f83101d685f8aa64",
    "m5 gumbel frank": "9b11049db1cc5730bf66475afdd87beafc19bae81823966923a0876dd697ed08",
    "m5 gumbel gumbel": "fbd26441d8d2ce85e22e946cc85fea15dbf5be196307c13787f7c90305a4b825",
}
DEFAULT_STARTS_SHA256 = "67dbc046ba8b51184acafda4b716ac877c7b53c8e898da6e6510567b21afb708"
FIT_STARTS_SHA256 = {
    "m5 frank": "d1d24c8ffd0d10e84f8644dec45ca0906e93249ddf76551efad51d653ffc9a52",
    "m5 gumbel": "1d60f5f2e0d15acd814949fbc2daa6e721f93502060dbc3b69c323b0dba2aff4",
}


class TestFrozenDigests:
    """The fit's parameter map gives the objective, the starts and every
    run's starting point bit for bit as before."""

    def test_objective_value_and_gradient(self):
        assert cells_digests.objective_digests() == OBJECTIVE_SHA256

    def test_objective_beyond_seven_states(self):
        digests = cells_digests.objective_digests(
            groups=cells_digests.LARGE_D_GROUPS, sizes=(7, 12), seed=2514
        )
        assert digests == OBJECTIVE_LARGE_D_SHA256

    def test_default_starts(self):
        assert cells_digests.default_starts_digest() == DEFAULT_STARTS_SHA256

    def test_fit_starting_points(self):
        assert cells_digests.fit_starts_digests() == FIT_STARTS_SHA256


class TestInformationCriteria:
    def test_published_model5_aic(self):
        aic, _ = information_criteria(-82.22, 9, 104)
        assert aic == pytest.approx(182.44, abs=1e-10)

    def test_published_model2_bic_fixes_convention(self):
        # the conditional likelihood has T - 1 terms; ln(103) matches the
        # published 204.15, ln(104) would give 204.23
        _, bic = information_criteria(-85.86, 7, 104)
        assert bic == pytest.approx(204.15, abs=0.05)
        assert abs(-2 * -85.86 + 7 * math.log(104) - 204.15) > 0.05

    def test_zero_is_zero(self):
        aic, bic = information_criteria(0.0, 0, 2)
        assert aic == 0.0 and bic == 0.0

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            information_criteria(-1.0, 1, 1)


def _report_stub(loglik, n_params, n_obs=104):
    aic, bic = information_criteria(loglik, n_params, n_obs)
    return FitReport(
        params_hat=Bdar1Params(
            variant="m1", phi1=0.5, phi2=0.5,
            m1=CategoricalMarginal((0.5, 0.5)), m2=CategoricalMarginal((0.5, 0.5)),
        ),
        std_errors=None, loglik=loglik, n_params=n_params, n_obs=n_obs,
        aic=aic, bic=bic, converged=True, n_iterations=1, max_gradient_norm=0.0,
    )


class TestLikelihoodRatioTest:
    def test_equal_logliks(self):
        out = likelihood_ratio_test(_report_stub(-50.0, 9), _report_stub(-50.0, 7))
        assert out.statistic == 0.0 and out.p_value == 1.0 and out.df == 2

    def test_chi_square_tail_value(self):
        out = likelihood_ratio_test(_report_stub(-50.0, 9), _report_stub(-53.0, 7))
        assert out.statistic == pytest.approx(6.0, abs=1e-12)
        # df=2 tail has the closed form exp(-x/2)
        assert out.p_value == pytest.approx(math.exp(-3.0), abs=1e-12)
        assert out.p_value == pytest.approx(0.0498, abs=0.0005)

    @pytest.mark.parametrize("df", [1, 3, 4, 7])
    def test_p_value_is_chi_square_survival(self, df):
        from scipy import stats

        for gap in (0.0, 0.4, 1.92, 5.5, 40.0):
            out = likelihood_ratio_test(_report_stub(-50.0, 7 + df), _report_stub(-50.0 - gap, 7))
            assert out.p_value == stats.chi2.sf(out.statistic, df)

    def test_rejects_non_nested_counts(self):
        with pytest.raises(ValueError, match="fewer parameters"):
            likelihood_ratio_test(_report_stub(-50.0, 7), _report_stub(-50.0, 7))

    def test_warns_and_clamps_reversed_fits(self):
        with pytest.warns(UserWarning, match="out-scored"):
            out = likelihood_ratio_test(_report_stub(-50.1, 9), _report_stub(-50.0, 7))
        assert out.statistic == 0.0


def test_null_lrt_calibration():
    """Data from the independence model: the M5-vs-M1 test must not reject
    much above its nominal level (boundary deltas make it conservative)."""
    truth = Bdar1Params(
        variant="m1", phi1=0.5, phi2=0.3,
        m1=CategoricalMarginal((0.3, 0.4, 0.3)), m2=CategoricalMarginal((0.4, 0.6)),
    )
    rejections = 0
    done = 0
    for rep in range(50):
        series = simulate(truth, 200, substream(81, "null-lrt", rep))
        try:
            full = fit(series, "m5", "frank", "frank")
            nested = fit(series, "m1", "frank", "frank")
        except UnobservedStateError:
            continue
        done += 1
        rejections += likelihood_ratio_test(full, nested).p_value < 0.05
    assert done >= 40
    assert rejections <= 0.10 * done + 2
