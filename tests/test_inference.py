"""Likelihood, fitting, and model-comparison tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from bdar import (
    Bdar1Params,
    BivariateOrdinalSeries,
    CategoricalMarginal,
    CopulaSpec,
    FitReport,
    LikelihoodError,
    UnobservedStateError,
    conditional_loglik,
    fit,
    information_criteria,
    kendall_tau,
    likelihood_ratio_test,
    simulate,
)
from bdar import inference
from bdar.copulas import FRANK_INDEPENDENCE_TOL, CopulaFamily
from bdar.inference import (
    _FRANK_ETA_BOUNDS,
    _GUMBEL_ETA_BOUNDS,
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
from bdar.rng import substream


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

    def test_state_range_checked(self, study_params):
        data = BivariateOrdinalSeries(np.array([1, 4]), np.array([1, 2]), 4, 3)
        with pytest.raises(ValueError, match="exceed"):
            conditional_loglik(study_params, data)

    def test_objective_equals_public_loglik(self, study_params):
        series = simulate(study_params, 500, substream(41, "objective"))
        layout = _Layout.build("m5", 3, 3, "gumbel", "gumbel")
        objective = _make_objective(layout, transition_counts(series))
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.normal(size=layout.size)
            assert objective(x)[0] == pytest.approx(
                -conditional_loglik(layout.unpack(x), series), abs=1e-9
            )


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


def _straddles_turn(layout: _Layout, x: np.ndarray) -> bool:
    """Near its comonotone (countermonotone) limit a copula turns over within
    about 1/|delta| of u = v (u + v = 1); a finite-difference step of ~1e-7
    straddles that turn when a pair of its arguments sits that close."""
    p1, p2, phi1, phi2, spec_alpha, spec_eps = layout.raw_unpack(x)
    pairs = []
    if spec_eps is not None:
        pairs.append((spec_eps.delta, np.cumsum(p1)[:-1, None], np.cumsum(p2)[None, :-1]))
    if spec_alpha is not None:
        pairs.append((spec_alpha.delta, 1.0 - phi1, 1.0 - phi2))
    for delta, u, v in pairs:
        gap = np.abs(u - v) if delta > 0 else np.abs(u + v - 1.0)
        if abs(delta) > 1e5 and np.min(gap) < 1e-3:
            return True
    return False


class TestGradient:
    @given(case=_objective_cases())
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_match_oracles(self, case):
        layout, x, seed = case
        assume(not _straddles_turn(layout, x))
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

        oracle = _central_gradient(value, x)
        families = [f for f in (layout.alpha_family, layout.eps_family) if f is not None]
        for j, family in zip(range(layout.size - layout.n_delta, layout.size), families):
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

    def test_rejects_non_nested_counts(self):
        with pytest.raises(ValueError, match="fewer parameters"):
            likelihood_ratio_test(_report_stub(-50.0, 7), _report_stub(-50.0, 7))

    def test_warns_and_clamps_reversed_fits(self):
        with pytest.warns(UserWarning, match="out-scored"):
            out = likelihood_ratio_test(_report_stub(-50.1, 9), _report_stub(-50.0, 7))
        assert out.statistic == 0.0


def _tau_b_brute(x, y):
    n = len(x)
    conc = disc = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[j] - x[i])
            dy = np.sign(y[j] - y[i])
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


class TestKendallTau:
    def test_identity_is_one(self):
        x = [3, 1, 4, 1.5, 9, 2.6]
        assert kendall_tau(x, x) == pytest.approx(1.0)

    def test_reversal_is_minus_one(self):
        x = np.array([1, 2, 3, 4, 5])
        assert kendall_tau(x, x[::-1]) == pytest.approx(-1.0)

    def test_frozen_small_example(self):
        got = kendall_tau((1, 2, 3, 4), (1, 3, 2, 4))
        assert got == pytest.approx(_tau_b_brute([1, 2, 3, 4], [1, 3, 2, 4]), abs=1e-12)
        assert got == pytest.approx(0.667, abs=0.001)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            x = rng.integers(1, 5, size=30)
            y = rng.integers(1, 4, size=30)
            if len(np.unique(x)) == 1 or len(np.unique(y)) == 1:
                continue
            assert kendall_tau(x, y) == pytest.approx(_tau_b_brute(x, y), abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            kendall_tau([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])


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
