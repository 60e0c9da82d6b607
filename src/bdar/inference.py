"""Conditional maximum-likelihood estimation and model comparison.

Fitting maximises the exact one-step conditional log-likelihood over a
reparameterised (unconstrained) space: keep probabilities through a scaled
logistic map onto [0, 1), innovation marginals through additive log ratios,
Gumbel dependence through 1 + exp, Frank dependence through a signed log
map. The objective returns the negative log-likelihood together with its
exact gradient, taken by the chain rule through the copula partials, the
innovation and mechanism cells and the transforms, so L-BFGS-B needs one
call per step. Standard errors come from the Hessian on the unconstrained
scale (central differences of that gradient), pushed back to the reported
scale by the delta method with the transforms' closed-form Jacobian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from .copulas import PRODUCT, CopulaFamily, CopulaSpec
from .joint import (
    CategoricalMarginal,
    _innovation_cells,
    _innovation_cells_vjp,
    _mechanism_cells,
    _mechanism_cells_vjp,
)
# transition_tensor has no caller here; perfbench hooks bdar.inference.transition_tensor
from .model import (  # noqa: F401
    Bdar1Params,
    BivariateOrdinalSeries,
    TransitionKernel,
    Transitions,
    Variant,
    transition_tensor,
)

# Keep probabilities are mapped onto [0, PHI_CAP] so the stationarity
# inequality phi < 1 stays strict and the both-kept mechanism mass stays
# away from its singularity at 1.
PHI_CAP = 1.0 - 1e-6

# A conditional term below this probability is treated as an impossible
# observation under the parameters.
MIN_TERM_PROB = 1e-300

# Dependence parameters use log-scaled maps so the optimizer can reach the
# near-comonotone corner (delta ~ 1e10) where the common-mechanism variant
# lives in the closure of the full model; the copula evaluators stay exact
# there. eta bounds below put delta within [1 + 1e-13, ~7e10] for Gumbel and
# |delta| <= ~7e10 for Frank.
_GUMBEL_ETA_BOUNDS = (-30.0, 25.0)
_FRANK_ETA_BOUNDS = (-25.0, 25.0)
_PHI_ETA_BOUNDS = (-40.0, 40.0)
_ALR_ETA_BOUNDS = (-30.0, 30.0)

# L-BFGS-B projected-gradient tolerance and iteration cap of every run of a fit.
LBFGSB_GTOL = 1e-8
LBFGSB_MAX_ITER = 500

# Shortest series a fit accepts.
MIN_SERIES_LENGTH = 20


class LikelihoodError(ValueError):
    """An observed transition has (numerically) zero probability."""


class UnobservedStateError(ValueError):
    """A state in 1..d never occurs in the data."""


# --------------------------------------------------------------------------
# Transforms between the optimizer scale and the natural scale
# --------------------------------------------------------------------------

def phi_to_eta(phi: float) -> float:
    ratio = min(max(phi / PHI_CAP, 1e-12), 1.0 - 1e-12)
    return float(special.logit(ratio))


def eta_to_phi(eta: float) -> float:
    return float(PHI_CAP * special.expit(eta))


def simplex_to_eta(probs) -> np.ndarray:
    """Additive log ratios against the last state's probability."""
    p = np.asarray(probs, dtype=float)
    return np.log(p[:-1] / p[-1])


def eta_to_simplex(eta) -> np.ndarray:
    z = np.concatenate([np.asarray(eta, dtype=float), [0.0]])
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def _phi_slope(eta: float) -> float:
    """d(phi)/d(eta) of the scaled logistic map: PHI_CAP expit(eta) expit(-eta)."""
    e = math.exp(-abs(eta))
    return PHI_CAP * e / (1.0 + e) ** 2


def _simplex_jacobian(p: np.ndarray) -> np.ndarray:
    """d(p)/d(eta) of the additive log-ratio softmax, shape (d, d - 1)."""
    return np.diag(p)[:, :-1] - np.outer(p, p[:-1])


def delta_to_eta(delta: float, family: CopulaFamily) -> float:
    if family is CopulaFamily.GUMBEL:
        return float(np.log(max(delta - 1.0, 1e-12)))
    # Frank: signed log scale, delta ~ eta near independence.
    return float(np.sign(delta) * np.log1p(abs(delta)))


def eta_to_delta(eta: float, family: CopulaFamily) -> float:
    if family is CopulaFamily.GUMBEL:
        return float(1.0 + np.exp(eta))
    return float(np.sign(eta) * np.expm1(abs(eta)))


def _delta_slope(eta: float, family: CopulaFamily) -> float:
    """d(delta)/d(eta): delta - 1 for Gumbel, 1 + |delta| for Frank."""
    return math.exp(eta if family is CopulaFamily.GUMBEL else abs(eta))


@dataclass(frozen=True)
class _Layout:
    """Slice map between the unconstrained vector and a parameter set."""

    variant: Variant
    d1: int
    d2: int
    alpha_family: CopulaFamily | None  # None when the variant has no free mechanism delta
    eps_family: CopulaFamily | None

    @classmethod
    def build(cls, variant, d1, d2, alpha_family, eps_family) -> "_Layout":
        variant = Variant.parse(variant)
        alpha = CopulaFamily(alpha_family) if variant in (Variant.M4, Variant.M5) else None
        eps = CopulaFamily(eps_family) if variant in (Variant.M2, Variant.M3, Variant.M5) else None
        if alpha is CopulaFamily.PRODUCT or eps is CopulaFamily.PRODUCT:
            raise ValueError("a free dependence parameter needs a parametric copula family")
        return cls(variant=variant, d1=d1, d2=d2, alpha_family=alpha, eps_family=eps)

    @property
    def n_phi(self) -> int:
        return 1 if self.variant is Variant.M2 else 2

    @property
    def n_delta(self) -> int:
        return (self.alpha_family is not None) + (self.eps_family is not None)

    @property
    def size(self) -> int:
        return (self.d1 - 1) + (self.d2 - 1) + self.n_phi + self.n_delta

    def pack(self, params: Bdar1Params) -> np.ndarray:
        x = list(simplex_to_eta(params.m1.probs)) + list(simplex_to_eta(params.m2.probs))
        x.append(phi_to_eta(params.phi1))
        if self.variant is not Variant.M2:
            x.append(phi_to_eta(params.phi2))
        if self.alpha_family is not None:
            x.append(delta_to_eta(params.copula_alpha.delta, self.alpha_family))
        if self.eps_family is not None:
            x.append(delta_to_eta(params.copula_eps.delta, self.eps_family))
        return np.asarray(x, dtype=float)

    def raw_unpack(self, x: np.ndarray):
        """Decode to plain arrays/specs without parameter-object validation."""
        k1, k2 = self.d1 - 1, self.d2 - 1
        p1 = eta_to_simplex(x[:k1])
        p2 = eta_to_simplex(x[k1 : k1 + k2])
        pos = k1 + k2
        phi1 = eta_to_phi(x[pos])
        pos += 1
        if self.variant is Variant.M2:
            phi2 = phi1
        else:
            phi2 = eta_to_phi(x[pos])
            pos += 1
        copula_alpha = None
        if self.alpha_family is not None:
            copula_alpha = CopulaSpec(self.alpha_family, eta_to_delta(x[pos], self.alpha_family))
            pos += 1
        copula_eps = None
        if self.eps_family is not None:
            copula_eps = CopulaSpec(self.eps_family, eta_to_delta(x[pos], self.eps_family))
        return p1, p2, phi1, phi2, copula_alpha, copula_eps

    def unpack(self, x: np.ndarray) -> Bdar1Params:
        p1, p2, phi1, phi2, copula_alpha, copula_eps = self.raw_unpack(x)
        return Bdar1Params(
            variant=self.variant,
            phi1=phi1,
            phi2=phi2,
            m1=CategoricalMarginal(tuple(p1)),
            m2=CategoricalMarginal(tuple(p2)),
            copula_alpha=copula_alpha,
            copula_eps=copula_eps,
        )

    def bounds(self) -> list[tuple[float, float]]:
        out = [_ALR_ETA_BOUNDS] * (self.d1 - 1 + self.d2 - 1)
        out += [_PHI_ETA_BOUNDS] * self.n_phi
        if self.alpha_family is not None:
            out.append(_GUMBEL_ETA_BOUNDS if self.alpha_family is CopulaFamily.GUMBEL else _FRANK_ETA_BOUNDS)
        if self.eps_family is not None:
            out.append(_GUMBEL_ETA_BOUNDS if self.eps_family is CopulaFamily.GUMBEL else _FRANK_ETA_BOUNDS)
        return out

    def report_names(self) -> list[str]:
        names = [f"p1_{i}" for i in range(1, self.d1)] + [f"p2_{i}" for i in range(1, self.d2)]
        names += ["phi"] if self.variant is Variant.M2 else ["phi1", "phi2"]
        if self.alpha_family is not None:
            names.append("delta_alpha")
        if self.eps_family is not None:
            names.append("delta_eps")
        return names

    def _scalar_slopes(self, x: np.ndarray) -> np.ndarray:
        """d(natural)/d(eta) of the keep-rate and dependence coordinates."""
        pos = self.d1 - 1 + self.d2 - 1
        slopes = [_phi_slope(x[pos + i]) for i in range(self.n_phi)]
        pos += self.n_phi
        for family in (self.alpha_family, self.eps_family):
            if family is not None:
                slopes.append(_delta_slope(x[pos], family))
                pos += 1
        return np.asarray(slopes)

    def chain(self, x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps) -> np.ndarray:
        """Gradient on the unconstrained vector from gradients on the raw parameters."""
        g_scalar = [g_phi1 + g_phi2] if self.variant is Variant.M2 else [g_phi1, g_phi2]
        if self.alpha_family is not None:
            g_scalar.append(g_alpha)
        if self.eps_family is not None:
            g_scalar.append(g_eps)
        return np.concatenate([
            g_p1 @ _simplex_jacobian(p1),
            g_p2 @ _simplex_jacobian(p2),
            self._scalar_slopes(x) * g_scalar,
        ])

    def report_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d(report values)/dx: simplexes without their last entry, then keep
        rates and dependence parameters, in ``report_names`` order."""
        p1, p2 = self.raw_unpack(x)[:2]
        k1, k2 = self.d1 - 1, self.d2 - 1
        jac = np.zeros((self.size, self.size))
        jac[:k1, :k1] = _simplex_jacobian(p1)[:-1]
        jac[k1 : k1 + k2, k1 : k1 + k2] = _simplex_jacobian(p2)[:-1]
        rest = np.arange(k1 + k2, self.size)
        jac[rest, rest] = self._scalar_slopes(x)
        return jac


# --------------------------------------------------------------------------
# Likelihood
# --------------------------------------------------------------------------

def transition_counts(data: BivariateOrdinalSeries) -> np.ndarray:
    """Counts of one-step transitions, shape (d1, d2, d1, d2)."""
    d1, d2 = data.d1, data.d2
    prev = (data.z1[:-1] - 1) * d2 + (data.z2[:-1] - 1)
    cur = (data.z1[1:] - 1) * d2 + (data.z2[1:] - 1)
    flat = prev * (d1 * d2) + cur
    return np.bincount(flat, minlength=(d1 * d2) ** 2).reshape(d1, d2, d1, d2).astype(float)


def conditional_loglik(params: Bdar1Params, data: BivariateOrdinalSeries) -> float:
    """Sum over t >= 2 of log P(pair at t | pair at t-1).

    Raises ``LikelihoodError`` (naming the first offending time step) if any
    observed transition has probability below ``MIN_TERM_PROB``, rather than
    silently returning -inf.
    """
    if data.d1 > params.d1 or data.d2 > params.d2:
        raise ValueError("data states exceed the parameter state space")
    obs = Transitions.from_counts(transition_counts(data))
    log_probs = TransitionKernel.from_params(params).log_prob(obs)
    bad = np.flatnonzero(log_probs < math.log(MIN_TERM_PROB))
    if len(bad):
        s, l, i, j = (int(a[bad[0]]) + 1 for a in (obs.s, obs.l, obs.i, obs.j))
        hit = (data.z1[:-1] == s) & (data.z2[:-1] == l) & (data.z1[1:] == i) & (data.z2[1:] == j)
        raise LikelihoodError(
            f"transition ({s},{l}) -> ({i},{j}) at t={int(np.argmax(hit)) + 2} "
            "has zero probability under these parameters"
        )
    return float(obs.weights @ log_probs)


def _central_gradient(fun, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function: the oracle the
    analytic objective gradient is tested against."""
    g = np.empty_like(x)
    for i in range(len(x)):
        h = rel_step * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def _fd_hessian(grad, x: np.ndarray) -> np.ndarray:
    """Symmetrised central differences of the gradient, per-coordinate step
    max(1e-4, 1e-4*|x_i|)."""
    h = np.maximum(1e-4, 1e-4 * np.abs(x))
    hess = np.empty((len(x), len(x)))
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        hess[:, i] = (grad(xp) - grad(xm)) / (2.0 * h[i])
    return 0.5 * (hess + hess.T)


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FitReport:
    """Estimates, uncertainty, and bookkeeping from one conditional ML fit.

    ``converged`` is the success flag of the L-BFGS-B run that returned the
    reported point: the best restart or, for M5, the corner refit.
    ``n_iterations`` is the total number of L-BFGS-B iterations over every
    run of the fit, including the restarts that lost and, for M5, the
    shared-mechanism sub-fit. ``max_gradient_norm`` is the largest absolute
    entry of the objective's gradient at the estimate, on the unconstrained
    scale.
    """

    params_hat: Bdar1Params
    std_errors: dict | None  # name -> standard error; None if Hessian not usable
    loglik: float
    n_params: int
    n_obs: int
    aic: float
    bic: float
    converged: bool
    n_iterations: int
    max_gradient_norm: float

    def estimates(self) -> dict:
        """All natural-scale estimates by name, including derived last simplex entries."""
        return self.params_hat.named_values()

    def to_json_dict(self) -> dict:
        return {
            "params": self.params_hat.to_json_dict(),
            "std_errors": self.std_errors,
            "loglik": self.loglik,
            "n_params": self.n_params,
            "n_obs": self.n_obs,
            "aic": self.aic,
            "bic": self.bic,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "max_gradient_norm": self.max_gradient_norm,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FitReport":
        return cls(
            params_hat=Bdar1Params.from_json_dict(d["params"]),
            std_errors=d.get("std_errors"),
            loglik=float(d["loglik"]),
            n_params=int(d["n_params"]),
            n_obs=int(d["n_obs"]),
            aic=float(d["aic"]),
            bic=float(d["bic"]),
            converged=bool(d["converged"]),
            n_iterations=int(d["n_iterations"]),
            max_gradient_norm=float(d["max_gradient_norm"]),
        )


def _empirical_marginal(z: np.ndarray, d: int) -> np.ndarray:
    freq = np.bincount(z - 1, minlength=d).astype(float)
    freq = np.maximum(freq, 0.5)  # keep starts off the simplex boundary
    return freq / freq.sum()


def _moment_phi(z: np.ndarray, p_hat: np.ndarray) -> float:
    # P(repeat) = phi + (1 - phi) * sum(p_i^2) under the model, solved for phi.
    agree = float(np.mean(z[1:] == z[:-1]))
    psq = float(np.sum(p_hat**2))
    phi = (agree - psq) / max(1.0 - psq, 1e-9)
    return float(np.clip(phi, 0.02, 0.95))


def _start_deltas(family: CopulaFamily | None, level: str) -> float | None:
    if family is None:
        return None
    if level == "corner":
        # Start on the upper eta bound: the (near-)comonotone limit where the
        # shared-mechanism variant lives in the closure of the full model.
        hi = (_GUMBEL_ETA_BOUNDS if family is CopulaFamily.GUMBEL else _FRANK_ETA_BOUNDS)[1]
        return eta_to_delta(hi, family)
    table = {
        CopulaFamily.GUMBEL: {"adjacent": 1.05, "mild": 1.5, "strong": 4.0, "negative": 1.05},
        CopulaFamily.FRANK: {"adjacent": 0.5, "mild": 2.0, "strong": 12.0, "negative": -2.0},
    }
    return table[family][level]


def _default_starts(data: BivariateOrdinalSeries, layout: _Layout) -> list:
    p1_hat = _empirical_marginal(data.z1, layout.d1)
    p2_hat = _empirical_marginal(data.z2, layout.d2)
    phi1_hat = _moment_phi(data.z1, p1_hat)
    phi2_hat = _moment_phi(data.z2, p2_hat)
    uniform1 = np.full(layout.d1, 1.0 / layout.d1)
    uniform2 = np.full(layout.d2, 1.0 / layout.d2)

    phi_mid = 0.5 * (phi1_hat + phi2_hat)
    recipes = [
        (p1_hat, p2_hat, phi1_hat, phi2_hat, "mild", "mild"),
        (p1_hat, p2_hat, phi1_hat, phi2_hat, "adjacent", "adjacent"),
        (p1_hat, p2_hat, phi1_hat, phi2_hat, "strong", "strong"),
        (uniform1, uniform2, 0.3, 0.3, "negative", "negative"),
        # shared-mechanism corner: equal keep rates, mechanism copula pinned
        # at its comonotone bound (only the mechanism; a pinned innovation
        # copula would start on a likelihood cliff). Restarts, this one
        # included, can stop short of the M2 fit; the corner refit in ``fit``
        # closes the gap (test_m5_reaches_shared_mechanism_fit).
        (p1_hat, p2_hat, phi_mid, phi_mid, "corner", "strong"),
    ]
    starts = []
    for m1, m2, phi1, phi2, level_alpha, level_eps in recipes:
        x = list(simplex_to_eta(m1)) + list(simplex_to_eta(m2))
        if layout.variant is Variant.M2:
            x.append(phi_to_eta(0.5 * (phi1 + phi2)))
        else:
            x.extend([phi_to_eta(phi1), phi_to_eta(phi2)])
        if layout.alpha_family is not None:
            x.append(
                delta_to_eta(_start_deltas(layout.alpha_family, level_alpha), layout.alpha_family)
            )
        if layout.eps_family is not None:
            x.append(delta_to_eta(_start_deltas(layout.eps_family, level_eps), layout.eps_family))
        starts.append(np.asarray(x, dtype=float))
    return starts


def _make_objective(layout: _Layout, counts: np.ndarray):
    """Negative log-likelihood and its gradient over the unconstrained vector.

    Works from the sufficient statistics (transition counts), the raw cell
    helpers shared with the table builders and the ``TransitionKernel``
    mixture that ``conditional_loglik`` uses, so the value equals
    ``-conditional_loglik(layout.unpack(x), data)`` wherever no term is
    floored. The gradient is exact: the chain rule runs back through the
    four-term mixture, the mechanism and innovation cells (copula partials)
    and the transforms.
    Terms floored at ``MIN_TERM_PROB`` and clamped cells carry no gradient.
    """
    obs = Transitions.from_counts(counts)
    weights = obs.weights
    cell = obs.i * layout.d2 + obs.j
    is_common = layout.variant is Variant.M2

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p1, p2, phi1, phi2, spec_alpha, spec_eps = layout.raw_unpack(x)
        spec_eps = spec_eps or PRODUCT
        pe = _innovation_cells(p1, p2, spec_eps)
        if is_common:
            mech = np.array([[1.0 - phi1, 0.0], [0.0, phi1]])
        else:
            spec_alpha = spec_alpha or PRODUCT
            mech = _mechanism_cells(phi1, phi2, spec_alpha)
        kernel = TransitionKernel(mech, pe, p1, p2)
        terms = kernel.terms(obs)
        probs = kernel.mix(terms)
        floored = np.maximum(probs, MIN_TERM_PROB)
        value = -float(weights @ np.log(floored))

        g_probs = np.where(probs >= MIN_TERM_PROB, -weights / floored, 0.0)
        g_mech = np.array([g_probs @ term for term in terms]).reshape(2, 2)
        g_pe = np.bincount(cell, weights=mech[0, 0] * g_probs, minlength=pe.size)
        g_p1, g_p2, g_eps = _innovation_cells_vjp(
            p1, p2, spec_eps, g_pe.reshape(pe.shape) * (pe > 0.0)
        )
        g_p1 += np.bincount(obs.i, weights=mech[0, 1] * obs.keep2 * g_probs, minlength=layout.d1)
        g_p2 += np.bincount(obs.j, weights=mech[1, 0] * obs.keep1 * g_probs, minlength=layout.d2)
        if is_common:
            g_phi1, g_phi2, g_alpha = g_mech[1, 1] - g_mech[0, 0], 0.0, 0.0
        else:
            g_phi1, g_phi2, g_alpha = _mechanism_cells_vjp(
                phi1, phi2, spec_alpha, g_mech * (mech > 0.0)
            )
        grad = layout.chain(x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps)
        return value, grad

    return objective


def _lbfgsb(objective, x0: np.ndarray, layout: _Layout):
    return optimize.minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=layout.bounds(),
        options={"maxiter": LBFGSB_MAX_ITER, "ftol": 1e-12, "gtol": LBFGSB_GTOL},
    )


def _maximize_layout(layout: _Layout, counts: np.ndarray, data: BivariateOrdinalSeries):
    """Best L-BFGS-B optimum over the default restarts.

    Returns ``(x, f, success, n_iter)``: the best point, its objective, the
    success flag of the L-BFGS-B run that returned it, and the iterations of
    every run made here.
    """
    objective = _make_objective(layout, counts)
    best, n_iter = None, 0
    for x0 in _default_starts(data, layout):
        res = _lbfgsb(objective, x0, layout)
        n_iter += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    return np.asarray(best.x, dtype=float), float(best.fun), bool(best.success), n_iter


def fit(
    data: BivariateOrdinalSeries,
    variant,
    copula_alpha_family="frank",
    copula_eps_family="frank",
) -> FitReport:
    """Conditional maximum-likelihood fit of one model variant.

    Runs a quasi-Newton search (L-BFGS-B with the exact gradient of the
    objective) from five deterministic starting points: method-of-moments
    keep probabilities from the lag-1 repeat rate, empirical marginals, and a
    spread of dependence levels from near-independence to strong. The best
    optimum is kept; for M5 it is also compared with a refit from the
    shared-mechanism corner, which wins ties. The same data give an
    identical report.
    """
    if data.n < MIN_SERIES_LENGTH:
        raise ValueError(f"need at least {MIN_SERIES_LENGTH} observations, got {data.n}")
    for name, z, d in (("series 1", data.z1, data.d1), ("series 2", data.z2, data.d2)):
        seen = np.bincount(z - 1, minlength=d)
        if np.any(seen == 0):
            missing = int(np.argmin(seen)) + 1
            raise UnobservedStateError(
                f"state {missing} of {name} never occurs; collapse states before fitting"
            )
    layout = _Layout.build(variant, data.d1, data.d2, copula_alpha_family, copula_eps_family)
    counts = transition_counts(data)
    objective = _make_objective(layout, counts)
    x_hat, f_hat, success, n_iter = _maximize_layout(layout, counts, data)

    # The shared-mechanism variant lives on the closure of the full model
    # (mechanism copula at its comonotone bound, equal keep rates). Plain
    # restarts can stall measurably short of that corner, so for the full
    # model also solve the restricted problem with the same machinery and
    # restart from its solution mapped onto the corner. This keeps
    # loglik(full fit) >= loglik(shared-mechanism fit) to optimizer precision
    # for any data.
    if layout.variant is Variant.M5:
        m2_layout = _Layout.build(Variant.M2, data.d1, data.d2, None, copula_eps_family)
        x2, _, _, nit2 = _maximize_layout(m2_layout, counts, data)
        k = (data.d1 - 1) + (data.d2 - 1)
        x_corner = np.concatenate(
            [x2[:k], [x2[k], x2[k], layout.bounds()[k + 2][1], x2[k + 1]]]
        )
        res = _lbfgsb(objective, x_corner, layout)
        n_iter += nit2 + int(res.nit)
        if res.fun <= f_hat:
            x_hat, f_hat, success = np.asarray(res.x, dtype=float), float(res.fun), bool(res.success)

    def grad(x):
        return objective(x)[1]

    max_grad = float(np.max(np.abs(grad(x_hat))))
    loglik = -f_hat
    aic, bic = information_criteria(loglik, layout.size, data.n)

    std_errors = None
    hess = _fd_hessian(grad, x_hat)
    try:
        np.linalg.cholesky(hess)  # positive-definiteness gate
        cov_eta = np.linalg.inv(hess)
        jac = layout.report_jacobian(x_hat)
        diag = np.diag(jac @ cov_eta @ jac.T)
        if np.all(np.isfinite(diag)) and np.all(diag >= 0.0):
            std_errors = {
                name: float(np.sqrt(var)) for name, var in zip(layout.report_names(), diag)
            }
    except np.linalg.LinAlgError:
        std_errors = None

    return FitReport(
        params_hat=layout.unpack(x_hat),
        std_errors=std_errors,
        loglik=loglik,
        n_params=layout.size,
        n_obs=data.n,
        aic=aic,
        bic=bic,
        converged=success,
        n_iterations=n_iter,
        max_gradient_norm=max_grad,
    )


# --------------------------------------------------------------------------
# Model comparison
# --------------------------------------------------------------------------

def information_criteria(loglik: float, n_params: int, n_obs: int) -> tuple[float, float]:
    """AIC and BIC; the BIC sample size is the number of conditional terms (T - 1)."""
    if n_obs < 2:
        raise ValueError("need at least 2 observations")
    aic = -2.0 * loglik + 2.0 * n_params
    bic = -2.0 * loglik + n_params * math.log(n_obs - 1)
    return aic, bic


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    df: int
    p_value: float


def likelihood_ratio_test(full: FitReport, nested: FitReport) -> LrtResult:
    """Chi-square likelihood ratio test of a nested fit against a fuller one.

    Only parameter counts are validated; actual nesting is the caller's
    responsibility. A statistic more negative than -1e-8 (the nested model
    out-fitting the full one) triggers a warning and is clamped to 0.
    """
    if nested.n_params >= full.n_params:
        raise ValueError("nested model must have fewer parameters than the full model")
    statistic = 2.0 * (full.loglik - nested.loglik)
    if statistic < -1e-8:
        warnings.warn(
            f"nested fit out-scored the full fit by {-statistic / 2:.3g}; "
            "models may be non-nested or a fit may not have converged",
            stacklevel=2,
        )
    statistic = max(statistic, 0.0)
    df = full.n_params - nested.n_params
    return LrtResult(statistic=statistic, df=df, p_value=float(stats.chi2.sf(statistic, df)))


def kendall_tau(x, y) -> float:
    """Tie-adjusted Kendall rank correlation (the tau-b variant)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d sequences of length >= 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("Kendall tau is undefined for constant input")
    return float(stats.kendalltau(x, y, variant="b").statistic)
