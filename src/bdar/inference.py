"""Conditional maximum-likelihood estimation and model comparison.

Fitting maximises the exact one-step conditional log-likelihood over a
reparameterised (unconstrained) space: keep probabilities through a scaled
logistic map onto [0, 1), innovation marginals through additive log ratios,
Gumbel dependence through 1 + exp, Frank dependence through a signed log
map. The objective returns the negative log-likelihood together with its
exact gradient, taken by the chain rule through the copula partials, the
innovation and mechanism cells and the transforms, so L-BFGS-B needs one
call per step. Each call builds the mechanism and innovation cells with
the builders that ``TransitionKernel.from_params`` uses: one copula pass
each gives the cells and the partials. So the value equals
``-conditional_loglik`` exactly wherever no term is floored. Standard
errors come from the Hessian on the unconstrained scale (central differences of that gradient), pushed back
to the reported scale by the delta method with the transforms' closed-form
Jacobian.

A fit reads the series only through ``transition_counts``: the objective,
the starting points and the unobserved-state check all work from the counts
plus the first pair, so after one counting pass the cost of a fit depends on
d1*d2 and not on the series length.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .copulas import CopulaFamily, CopulaSpec
from .joint import (
    _BLOCK,
    CategoricalMarginal,
    _innovation_cells,
    _innovation_cells_vjp,
    _mechanism_cells,
    _mechanism_cells_vjp,
)
# transition_tensor has no caller here; perfbench hooks bdar.inference.transition_tensor
from .model import (  # noqa: F401
    _FREE_SCALARS,
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
# by copula family; None for a keep rate
_ETA_BOUNDS = {
    None: _PHI_ETA_BOUNDS, CopulaFamily.GUMBEL: _GUMBEL_ETA_BOUNDS, CopulaFamily.FRANK: _FRANK_ETA_BOUNDS
}

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


def _simplex_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g @ _simplex_jacobian(p)`` in O(d): p (g - g.p) without its last entry."""
    return (p * (g - g @ p))[:-1]


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
class _Scalar:
    """One keep-rate or dependence coordinate of the fit's vector."""

    name: str  # from model._FREE_SCALARS
    family: CopulaFamily | None  # of the copula whose delta it is; None for a keep rate
    bounds: tuple[float, float]  # on the eta scale
    targets: tuple  # the raw parameters it sets: M2's phi sets phi1 and phi2

    def to_eta(self, value: float) -> float:
        return phi_to_eta(value) if self.family is None else delta_to_eta(value, self.family)

    def from_eta(self, eta: float) -> float:
        return eta_to_phi(eta) if self.family is None else eta_to_delta(eta, self.family)

    def slope(self, eta: float) -> float:
        return _phi_slope(eta) if self.family is None else _delta_slope(eta, self.family)


@dataclass(frozen=True)
class _Layout:
    """Map between the fit's unconstrained vector and a parameter set: the
    additive log ratios of both innovation marginals, then one ``_Scalar``
    per name of ``model._FREE_SCALARS[variant]``. A family is None where the
    variant has no free mechanism (``alpha``) or innovation delta."""

    variant: Variant
    d1: int
    d2: int
    alpha_family: CopulaFamily | None
    eps_family: CopulaFamily | None
    scalars: tuple[_Scalar, ...]

    @classmethod
    def build(cls, variant, d1, d2, alpha_family, eps_family) -> "_Layout":
        variant = Variant.parse(variant)
        families = {"delta_alpha": alpha_family, "delta_eps": eps_family}
        scalars = []
        for name in _FREE_SCALARS[variant]:
            family = CopulaFamily(families[name]) if name in families else None
            if family is CopulaFamily.PRODUCT:
                raise ValueError("a free dependence parameter needs a parametric copula family")
            targets = ("phi1", "phi2") if name == "phi" else (name,)
            scalars.append(_Scalar(name, family, _ETA_BOUNDS[family], targets))
        free = {s.name: s.family for s in scalars}
        return cls(variant, d1, d2, free.get("delta_alpha"), free.get("delta_eps"), tuple(scalars))

    @property
    def n_simplex(self) -> int:
        return self.d1 + self.d2 - 2

    @property
    def n_phi(self) -> int:
        return sum(s.family is None for s in self.scalars)

    @property
    def n_delta(self) -> int:
        return len(self.scalars) - self.n_phi

    @property
    def size(self) -> int:
        return self.n_simplex + len(self.scalars)

    def encode(self, p1, p2, natural: dict) -> np.ndarray:
        """The vector of simplexes ``p1``, ``p2`` and of the natural-scale
        scalars ``natural[name]``, named as in ``Bdar1Params.named_values``."""
        scalars = [s.to_eta(natural[s.name]) for s in self.scalars]
        return np.concatenate([simplex_to_eta(p1), simplex_to_eta(p2), scalars])

    def pack(self, params: Bdar1Params) -> np.ndarray:
        return self.encode(params.m1.probs, params.m2.probs, params.named_values())

    def raw_unpack(self, x: np.ndarray):
        """Decode to plain arrays and floats without parameter-object
        validation: ``(p1, p2, phi1, phi2, delta_alpha, delta_eps)``, with a
        dependence of 0.0 where the variant has none free."""
        k1, k = self.d1 - 1, self.n_simplex
        raw = {"delta_alpha": 0.0, "delta_eps": 0.0}
        for s, eta in zip(self.scalars, x[k:].tolist()):
            value = s.from_eta(eta)
            for t in s.targets:
                raw[t] = value
        p1, p2 = eta_to_simplex(x[:k1]), eta_to_simplex(x[k1:k])
        return p1, p2, raw["phi1"], raw["phi2"], raw["delta_alpha"], raw["delta_eps"]

    def copula_families(self):
        """The (mechanism, innovation) copula families as ``Bdar1Params``
        holds them: ``PRODUCT`` where the variant fixes independence, and a
        mechanism of ``None`` where both series share one keep rate."""
        alpha = self.alpha_family or CopulaFamily.PRODUCT
        return (alpha if self.n_phi == 2 else None), self.eps_family or CopulaFamily.PRODUCT

    def unpack(self, x: np.ndarray) -> Bdar1Params:
        p1, p2, phi1, phi2, delta_alpha, delta_eps = self.raw_unpack(x)
        alpha_family, eps_family = self.copula_families()
        return Bdar1Params(
            variant=self.variant,
            phi1=phi1,
            phi2=phi2,
            m1=CategoricalMarginal(tuple(p1)),
            m2=CategoricalMarginal(tuple(p2)),
            copula_alpha=None if alpha_family is None else CopulaSpec(alpha_family, delta_alpha),
            copula_eps=CopulaSpec(eps_family, delta_eps),
        )

    def embed(self, nested: "_Layout", x: np.ndarray, fill: dict) -> np.ndarray:
        """The point ``x`` of a nested layout as a vector of this one, on the
        eta scale: the simplexes as they are, each scalar from the nested
        coordinate that sets the same raw parameter, the rest from ``fill``."""
        k = self.n_simplex
        etas = dict(fill)
        etas.update((t, eta) for s, eta in zip(nested.scalars, x[k:]) for t in s.targets)
        return np.concatenate([x[:k], [etas[s.name] for s in self.scalars]])

    def bounds(self) -> list[tuple[float, float]]:
        return [_ALR_ETA_BOUNDS] * self.n_simplex + [s.bounds for s in self.scalars]

    def report_names(self) -> list[str]:
        names = [f"p1_{i}" for i in range(1, self.d1)] + [f"p2_{i}" for i in range(1, self.d2)]
        return names + [s.name for s in self.scalars]

    def _scalar_slopes(self, x: np.ndarray) -> np.ndarray:
        """d(natural)/d(eta) of the keep-rate and dependence coordinates."""
        return np.asarray([s.slope(eta) for s, eta in zip(self.scalars, x[self.n_simplex :].tolist())])

    def chain(self, x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps) -> np.ndarray:
        """Gradient on the unconstrained vector from gradients on the raw
        parameters; M2's shared ``phi`` takes the sum of both keep rates'."""
        g_named = {
            "phi": g_phi1 + g_phi2, "phi1": g_phi1, "phi2": g_phi2, "delta_alpha": g_alpha, "delta_eps": g_eps
        }
        g_scalar = [g_named[s.name] for s in self.scalars]
        slopes = self._scalar_slopes(x)
        return np.concatenate([_simplex_vjp(p1, g_p1), _simplex_vjp(p2, g_p2), slopes * g_scalar])

    def report_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d(report values)/dx: simplexes without their last entry, then keep
        rates and dependence parameters, in ``report_names`` order."""
        p1, p2 = self.raw_unpack(x)[:2]
        k1, k = self.d1 - 1, self.n_simplex
        jac = np.zeros((self.size, self.size))
        jac[:k1, :k1] = _simplex_jacobian(p1)[:-1]
        jac[k1:k, k1:k] = _simplex_jacobian(p2)[:-1]
        rest = np.arange(k, self.size)
        jac[rest, rest] = self._scalar_slopes(x)
        return jac


# --------------------------------------------------------------------------
# Likelihood
# --------------------------------------------------------------------------

def transition_counts(data: BivariateOrdinalSeries) -> np.ndarray:
    """Counts of one-step transitions, shape (d1, d2, d1, d2).

    The row-major code of each transition (previous pair, current pair) is
    written ``_BLOCK`` steps at a time into one (n - 1) array, which a single
    ``bincount`` counts: no other full-length temporary is made.
    """
    d1, d2 = data.d1, data.d2
    flat = np.empty(data.n - 1, dtype=np.int64)
    for start in range(0, data.n - 1, _BLOCK):
        stop = min(start + _BLOCK, data.n - 1)
        # the pair codes (z1 - 1) d2 + (z2 - 1) of steps start..stop
        codes = data.z1[start:stop + 1] * d2 + data.z2[start:stop + 1] - (d2 + 1)
        np.multiply(codes[:-1], d1 * d2, out=flat[start:stop])
        flat[start:stop] += codes[1:]
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
    shared-mechanism sub-fit; each distinct starting point is run, and
    counted, once. ``max_gradient_norm`` is the largest absolute entry of the
    objective's gradient at the estimate, on the unconstrained scale: the
    gradient the returned run ended with. It is not the projected gradient,
    so an estimate on a bound can report a large value. A converged M5 fit
    at the comonotone corner reads about 0.77, in phi1 and phi2: with the
    mechanism copula that close to comonotone the objective has a kink along
    phi1 = phi2.
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


def _series_summaries(counts: np.ndarray, first) -> list:
    """``(freq, repeat)`` for each series: how often each state occurs, and
    the lag-1 repeat rate.

    Both are read off the transition counts plus the first pair ``first``.
    The counts are exact integers in float64, so the result equals a direct
    scan of the series bit for bit.
    """
    n_steps = counts.sum()
    out = []
    for axes, z0 in (((1, 3), first[0]), ((0, 2), first[1])):
        moves = counts.sum(axis=axes)  # the series' own transitions, (d, d)
        freq = moves.sum(axis=0)
        freq[z0 - 1] += 1.0
        out.append((freq, float(np.trace(moves) / n_steps)))
    return out


def _empirical_marginal(freq: np.ndarray) -> np.ndarray:
    freq = np.maximum(freq, 0.5)  # keep starts off the simplex boundary
    return freq / freq.sum()


def _moment_phi(agree: float, p_hat: np.ndarray) -> float:
    # P(repeat) = phi + (1 - phi) * sum(p_i^2) under the model, solved for phi.
    psq = float(np.sum(p_hat**2))
    phi = (agree - psq) / max(1.0 - psq, 1e-9)
    return float(np.clip(phi, 0.02, 0.95))


def _start_deltas(family: CopulaFamily | None, level: str) -> float | None:
    if family is None:
        return None
    if level == "corner":
        # Start on the upper eta bound: the (near-)comonotone limit where the
        # shared-mechanism variant lives in the closure of the full model.
        return eta_to_delta(_ETA_BOUNDS[family][1], family)
    table = {
        CopulaFamily.GUMBEL: {"adjacent": 1.05, "mild": 1.5, "strong": 4.0, "negative": 1.05},
        CopulaFamily.FRANK: {"adjacent": 0.5, "mild": 2.0, "strong": 12.0, "negative": -2.0},
    }
    return table[family][level]


def _default_starts(summaries: list, layout: _Layout) -> list:
    """Up to five distinct L-BFGS-B starting points from ``_series_summaries``.

    A recipe that gives the same vector as an earlier one is dropped: an
    equal start gives an identical run. M1 has no dependence parameter, so
    its ``mild``, ``adjacent`` and ``strong`` recipes coincide, and M2's
    ``strong`` and ``corner`` recipes do.
    """
    (freq1, repeat1), (freq2, repeat2) = summaries
    p1_hat = _empirical_marginal(freq1)
    p2_hat = _empirical_marginal(freq2)
    phi1_hat = _moment_phi(repeat1, p1_hat)
    phi2_hat = _moment_phi(repeat2, p2_hat)
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
        natural = {"phi": 0.5 * (phi1 + phi2), "phi1": phi1, "phi2": phi2}
        natural["delta_alpha"] = _start_deltas(layout.alpha_family, level_alpha)
        natural["delta_eps"] = _start_deltas(layout.eps_family, level_eps)
        x = layout.encode(m1, m2, natural)
        if not any(np.array_equal(x, earlier) for earlier in starts):
            starts.append(x)
    return starts


def _make_objective(layout: _Layout, counts: np.ndarray):
    """Negative log-likelihood and its gradient over the unconstrained vector.

    Works from the sufficient statistics (transition counts) and the mixture
    that ``conditional_loglik`` uses. The cells come from the builders of
    ``TransitionKernel.from_params``, whose one copula pass per call also
    gives the partials the gradient needs. So the value equals
    ``-conditional_loglik(layout.unpack(x), data)`` exactly (``==``) wherever
    no term is floored. The gradient is exact: the chain rule runs back
    through the four-term mixture, the mechanism and innovation cells (copula
    partials) and the transforms.
    Terms floored at ``MIN_TERM_PROB`` and clamped cells carry no gradient.
    """
    obs = Transitions.from_counts(counts)
    weights = obs.weights
    cell = obs.i * layout.d2 + obs.j
    alpha_family, eps_family = layout.copula_families()

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p1, p2, phi1, phi2, delta_alpha, delta_eps = layout.raw_unpack(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pe, eps_partials = _innovation_cells(p1, p2, eps_family, delta_eps)
            mech, alpha_partials = _mechanism_cells(phi1, phi2, alpha_family, delta_alpha)
        kernel = TransitionKernel(mech, pe, p1, p2)
        terms = kernel.terms(obs)
        probs = kernel.mix(terms)
        floored = np.maximum(probs, MIN_TERM_PROB)
        value = -float(weights @ np.log(floored))

        g_probs = np.where(probs >= MIN_TERM_PROB, -weights / floored, 0.0)
        m00, m01, m10, m11 = mech.ravel().tolist()
        g_pe = np.bincount(cell, weights=m00 * g_probs, minlength=pe.size).reshape(pe.shape)
        g_p1, g_p2, g_eps = _innovation_cells_vjp(eps_partials, g_pe * (pe > 0.0))
        g_p1 += np.bincount(obs.i, weights=m01 * obs.keep2 * g_probs, minlength=layout.d1)
        g_p2 += np.bincount(obs.j, weights=m10 * obs.keep1 * g_probs, minlength=layout.d2)
        g_mech = [
            float(g_probs @ term) if m > 0.0 else 0.0 for m, term in zip((m00, m01, m10, m11), terms)
        ]
        g_phi1, g_phi2, g_alpha = _mechanism_cells_vjp(alpha_partials, *g_mech)
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


def _maximize_layout(layout: _Layout, counts: np.ndarray, summaries: list):
    """Best L-BFGS-B optimum over the default restarts.

    Returns ``(best, n_iter)``: the run that reached the lowest objective (the
    first of equal ones) and the iterations of every run made here.
    """
    objective = _make_objective(layout, counts)
    best, n_iter = None, 0
    for x0 in _default_starts(summaries, layout):
        res = _lbfgsb(objective, x0, layout)
        n_iter += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    return best, n_iter


def fit(
    data: BivariateOrdinalSeries,
    variant,
    copula_alpha_family="frank",
    copula_eps_family="frank",
) -> FitReport:
    """Conditional maximum-likelihood fit of one model variant.

    Runs a quasi-Newton search (L-BFGS-B with the exact gradient of the
    objective) from up to five distinct starting points: method-of-moments
    keep probabilities from the lag-1 repeat rate, empirical marginals, and a
    spread of dependence levels from near-independence to strong. The best
    optimum is kept; for M5 it is also compared with a refit from the
    shared-mechanism corner, which wins ties. That refit starts from the M2
    optimum embedded by name on the eta scale (``_Layout.embed``): M2's
    ``phi`` as both keep rates, its ``delta_eps`` as is, and ``delta_alpha``
    on its upper (comonotone) bound. The same data give an identical report.
    Both copula family names must be valid, also where the variant frees
    no delta of that copula.
    """
    alpha_family, eps_family = CopulaFamily(copula_alpha_family), CopulaFamily(copula_eps_family)
    if data.n < MIN_SERIES_LENGTH:
        raise ValueError(f"need at least {MIN_SERIES_LENGTH} observations, got {data.n}")
    counts = transition_counts(data)
    summaries = _series_summaries(counts, (data.z1[0], data.z2[0]))
    for name, (freq, _) in zip(("series 1", "series 2"), summaries):
        if np.any(freq == 0.0):
            missing = int(np.argmin(freq)) + 1
            raise UnobservedStateError(
                f"state {missing} of {name} never occurs; collapse states before fitting"
            )
    layout = _Layout.build(variant, data.d1, data.d2, alpha_family, eps_family)
    objective = _make_objective(layout, counts)
    best, n_iter = _maximize_layout(layout, counts, summaries)

    # The shared-mechanism variant lives on the closure of the full model
    # (mechanism copula at its comonotone bound, equal keep rates). Plain
    # restarts can stall measurably short of that corner, so for the full
    # model also solve the restricted problem with the same machinery and
    # restart from its solution mapped onto the corner. This keeps
    # loglik(full fit) >= loglik(shared-mechanism fit) to optimizer precision
    # for any data.
    if layout.variant is Variant.M5:
        m2_layout = _Layout.build(Variant.M2, data.d1, data.d2, None, eps_family)
        best2, nit2 = _maximize_layout(m2_layout, counts, summaries)
        corner = {"delta_alpha": _ETA_BOUNDS[layout.alpha_family][1]}
        res = _lbfgsb(objective, layout.embed(m2_layout, best2.x, corner), layout)
        n_iter += nit2 + int(res.nit)
        if res.fun <= best.fun:
            best = res

    def grad(x):
        return objective(x)[1]

    x_hat = best.x
    # L-BFGS-B returns the objective's gradient at its final point as jac
    max_grad = float(np.max(np.abs(best.jac)))
    loglik = -float(best.fun)
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
        converged=bool(best.success),
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
    # chdtrc is the chi-square survival function that scipy.stats.chi2.sf
    # evaluates; importing scipy.stats would add ~0.5 s to every start of bdar
    return LrtResult(statistic=statistic, df=df, p_value=float(special.chdtrc(df, statistic)))


def kendall_tau(x, y) -> float:
    """Tie-adjusted Kendall rank correlation (the tau-b variant)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("inputs must be equal-length 1-d sequences of length >= 2")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("Kendall tau is undefined for constant input")
    from scipy import stats  # not at module level: see likelihood_ratio_test

    return float(stats.kendalltau(x, y, variant="b").statistic)
