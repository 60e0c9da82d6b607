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
each gives the cells and the partials. It scores the counts against the
kernel's ``by_pattern`` probabilities cell by cell, as
``conditional_loglik`` does, so the value equals ``-conditional_loglik``
exactly wherever no term is floored. Standard
errors come from the Hessian on the unconstrained scale (central differences of that gradient), pushed back
to the reported scale by the delta method with the transforms' closed-form
Jacobian.

A fit reads the series only through ``transition_counts``. The one-step
probability depends on the previous pair only through whether each series
repeated its state, so the counts have 4*d1*d2 cells: (first series
repeated, second series repeated, current pair). The objective, the starting
points and the unobserved-state check all work from these counts plus the
first pair, so after one counting pass the cost of a fit depends on d1*d2
and not on the series length.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._deferred import DeferredModule
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
    Variant,
    transition_tensor,
)

# scipy loads at the first fit, not with bdar
optimize = DeferredModule("scipy.optimize")
special = DeferredModule("scipy.special")

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
    # scipy.special.logit's formulas, so the result is its bit for bit: the
    # log1p pair keeps full precision next to 1/2, where x/(1 - x) nears 1
    if 0.3 <= ratio <= 0.65:
        s = 2.0 * (ratio - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(ratio / (1.0 - ratio))


def eta_to_phi(eta: float) -> float:
    # scipy.special.expit's formula, so the result is its bit for bit
    try:
        return PHI_CAP * (1.0 / (1.0 + math.exp(-eta)))
    except OverflowError:  # where scipy's exp gives inf and expit 0
        return 0.0


def simplex_to_eta(probs) -> np.ndarray:
    """Additive log ratios against the last state's probability."""
    p = np.asarray(probs, dtype=float)
    return np.log(p[:-1] / p[-1])


def eta_to_simplex(eta) -> np.ndarray:
    """The softmax of (eta, 0), built in one array: shifted by its largest
    entry, exponentiated, divided by its sum."""
    z = np.zeros(len(eta) + 1)
    z[:-1] = eta
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


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


def _gumbel_from_eta(eta: float) -> float:
    return float(1.0 + np.exp(eta))


def _frank_from_eta(eta: float) -> float:
    # sign(eta) expm1(|eta|); an eta of -0.0 gives +0.0, as np.sign's 0 does
    e = float(np.expm1(abs(eta)))
    return -e if eta < 0.0 else e


def eta_to_delta(eta: float, family: CopulaFamily) -> float:
    return _gumbel_from_eta(eta) if family is CopulaFamily.GUMBEL else _frank_from_eta(eta)


def _frank_slope(eta: float) -> float:
    return math.exp(abs(eta))


# Per copula family (None for a keep rate): the map from eta to the natural
# scale and its slope d(natural)/d(eta), which is delta - 1 for Gumbel and
# 1 + |delta| for Frank.
_FROM_ETA = {
    None: (eta_to_phi, _phi_slope),
    CopulaFamily.GUMBEL: (_gumbel_from_eta, math.exp),
    CopulaFamily.FRANK: (_frank_from_eta, _frank_slope),
}

# The raw parameters a scalar coordinate sets, as ``_Layout.raw_unpack``
# returns them after the simplexes.
_RAW_SCALARS = ("phi1", "phi2", "delta_alpha", "delta_eps")


@dataclass(frozen=True)
class _Scalar:
    """One keep-rate or dependence coordinate of the fit's vector, with its
    family's map from eta and slope resolved when the layout is built."""

    name: str  # from model._FREE_SCALARS
    family: CopulaFamily | None  # of the copula whose delta it is; None for a keep rate
    bounds: tuple[float, float]  # on the eta scale
    slots: tuple  # the raw parameters it sets, by index into _RAW_SCALARS: M2's phi sets phi1 and phi2
    from_eta: Callable[[float], float]  # eta -> natural value
    slope: Callable[[float], float]  # eta -> d(natural)/d(eta)

    def to_eta(self, value: float) -> float:
        return phi_to_eta(value) if self.family is None else delta_to_eta(value, self.family)


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
            slots = (0, 1) if name == "phi" else (_RAW_SCALARS.index(name),)
            scalars.append(_Scalar(name, family, _ETA_BOUNDS[family], slots, *_FROM_ETA[family]))
        free = {s.name: s.family for s in scalars}
        return cls(variant, d1, d2, free.get("delta_alpha"), free.get("delta_eps"), tuple(scalars))

    @property
    def n_simplex(self) -> int:
        return self.d1 + self.d2 - 2

    @property
    def n_phi(self) -> int:
        return sum(s.family is None for s in self.scalars)

    @property
    def size(self) -> int:
        return self.n_simplex + len(self.scalars)

    def encode(self, p1, p2, natural: dict) -> np.ndarray:
        """The vector of simplexes ``p1``, ``p2`` and of the natural-scale
        scalars ``natural[name]``, named as in ``Bdar1Params.named_values``."""
        scalars = [s.to_eta(natural[s.name]) for s in self.scalars]
        return np.concatenate([simplex_to_eta(p1), simplex_to_eta(p2), scalars])

    def raw_unpack(self, x: np.ndarray):
        """Decode to plain arrays and floats without parameter-object
        validation: ``(p1, p2, phi1, phi2, delta_alpha, delta_eps)``, with a
        dependence of 0.0 where the variant has none free."""
        k1, k = self.d1 - 1, self.n_simplex
        raw = [0.0, 0.0, 0.0, 0.0]  # every variant sets both keep rates
        for s, eta in zip(self.scalars, x[k:].tolist()):
            value = s.from_eta(eta)
            for slot in s.slots:
                raw[slot] = value
        return eta_to_simplex(x[:k1]), eta_to_simplex(x[k1:k]), *raw

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
        etas.update((_RAW_SCALARS[t], eta) for s, eta in zip(nested.scalars, x[k:]) for t in s.slots)
        return np.concatenate([x[:k], [etas[s.name] for s in self.scalars]])

    def bounds(self) -> list[tuple[float, float]]:
        return [_ALR_ETA_BOUNDS] * self.n_simplex + [s.bounds for s in self.scalars]

    def report_names(self) -> list[str]:
        names = [f"p1_{i}" for i in range(1, self.d1)] + [f"p2_{i}" for i in range(1, self.d2)]
        return names + [s.name for s in self.scalars]

    def chain(self, x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps) -> np.ndarray:
        """Gradient on the unconstrained vector from gradients on the raw
        parameters; M2's shared ``phi`` takes the sum of both keep rates'.
        Each scalar's slope times its gradient is a product of Python floats."""
        k1, k = self.d1 - 1, self.n_simplex
        grad = np.empty(self.size)
        grad[:k1] = _simplex_vjp(p1, g_p1)
        grad[k1:k] = _simplex_vjp(p2, g_p2)
        g_raw = (g_phi1, g_phi2, g_alpha, g_eps)
        for i, (s, eta) in enumerate(zip(self.scalars, x[k:].tolist()), k):
            g = g_raw[s.slots[0]]
            for slot in s.slots[1:]:
                g = g + g_raw[slot]
            grad[i] = s.slope(eta) * g
        return grad

    def report_jacobian(self, x: np.ndarray) -> np.ndarray:
        """d(report values)/dx: simplexes without their last entry, then keep
        rates and dependence parameters, in ``report_names`` order."""
        p1, p2 = self.raw_unpack(x)[:2]
        k1, k = self.d1 - 1, self.n_simplex
        jac = np.zeros((self.size, self.size))
        jac[:k1, :k1] = _simplex_jacobian(p1)[:-1]
        jac[k1:k, k1:k] = _simplex_jacobian(p2)[:-1]
        rest = np.arange(k, self.size)
        jac[rest, rest] = [s.slope(eta) for s, eta in zip(self.scalars, x[k:].tolist())]
        return jac


# --------------------------------------------------------------------------
# Likelihood
# --------------------------------------------------------------------------

def _pattern_codes(data: BivariateOrdinalSeries):
    """``(start, codes)`` per block of ``_BLOCK`` steps: for the steps from
    ``start`` to ``start + len(codes)`` (0-based), the row-major index of
    (first series repeated, second series repeated, current pair) in a
    (2, 2, d1, d2) array, as int64: the states are stored as int8 up to 127
    states and int16 up to 32,767, and a product such as ``z1 * d2`` in that
    dtype would wrap once d1 d2 passes 127 or 32,767."""
    d1, d2 = data.d1, data.d2
    for start in range(0, data.n - 1, _BLOCK):
        stop = min(start + _BLOCK, data.n - 1)
        z1, z2 = data.z1[start:stop + 1], data.z2[start:stop + 1]
        # the repeat pattern 2 r1 + r2 in one byte per step
        pattern = (z1[1:] == z1[:-1]).view(np.uint8) << 1
        pattern |= (z2[1:] == z2[:-1]).view(np.uint8)
        # (pattern d1 + z1 - 1) d2 + z2 - 1, every product taken in int64
        codes = np.multiply(pattern, d1, dtype=np.int64)
        codes += z1[1:]
        codes *= d2
        codes += z2[1:]
        codes -= d2 + 1
        yield start, codes


def transition_counts(data: BivariateOrdinalSeries) -> np.ndarray:
    """Counts of one-step outcomes by repeat pattern, shape (2, 2, d1, d2).

    ``counts[r1, r2, i, j]`` is the number of steps that end in the 0-based
    pair (i, j), where ``r1`` (``r2``) is 1 if the first (second) series
    repeated its previous state. The transition kernel depends on the
    previous pair only through these repeats, so the 4 d1 d2 cells are the
    likelihood's sufficient statistic. Each block of ``_BLOCK`` steps is
    counted by one ``bincount``: no full-length temporary is made.
    """
    counts = np.zeros(4 * data.d1 * data.d2, dtype=np.int64)
    for _, codes in _pattern_codes(data):
        counts += np.bincount(codes, minlength=counts.size)
    return counts.reshape(2, 2, data.d1, data.d2).astype(float)


def conditional_loglik(params: Bdar1Params, data: BivariateOrdinalSeries) -> float:
    """Sum over t >= 2 of log P(pair at t | pair at t-1).

    Raises ``LikelihoodError`` (naming the earliest offending time step) if
    any observed transition has probability below ``MIN_TERM_PROB``, rather
    than silently returning -inf.
    """
    if data.d1 > params.d1 or data.d2 > params.d2:
        raise ValueError("data states exceed the parameter state space")
    counts = transition_counts(data)
    # the series may visit fewer states than the parameters hold
    probs = TransitionKernel.from_params(params).by_pattern()[:, :, :data.d1, :data.d2]
    impossible = ((counts > 0) & (probs < MIN_TERM_PROB)).ravel()
    if impossible.any():
        hits = (start + np.flatnonzero(impossible[codes]) for start, codes in _pattern_codes(data))
        k = int(next(hit[0] for hit in hits if len(hit)))  # the step from k to k + 1
        s, l, i, j = data.z1[k], data.z2[k], data.z1[k + 1], data.z2[k + 1]
        raise LikelihoodError(
            f"transition ({s},{l}) -> ({i},{j}) at t={k + 2} "
            "has zero probability under these parameters"
        )
    return float(np.vdot(counts, np.log(np.maximum(probs, MIN_TERM_PROB))))


def _central_gradient(fun, x: np.ndarray, rel_step: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, step ``rel_step``
    times max(1, |x_i|): the oracle the analytic objective gradient is
    tested against."""
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
    counted, once. M5 counts the sub-fit's iterations also where it took
    that optimum from an earlier M2 fit (``fit`` on shared ``_Counts``),
    so the report does not depend on whether the sub-fit ran.
    ``max_gradient_norm`` is the largest absolute entry of the objective's
    gradient at the estimate, on the unconstrained scale: the gradient the
    returned run ended with. It is not the projected gradient,
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

    Both are read off the repeat-pattern counts plus the first pair
    ``first``. The counts are exact integers in float64, so the result
    equals a direct scan of the series bit for bit.
    """
    n_steps = counts.sum()
    repeats = (counts[1].sum(), counts[:, 1].sum())
    out = []
    for k, z0 in enumerate(first):
        freq = counts.sum(axis=(0, 1, 3 - k))  # by the series' current state
        freq[z0 - 1] += 1.0
        out.append((freq, float(repeats[k] / n_steps)))
    return out


def _empirical_marginal(freq: np.ndarray) -> np.ndarray:
    freq = np.maximum(freq, 0.5)  # keep starts off the simplex boundary
    return freq / freq.sum()


def _moment_phi(agree: float, p_hat: np.ndarray) -> float:
    # P(repeat) = phi + (1 - phi) * sum(p_i^2) under the model, solved for phi.
    psq = float(np.sum(p_hat**2))
    phi = (agree - psq) / max(1.0 - psq, 1e-9)
    return float(np.clip(phi, 0.02, 0.95))


# The start recipes, the only definition of the points ``fit`` runs
# L-BFGS-B from. Per recipe: the marginals (the empirical frequencies, or
# uniform), the keep rates ("moment": the method-of-moments rate of each
# series from its lag-1 repeat rate; "mean": both at the mean of those two;
# a number: both at it), and the start delta of the mechanism and of the
# innovation copula by family, where None starts it on its upper eta bound.
# ``mild``, ``adjacent`` and ``strong`` span near-independence to strong
# dependence; ``negative`` is negative for Frank and near-independent for
# Gumbel. ``corner`` is the shared-mechanism corner: equal keep rates and
# the mechanism copula at its comonotone bound (only the mechanism; a pinned
# innovation copula would start on a likelihood cliff). Restarts, this one
# included, can stop short of the M2 fit; the corner refit in ``fit`` closes
# the gap (test_m5_reaches_shared_mechanism_fit).
_RECIPES = {
    "mild": ("empirical", "moment", {"gumbel": 1.5, "frank": 2.0}, {"gumbel": 1.5, "frank": 2.0}),
    "adjacent": ("empirical", "moment", {"gumbel": 1.05, "frank": 0.5}, {"gumbel": 1.05, "frank": 0.5}),
    "strong": ("empirical", "moment", {"gumbel": 4.0, "frank": 12.0}, {"gumbel": 4.0, "frank": 12.0}),
    "negative": ("uniform", 0.3, {"gumbel": 1.05, "frank": -2.0}, {"gumbel": 1.05, "frank": -2.0}),
    "corner": ("empirical", "mean", None, {"gumbel": 4.0, "frank": 12.0}),
}
_ALL_RECIPES = tuple(_RECIPES)

# The recipes each variant's fit runs from, in run order: the smallest sets
# whose fits stay within max(1e-8, 1e-12 |loglik|) of the fit from all five
# on every dataset of ``tools/start_study.py`` seeds 3, 5, 7 and 9. M3 and M4
# need each of the five: each is the only one whose run reaches the best
# optimum on some series (test_each_start_recipe_is_needed). So does M5, its
# corner refit included, and M2 needs both of its two
# (test_each_default_recipe_is_needed).
_START_RECIPES = {
    # M1 is two univariate DAR(1) fits; each log-likelihood is a sum of logs
    # of affine functions of a = (1 - phi) p, so concave, and every
    # stationary point is its maximum: one start suffices (TestPrunedStarts).
    Variant.M1: ("mild",),
    # ``strong`` alone stalls far from independence on some series, ``mild``
    # alone short of strong dependence; M2's ``corner`` start is ``strong``
    Variant.M2: ("mild", "strong"),
    Variant.M3: _ALL_RECIPES,
    Variant.M4: _ALL_RECIPES,
    Variant.M5: _ALL_RECIPES,
}


def _recipe_starts(summaries: list, layout: _Layout, names) -> list:
    """The start vector of each recipe in ``names`` (``_RECIPES``) on
    ``layout``, from ``_series_summaries``."""
    (freq1, repeat1), (freq2, repeat2) = summaries
    empirical = _empirical_marginal(freq1), _empirical_marginal(freq2)
    uniform = np.full(layout.d1, 1.0 / layout.d1), np.full(layout.d2, 1.0 / layout.d2)
    moment = _moment_phi(repeat1, empirical[0]), _moment_phi(repeat2, empirical[1])
    mean = 0.5 * (moment[0] + moment[1])
    starts = []
    for name in names:
        marginals, keep, alpha, eps = _RECIPES[name]
        phi1, phi2 = {"moment": moment, "mean": (mean, mean)}.get(keep, (keep, keep))
        natural = {"phi": 0.5 * (phi1 + phi2), "phi1": phi1, "phi2": phi2}
        deltas = {"delta_alpha": (layout.alpha_family, alpha), "delta_eps": (layout.eps_family, eps)}
        for key, (family, levels) in deltas.items():
            if family is not None and levels is None:
                natural[key] = eta_to_delta(_ETA_BOUNDS[family][1], family)
            elif family is not None:
                natural[key] = levels[family.value]
        m1, m2 = empirical if marginals == "empirical" else uniform
        starts.append(layout.encode(m1, m2, natural))
    return starts


def _default_starts(summaries: list, layout: _Layout) -> list:
    """The distinct starts of ``layout``'s variant: its ``_START_RECIPES``
    less any that gives the same vector as an earlier one, since an equal
    start gives an identical run (M3's ``strong`` and ``corner`` coincide
    when the two moment keep rates are equal)."""
    starts = []
    for x in _recipe_starts(summaries, layout, _START_RECIPES[layout.variant]):
        if not any(np.array_equal(x, earlier) for earlier in starts):
            starts.append(x)
    return starts


def _make_objective(layout: _Layout, counts: np.ndarray):
    """Negative log-likelihood and its gradient over the unconstrained vector.

    Scores the sufficient statistics (the repeat-pattern counts of
    ``transition_counts``) against ``TransitionKernel.by_pattern``, the
    probabilities indexed like them, cell by cell as ``conditional_loglik``
    does. The cells come from the builders of ``TransitionKernel.from_params``,
    whose one copula pass per call also gives the partials the gradient
    needs. So the value equals
    ``-conditional_loglik(layout.unpack(x), data)`` exactly (``==``) wherever
    no term is floored. The gradient is exact: the chain rule runs back
    through the four-term mixture (sums of the cell gradients over the
    repeat patterns each term enters), the mechanism and innovation cells
    (copula partials) and the transforms.
    Terms floored at ``MIN_TERM_PROB`` and clamped cells carry no gradient.

    On a few dozen cells a call is a chain of small numpy calls, and their
    fixed cost, not the arithmetic, sets its time. So each scalar's map from
    eta and its slope are resolved when the layout is built, arrays are
    written in place with ``out=`` where that saves a temporary, and sums
    are taken by ``np.add.reduce``. The floating-point operations and their
    order stay those of the direct formulas, bit for bit: numpy regroups
    sums of 8 or more entries, so a reordered sum would change the digests
    of ``TestFrozenDigests``. The cell builders are looked up in this
    module's globals at each call, where the benchmark's tracer hooks them.
    """
    alpha_family, eps_family = layout.copula_families()
    neg_counts = -counts

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p1, p2, phi1, phi2, delta_alpha, delta_eps = layout.raw_unpack(x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pe, eps_partials = _innovation_cells(p1, p2, eps_family, delta_eps)
            mech, alpha_partials = _mechanism_cells(phi1, phi2, alpha_family, delta_alpha)
        probs = TransitionKernel(mech, pe, p1, p2).by_pattern()
        floored = np.maximum(probs, MIN_TERM_PROB)
        # -counts / floored, and 0 where the term is floored
        g_probs = np.divide(neg_counts, floored, out=np.zeros(probs.shape), where=probs >= MIN_TERM_PROB)
        value = -float(np.vdot(counts, np.log(floored, out=floored)))

        g_pe = np.add.reduce(g_probs, axis=(0, 1))
        g_keep2 = np.add.reduce(g_probs[:, 1], axis=(0, 2))  # the m01 p1[i] term, by i
        g_keep1 = np.add.reduce(g_probs[1], axis=(0, 1))  # the m10 p2[j] term, by j
        g_terms = (np.vdot(g_pe, pe), g_keep2 @ p1, g_keep1 @ p2, np.add.reduce(g_probs[1, 1], axis=None))
        m00, m01, m10, m11 = mech.ravel().tolist()
        g_mech = [float(g) if m > 0.0 else 0.0 for m, g in zip((m00, m01, m10, m11), g_terms)]
        g_p1, g_p2, g_eps = _innovation_cells_vjp(eps_partials, m00 * g_pe * (pe > 0.0))
        g_p1 += m01 * g_keep2
        g_p2 += m10 * g_keep1
        g_phi1, g_phi2, g_alpha = _mechanism_cells_vjp(alpha_partials, *g_mech)
        grad = layout.chain(x, p1, p2, g_p1, g_p2, g_phi1, g_phi2, g_alpha, g_eps)
        return value, grad

    return objective


def _lbfgsb(objective, x0: np.ndarray, layout: _Layout):
    """One L-BFGS-B run of ``objective`` from ``x0`` within the layout's bounds.

    scipy asks for the value and then the gradient at each point, each time
    with a fresh copy of it. Both come from one objective call, kept for the
    latest point and found again by the bytes of ``x``: one compare per
    point, cheaper than the two numeric compares of ``jac=True``."""
    last_key, last = None, None  # x.tobytes() and (value, gradient) of the latest call

    def value_and_gradient(x):
        nonlocal last_key, last
        key = x.tobytes()
        if key != last_key:
            last_key, last = key, objective(x)
        return last

    return optimize.minimize(
        lambda x: value_and_gradient(x)[0],
        x0,
        jac=lambda x: value_and_gradient(x)[1],
        method="L-BFGS-B",
        bounds=layout.bounds(),
        options={"maxiter": LBFGSB_MAX_ITER, "ftol": 1e-12, "gtol": LBFGSB_GTOL},
    )


class _Counts:
    """A series as ``fit`` reads it: its ``transition_counts``, first pair,
    length and state-space sizes, with the ``_series_summaries`` the starts
    come from. ``optima`` keeps what ``_maximize_layout`` reached, by
    ``_Layout``. ``run_compare`` builds one and passes it to every variant's
    fit, so M5's shared-mechanism sub-fit and the M2 variant share one
    optimum."""

    def __init__(self, data: BivariateOrdinalSeries):
        self.counts = transition_counts(data)
        self.first = (data.z1[0], data.z2[0])
        self.n, self.d1, self.d2 = data.n, data.d1, data.d2
        self.summaries = _series_summaries(self.counts, self.first)
        self.optima = {}


def _maximize_layout(layout: _Layout, objective, data: _Counts):
    """Best L-BFGS-B optimum of ``objective`` (``_make_objective`` of
    ``layout`` on ``data.counts``) over the default restarts.

    Returns ``(best, n_iter)``: the run that reached the lowest objective (the
    first of equal ones) and the iterations of every run made for it. The
    pair is kept in ``data.optima``: an equal layout on the same counts has
    the same starts and runs, so a later call returns it without running.
    """
    if layout not in data.optima:
        best, n_iter = None, 0
        for x0 in _default_starts(data.summaries, layout):
            res = _lbfgsb(objective, x0, layout)
            n_iter += int(res.nit)
            if best is None or res.fun < best.fun:
                best = res
        data.optima[layout] = best, n_iter
    return data.optima[layout]


def fit(
    data: BivariateOrdinalSeries | _Counts,
    variant,
    copula_alpha_family="frank",
    copula_eps_family="frank",
) -> FitReport:
    """Conditional maximum-likelihood fit of one model variant.

    Runs a quasi-Newton search (L-BFGS-B with the exact gradient of the
    objective) from the variant's start recipes (``_START_RECIPES``, drawn
    from the table ``_RECIPES``). The best optimum is kept; for M5 it is
    also compared with a refit from the shared-mechanism corner, which wins
    ties. That refit starts from the M2 optimum embedded by name on the eta
    scale (``_Layout.embed``): M2's ``phi`` as both keep rates, its
    ``delta_eps`` as is, and ``delta_alpha`` on its upper (comonotone)
    bound. The same data give an identical report. Both copula family names
    must be valid, also where the variant frees no delta of that copula.

    ``data`` is a series, or the ``_Counts`` of one that fits of several
    variants share. A shared M5 fit then takes the M2 optimum that an
    earlier M2 fit with the same innovation family reached, and leaves its
    own for a later one; the report is the same either way.
    """
    alpha_family, eps_family = CopulaFamily(copula_alpha_family), CopulaFamily(copula_eps_family)
    if not isinstance(data, _Counts):
        data = _Counts(data)
    if data.n < MIN_SERIES_LENGTH:
        raise ValueError(f"need at least {MIN_SERIES_LENGTH} observations, got {data.n}")
    for name, (freq, _) in zip(("series 1", "series 2"), data.summaries):
        if np.any(freq == 0.0):
            missing = int(np.argmin(freq)) + 1
            raise UnobservedStateError(
                f"state {missing} of {name} never occurs; collapse states before fitting"
            )
    layout = _Layout.build(variant, data.d1, data.d2, alpha_family, eps_family)
    objective = _make_objective(layout, data.counts)
    best, n_iter = _maximize_layout(layout, objective, data)

    # The shared-mechanism variant lives on the closure of the full model
    # (mechanism copula at its comonotone bound, equal keep rates). Plain
    # restarts can stall measurably short of that corner, so for the full
    # model also solve the restricted problem with the same machinery and
    # restart from its solution mapped onto the corner. This keeps
    # loglik(full fit) >= loglik(shared-mechanism fit) to optimizer precision
    # for any data.
    if layout.variant is Variant.M5:
        m2_layout = _Layout.build(Variant.M2, data.d1, data.d2, None, eps_family)
        best2, nit2 = _maximize_layout(m2_layout, _make_objective(m2_layout, data.counts), data)
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
    # chdtrc is the chi-square survival function that scipy's chi2.sf
    # evaluates, without the ~0.5 s import of its stats package;
    # scipy.special itself loaded at the first fit, which made these reports
    return LrtResult(statistic=statistic, df=df, p_value=float(special.chdtrc(df, statistic)))
