"""The DAR(1) and BDAR(1) processes.

A DAR(1) series keeps its previous value with probability phi and otherwise
draws fresh from an innovation distribution on the same state space. The
bivariate BDAR(1) couples two such series twice over: the two keep/innovate
indicators are joined by one copula, the two innovations by another.

This module holds the parameter container, the one-step transition kernel,
the exact conditional and stationary pmfs, moment recursions, and path
simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import PRODUCT, CopulaFamily, CopulaSpec, _json_float
from .joint import (
    _BLOCK,
    CategoricalMarginal,
    _draw_cells,
    _innovation_cells,
    _mechanism_cells,
    sample_joint,
)


class Variant(str, enum.Enum):
    """The five nested model variants.

    M1: independent series (both copulas product).
    M2: one shared keep/innovate indicator, dependent innovations.
    M3: independent indicators, dependent innovations.
    M4: dependent indicators, independent innovations.
    M5: dependent indicators and dependent innovations.
    """

    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"
    M5 = "m5"

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        if text in ("1", "2", "3", "4", "5"):
            text = "m" + text
        return cls(text)


# Each variant's free scalars in the fit's order: ``phi`` is M2's shared keep
# rate (phi1 = phi2), ``delta_alpha`` and ``delta_eps`` the mechanism and
# innovation dependence. A copula without a free delta is the product, except
# M2's mechanism, which has none.
_FREE_SCALARS = {
    Variant.M1: ("phi1", "phi2"),
    Variant.M2: ("phi", "delta_eps"),
    Variant.M3: ("phi1", "phi2", "delta_eps"),
    Variant.M4: ("phi1", "phi2", "delta_alpha"),
    Variant.M5: ("phi1", "phi2", "delta_alpha", "delta_eps"),
}


@dataclass(frozen=True, eq=False)
class Bdar1Params:
    """Full parameter set of a BDAR(1) model.

    ``copula_alpha`` couples the two keep/innovate indicators (absent for
    M2, where a single shared indicator makes the mechanism comonotone, and
    forced to product for M1/M3). ``copula_eps`` couples the innovations
    (forced to product for M1/M4).
    """

    variant: Variant
    phi1: float
    phi2: float
    m1: CategoricalMarginal
    m2: CategoricalMarginal
    copula_alpha: CopulaSpec | None = None
    copula_eps: CopulaSpec | None = None

    def __post_init__(self):
        variant = Variant.parse(self.variant)
        object.__setattr__(self, "variant", variant)
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if not 0.0 <= phi < 1.0:
                raise ValueError(f"{name}={phi} outside the stationary range [0, 1)")
        object.__setattr__(self, "phi1", float(self.phi1))
        object.__setattr__(self, "phi2", float(self.phi2))
        free = _FREE_SCALARS[variant]
        copulas = (("delta_alpha", "copula_alpha"), ("delta_eps", "copula_eps"))
        if "phi" in free:
            if abs(self.phi1 - self.phi2) > 1e-12:
                raise ValueError("M2 uses one shared keep probability; phi1 must equal phi2")
            if self.copula_alpha is not None:
                raise ValueError("M2 has a single shared indicator; no mechanism copula applies")
            copulas = copulas[1:]
        for name, field in copulas:
            spec = getattr(self, field)
            if name in free:
                if spec is None:
                    raise ValueError(f"{variant.name} requires {field}")
            elif spec is None or spec.family is CopulaFamily.PRODUCT:
                object.__setattr__(self, field, PRODUCT)
            else:
                raise ValueError(f"{variant.name} requires {field} to be the product copula")

    @property
    def d1(self) -> int:
        return self.m1.d

    @property
    def d2(self) -> int:
        return self.m2.d

    def named_values(self) -> dict:
        """Natural-scale parameters by name: both full simplexes, then the
        variant's free scalars in ``_FREE_SCALARS`` order."""
        out = {f"p1_{i + 1}": p for i, p in enumerate(self.m1.probs)}
        out.update({f"p2_{i + 1}": p for i, p in enumerate(self.m2.probs)})
        natural = {"phi": self.phi1, "phi1": self.phi1, "phi2": self.phi2}
        natural["delta_alpha"] = getattr(self.copula_alpha, "delta", None)  # M2 has no copula_alpha
        natural["delta_eps"] = self.copula_eps.delta
        out.update((name, natural[name]) for name in _FREE_SCALARS[self.variant])
        return out

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "phi1": self.phi1,
            "phi2": self.phi2,
            "copula_alpha": None if self.copula_alpha is None else self.copula_alpha.to_json_dict(),
            "copula_eps": self.copula_eps.to_json_dict(),
            "p1": list(self.m1.probs),
            "p2": list(self.m2.probs),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Bdar1Params":
        if not isinstance(d, dict):
            raise ValueError(f"a parameter set must be a JSON object, got {d!r}")
        missing = [key for key in ("variant", "phi1", "phi2", "p1", "p2") if key not in d]
        if missing:
            raise ValueError(f"parameter set lacks the keys {missing}")
        for key in ("p1", "p2"):
            if not isinstance(d[key], (list, tuple)):
                raise ValueError(f"{key} must be a list of probabilities, got {d[key]!r}")

        def spec(entry):
            return None if entry is None else CopulaSpec.from_json_dict(entry)

        return cls(
            variant=Variant.parse(d["variant"]),
            phi1=_json_float(d, "phi1"),
            phi2=_json_float(d, "phi2"),
            m1=CategoricalMarginal(tuple(d["p1"])),
            m2=CategoricalMarginal(tuple(d["p2"])),
            copula_alpha=spec(d.get("copula_alpha")),
            copula_eps=spec(d.get("copula_eps")),
        )


@dataclass(frozen=True, eq=False)
class BivariateOrdinalSeries:
    """Two aligned sequences of state indices 1..d1 and 1..d2."""

    z1: np.ndarray
    z2: np.ndarray
    d1: int
    d2: int

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=np.int64)
        z2 = np.asarray(self.z2, dtype=np.int64)
        if z1.ndim != 1 or z2.ndim != 1 or len(z1) != len(z2):
            raise ValueError("the two series must be 1-d and equally long")
        if len(z1) < 2:
            raise ValueError("need at least 2 observations")
        if z1.min() < 1 or z1.max() > self.d1:
            raise ValueError(f"first series has states outside 1..{self.d1}")
        if z2.min() < 1 or z2.max() > self.d2:
            raise ValueError(f"second series has states outside 1..{self.d2}")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)

    @classmethod
    def from_sequences(cls, z1, z2, d1=None, d2=None) -> "BivariateOrdinalSeries":
        z1 = np.asarray(z1, dtype=np.int64)
        z2 = np.asarray(z2, dtype=np.int64)
        return cls(z1, z2, int(d1 or z1.max()), int(d2 or z2.max()))

    @property
    def n(self) -> int:
        return len(self.z1)


@dataclass(frozen=True, eq=False)
class CrossMoments:
    """Means plus lagged covariance/correlation matrices of the pair."""

    mu1: float
    mu2: float
    gammas: np.ndarray  # (max_lag+1, 2, 2); [k, r, s] = cov(Z_r,t, Z_s,t-k)
    rhos: np.ndarray

    def gamma(self, lag: int) -> np.ndarray:
        return self.gammas[lag]

    def rho(self, lag: int) -> np.ndarray:
        return self.rhos[lag]


def dar1_conditional_pmf(phi: float, marginal: CategoricalMarginal, prev: int) -> np.ndarray:
    """One-step conditional pmf of a DAR(1): (1-phi)*p plus phi on the previous state."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi={phi} outside [0, 1)")
    if not 1 <= prev <= marginal.d:
        raise ValueError(f"state {prev} outside 1..{marginal.d}")
    out = (1.0 - phi) * marginal.as_array()
    out[prev - 1] += phi
    return out


class Transitions(NamedTuple):
    """Distinct observed one-step outcomes with their counts: the current
    pair (i, j) and whether each series repeated its previous state.

    The kernel depends on the previous pair (s, l) only through 1[i = s] and
    1[j = l], so these are the likelihood's sufficient statistics. States are
    0-based. ``keep1`` and ``keep2`` are 1.0 where the first or second series
    repeated its state and 0.0 elsewhere; ``both`` is their product.
    """

    i: np.ndarray
    j: np.ndarray
    weights: np.ndarray
    keep1: np.ndarray
    keep2: np.ndarray
    both: np.ndarray

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "Transitions":
        """The nonzero cells of a (2, 2, d1, d2) repeat-pattern count array,
        indexed by (first series repeated, second series repeated, i, j)."""
        d1, d2 = counts.shape[2:]
        flat = counts.ravel()
        k = np.flatnonzero(flat)
        pattern, cur = np.divmod(k, d1 * d2)
        i, j = np.divmod(cur, d2)
        keep1 = (pattern >> 1).astype(float)
        keep2 = (pattern & 1).astype(float)
        return cls(i, j, flat[k], keep1, keep2, keep1 * keep2)


class TransitionKernel(NamedTuple):
    """The one-step BDAR(1) transition as a four-term mixture.

    P(i, j | s, l) = mech[0, 0] pe[i, j] + mech[0, 1] p1[i] 1[j = l]
    + mech[1, 0] 1[i = s] p2[j] + mech[1, 1] 1[i = s, j = l]: the 2x2
    mechanism cells (index 1 = keep) weigh the innovation pmf ``pe`` and its
    marginals ``p1``, ``p2``. Nothing of size (d1 d2)^2 is ever built.
    """

    mech: np.ndarray
    pe: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @classmethod
    def from_params(cls, params: Bdar1Params) -> "TransitionKernel":
        p1, p2 = params.m1.as_array(), params.m2.as_array()
        alpha, eps = params.copula_alpha, params.copula_eps
        alpha_family, delta_alpha = (None, 0.0) if alpha is None else (alpha.family, alpha.delta)
        # the copula pass may meet log(0) next to an edge (see _cdf_with_partials)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mech = _mechanism_cells(params.phi1, params.phi2, alpha_family, delta_alpha)[0]
            pe = _innovation_cells(p1, p2, eps.family, eps.delta)[0]
        return cls(mech, pe, p1, p2)

    def terms(self, obs: Transitions) -> tuple:
        """P(observed pair | mechanism outcome) for the outcomes in
        ``mech.ravel()`` order: both innovate, only the second keeps, only
        the first keeps, both keep."""
        return (
            self.pe[obs.i, obs.j],
            obs.keep2 * self.p1[obs.i],
            obs.keep1 * self.p2[obs.j],
            obs.both,
        )

    def mix(self, terms: tuple) -> np.ndarray:
        """Transition probabilities from the per-outcome ``terms``."""
        m00, m01, m10, m11 = self.mech.ravel().tolist()
        t00, t01, t10, t11 = terms
        return m00 * t00 + m01 * t01 + m10 * t10 + m11 * t11

    def log_prob(self, obs: Transitions) -> np.ndarray:
        """Log probability of each observed transition (-inf where it is 0)."""
        with np.errstate(divide="ignore"):
            return np.log(self.mix(self.terms(obs)))

    def push(self, dist: np.ndarray) -> np.ndarray:
        """The pmf of the next pair given the pmf ``dist`` of the current one,
        in O(d1 d2)."""
        m00, m01, m10, m11 = self.mech.ravel().tolist()
        return (
            (m00 * dist.sum()) * self.pe
            + m10 * np.outer(dist.sum(axis=1), self.p2)
            + m01 * np.outer(self.p1, dist.sum(axis=0))
            + m11 * dist
        )

    def stationary(self) -> np.ndarray:
        """Time-invariant joint pmf of the pair.

        Weighs the product of the innovation marginals by the one-kept
        mechanism mass and the joint innovation pmf by the both-innovate mass,
        renormalised by the both-kept mass. Row/column sums equal the
        innovation marginals.
        """
        mech, pe, p1, p2 = self
        pi11 = mech[1, 1]
        if pi11 >= 1.0 - 1e-12:
            raise ValueError("both series kept forever (pi11 ~ 1); stationary joint pmf undefined")
        return ((mech[1, 0] + mech[0, 1]) * np.outer(p1, p2) + mech[0, 0] * pe) / (1.0 - pi11)

    def sample(self, i: np.ndarray, j: np.ndarray, rng: np.random.Generator):
        """Advance 0-based pairs (i, j) one step: draw every mechanism pair,
        then every innovation pair, then carry the kept states forward."""
        a1, a2 = sample_joint(self.mech, rng, size=len(i))
        e1, e2 = sample_joint(self.pe, rng, size=len(i))
        return np.where(a1 == 1, i, e1), np.where(a2 == 1, j, e2)


def joint_conditional_pmf(params: Bdar1Params, prev1: int, prev2: int) -> np.ndarray:
    """One-step joint conditional pmf of the pair given the previous pair:
    the kernel pushed once from a point mass."""
    if not 1 <= prev1 <= params.d1:
        raise ValueError(f"state {prev1} outside 1..{params.d1}")
    if not 1 <= prev2 <= params.d2:
        raise ValueError(f"state {prev2} outside 1..{params.d2}")
    dist = np.zeros((params.d1, params.d2))
    dist[prev1 - 1, prev2 - 1] = 1.0
    return TransitionKernel.from_params(params).push(dist)


def transition_tensor(params: Bdar1Params) -> np.ndarray:
    """All joint conditionals at once: tensor[s-1, l-1, i-1, j-1] = P(i, j | s, l).

    A dense (d1 d2)^2 array, kept as the small-d oracle of ``TransitionKernel``.
    """
    mech, pe, p1, p2 = TransitionKernel.from_params(params)
    e1 = np.eye(params.d1)
    e2 = np.eye(params.d2)
    return (
        mech[0, 0] * pe[None, None, :, :]
        + mech[1, 0] * e1[:, None, :, None] * p2[None, None, None, :]
        + mech[0, 1] * p1[None, None, :, None] * e2[None, :, None, :]
        + mech[1, 1] * e1[:, None, :, None] * e2[None, :, None, :]
    )


def stationary_joint_pmf(params: Bdar1Params) -> np.ndarray:
    """Time-invariant joint pmf of the pair: ``TransitionKernel.stationary``."""
    return TransitionKernel.from_params(params).stationary()


def cross_moments(
    params: Bdar1Params,
    max_lag: int,
    values1=None,
    values2=None,
) -> CrossMoments:
    """Exact means and lagged (cross-)covariances of the stationary pair.

    States enter numerically as their indices 1..d unless explicit values are
    supplied. The lag-0 cross covariance scales the innovation cross moment
    by the mechanism cross moment; all lag-k entries decay geometrically in
    the respective keep probabilities.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    v1 = np.arange(1, params.d1 + 1, dtype=float) if values1 is None else np.asarray(values1, float)
    v2 = np.arange(1, params.d2 + 1, dtype=float) if values2 is None else np.asarray(values2, float)
    if len(v1) != params.d1 or len(v2) != params.d2:
        raise ValueError("state value vectors must match the state space sizes")
    mech, pe, p1, p2 = TransitionKernel.from_params(params)
    mu1, mu2 = float(p1 @ v1), float(p2 @ v2)
    var1 = float(p1 @ v1**2 - mu1**2)
    var2 = float(p2 @ v2**2 - mu2**2)
    if var1 <= 0.0 or var2 <= 0.0:
        raise ValueError("state values give a degenerate (zero-variance) marginal")
    e12 = float(v1 @ pe @ v2)
    phi12 = float(mech[1, 1])
    g12_0 = (1.0 - params.phi1 - params.phi2 + phi12) * (e12 - mu1 * mu2) / (1.0 - phi12)

    lags = np.arange(max_lag + 1)
    pow1 = params.phi1**lags
    pow2 = params.phi2**lags
    gammas = np.empty((max_lag + 1, 2, 2))
    gammas[:, 0, 0] = pow1 * var1
    gammas[:, 1, 1] = pow2 * var2
    gammas[:, 0, 1] = pow1 * g12_0
    gammas[:, 1, 0] = pow2 * g12_0
    cross_norm = np.sqrt(var1 * var2)
    rhos = np.empty_like(gammas)
    rhos[:, 0, 0] = gammas[:, 0, 0] / var1
    rhos[:, 1, 1] = gammas[:, 1, 1] / var2
    rhos[:, 0, 1] = gammas[:, 0, 1] / cross_norm
    rhos[:, 1, 0] = gammas[:, 1, 0] / cross_norm
    return CrossMoments(mu1=mu1, mu2=mu2, gammas=gammas, rhos=rhos)


def _carry_forward(keep: np.ndarray, fresh: np.ndarray, init: int) -> np.ndarray:
    """Resolve z_0 = init, z_t = keep_t * z_{t-1} + (1 - keep_t) * fresh_t
    (t = 1..n) without a loop per step; returns z_0..z_n as int64.

    Each position takes the fresh value at the most recent non-keep step, or
    the initial state if no such step has happened yet. ``keep`` (nonzero
    where the state is kept) and ``fresh`` may be any narrow integer arrays;
    the steps are resolved ``_BLOCK`` at a time, each block from the last
    state of the one before, so the int64 states are the only full-length
    array made.
    """
    n = len(keep)
    z = np.empty(n + 1, dtype=np.int64)
    z[0] = init
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # source 0 is the state before the block, source k its k-th fresh value
        source = np.arange(stop - start + 1)
        source[1:] *= keep[start:stop] == 0
        np.maximum.accumulate(source, out=source)
        z[start + 1:stop + 1] = np.concatenate(([z[start]], fresh[start:stop]))[source[1:]]
    return z


def simulate(
    params: Bdar1Params,
    length: int,
    rng: np.random.Generator,
    burn_in: int | None = None,
    init: tuple[int, int] | None = None,
) -> BivariateOrdinalSeries:
    """Simulate a BDAR(1) path of the given length.

    The path starts at the initial pair, drawn from the stationary joint pmf
    (burn-in then defaults to 0 since the draw is already stationary). A
    fixed ``init`` pair may be supplied instead, in which case burn-in
    defaults to 100. Draw order is fixed (initial pair, all mechanism pairs,
    all innovation pairs) so a seeded generator reproduces the path exactly.
    The pairs are drawn as narrow cell codes (``joint._draw_cells``) and the
    kept states carried forward in blocks: besides the returned int64 states,
    a path holds two codes of 1 or 2 bytes per step and temporaries of one
    block.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    if burn_in is not None and burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    kernel = TransitionKernel.from_params(params)
    # states are 0-based until the path is complete
    if init is None:
        burn = 0 if burn_in is None else burn_in
        init1, init2 = sample_joint(kernel.stationary(), rng)
    else:
        burn = 100 if burn_in is None else burn_in
        init1, init2 = int(init[0]) - 1, int(init[1]) - 1
        if not (0 <= init1 < params.d1 and 0 <= init2 < params.d2):
            raise ValueError(f"initial state {init} outside the state space")
    n = length + burn - 1
    mech = _draw_cells(kernel.mech, rng, n)  # 2 * keep1 + keep2
    innov = _draw_cells(kernel.pe, rng, n)  # d2 * fresh1 + fresh2
    z1 = _carry_forward(mech >> 1, innov // params.d2, init1)
    # the codes are not needed again: decode the second series in place
    mech &= 1
    innov %= params.d2
    z2 = _carry_forward(mech, innov, init2)
    z1 += 1
    z2 += 1
    return BivariateOrdinalSeries(z1[burn:], z2[burn:], params.d1, params.d2)


def dar1_simulate(
    phi: float,
    marginal: CategoricalMarginal,
    length: int,
    rng: np.random.Generator,
    burn_in: int | None = None,
    init: int | None = None,
) -> np.ndarray:
    """Simulate a univariate DAR(1) path; see ``simulate`` for conventions."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi={phi} outside [0, 1)")
    if length < 2:
        raise ValueError("length must be >= 2")
    probs = marginal.as_array()
    if init is None:
        burn = 0 if burn_in is None else burn_in
        init = int(_draw_cells(probs, rng, 1)[0]) + 1
    else:
        burn = 100 if burn_in is None else burn_in
        if not 1 <= init <= marginal.d:
            raise ValueError(f"initial state {init} outside 1..{marginal.d}")
    n = length + burn - 1
    keep = _draw_cells(np.array([phi, 1.0 - phi]), rng, n) == 0  # u < phi
    z = _carry_forward(keep, _draw_cells(probs, rng, n), init - 1)
    z += 1
    return z[burn:]
