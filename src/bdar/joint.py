"""Joint pmfs of two discrete variables built from marginals plus a copula.

Two table shapes appear in the model: the 2x2 joint pmf of the keep/innovate
Bernoulli indicators, and the d1 x d2 joint pmf of the innovation pair.
Both come from the same rectangle (inclusion-exclusion) construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import CopulaSpec, _cdf_core, _cdf_partials

PROB_SUM_TOL = 1e-10

# The largest double below 1.
_BELOW_ONE = 1.0 - 2.0**-53


@dataclass(frozen=True)
class CategoricalMarginal:
    """Probability vector over the ordered states 1..d."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in np.asarray(self.probs, dtype=float).ravel())
        if len(probs) < 2:
            raise ValueError("a marginal needs at least 2 states")
        if any(p <= 0.0 or p > 1.0 for p in probs):
            raise ValueError(f"state probabilities must lie in (0, 1]: {probs}")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"state probabilities sum to {sum(probs)}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def cdf(self) -> np.ndarray:
        """Cumulative probabilities F(1)..F(d), with F(d) forced to exactly 1."""
        c = np.cumsum(self.probs)
        c[-1] = 1.0
        return c


@dataclass(frozen=True, eq=False)
class MechanismTable:
    """Joint pmf of the two keep/innovate Bernoulli indicators.

    ``pi[i, j]`` is the probability the first indicator equals i and the
    second equals j, for i, j in {0, 1}. ``pi[1, 1]`` is the joint keep
    probability (the cross moment of the two indicators).
    """

    pi: np.ndarray
    phi1: float
    phi2: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (2, 2) or np.any(pi < 0.0):
            raise ValueError("mechanism table must be a nonnegative 2x2 matrix")
        if abs(pi.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"mechanism table sums to {pi.sum()}, not 1")
        if abs(pi[1].sum() - self.phi1) > PROB_SUM_TOL:
            raise ValueError("row margin does not reproduce phi1")
        if abs(pi[:, 1].sum() - self.phi2) > PROB_SUM_TOL:
            raise ValueError("column margin does not reproduce phi2")
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True, eq=False)
class InnovationTable:
    """Joint pmf of the innovation pair on the d1 x d2 state grid."""

    p: np.ndarray
    marginal1: CategoricalMarginal
    marginal2: CategoricalMarginal

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        d1, d2 = self.marginal1.d, self.marginal2.d
        if p.shape != (d1, d2) or np.any(p < 0.0):
            raise ValueError("innovation table shape/sign mismatch with marginals")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"innovation table sums to {p.sum()}, not 1")
        if np.max(np.abs(p.sum(axis=1) - self.marginal1.as_array())) > PROB_SUM_TOL:
            raise ValueError("row sums do not reproduce the first marginal")
        if np.max(np.abs(p.sum(axis=0) - self.marginal2.as_array())) > PROB_SUM_TOL:
            raise ValueError("column sums do not reproduce the second marginal")
        object.__setattr__(self, "p", p)


def _mechanism_cells(phi1: float, phi2: float, spec: CopulaSpec) -> np.ndarray:
    """The 2x2 mechanism cells, with negative rounding clamped to 0."""
    p00 = float(_cdf_core(spec, np.float64(1.0 - phi1), np.float64(1.0 - phi2)))
    cells = np.array(
        [
            [p00, (1.0 - phi1) - p00],
            [(1.0 - phi2) - p00, phi1 + phi2 - 1.0 + p00],
        ]
    )
    return np.clip(cells, 0.0, None)


def _mechanism_cells_vjp(phi1: float, phi2: float, spec: CopulaSpec, g_cells: np.ndarray):
    """Pull a gradient on the 2x2 mechanism cells back to (phi1, phi2, delta).

    ``g_cells`` must be zero on cells that ``_mechanism_cells`` clamped.
    """
    # evaluated at most one ulp inside the square: 1 - phi rounds to 1 once
    # phi < 1e-16, where d(phi)/d(eta) makes the term vanish anyway
    du, dv, dd = _cdf_partials(
        spec, np.float64(min(1.0 - phi1, _BELOW_ONE)), np.float64(min(1.0 - phi2, _BELOW_ONE))
    )
    # p00 enters the four cells with signs +, -, -, +; phi1 enters the
    # (0, 1) cell with -1 and the (1, 1) cell with +1, and p00 through u = 1 - phi1
    g_p00 = g_cells[0, 0] - g_cells[0, 1] - g_cells[1, 0] + g_cells[1, 1]
    g_phi1 = g_cells[1, 1] - g_cells[0, 1] - g_p00 * float(du)
    g_phi2 = g_cells[1, 1] - g_cells[1, 0] - g_p00 * float(dv)
    return g_phi1, g_phi2, g_p00 * float(dd)


def _cdf_edges(p: np.ndarray) -> np.ndarray:
    """Marginal CDF grid 0, F(1), ..., F(d-1), 1 with both ends exact."""
    f = np.empty(len(p) + 1)
    f[0] = 0.0
    np.cumsum(p, out=f[1:])
    f[-1] = 1.0
    return f


def _innovation_cells(p1: np.ndarray, p2: np.ndarray, spec: CopulaSpec) -> np.ndarray:
    """The d1 x d2 innovation cells: rectangle masses over the marginal CDF
    grids, with negative rounding clamped to 0."""
    f1 = _cdf_edges(p1)
    f2 = _cdf_edges(p2)
    grid = _cdf_core(spec, f1[:, None], f2[None, :])
    cells = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
    return np.clip(cells, 0.0, None)


def _innovation_cells_vjp(p1: np.ndarray, p2: np.ndarray, spec: CopulaSpec, g_cells: np.ndarray):
    """Pull a gradient on the innovation cells back to (p1, p2, delta).

    The adjoint of the rectangle differencing: an interior grid point is a
    corner of four cells (signs +, -, -, +), a point on the edge u = 1 or
    v = 1 of two, where C(1, v) = v and C(u, 1) = u make the partial along
    the edge 1 and dC/ddelta 0. The grid's fixed ends (0 and the forced 1)
    take no gradient. ``g_cells`` must be zero on cells that
    ``_innovation_cells`` clamped.
    """
    g = g_cells
    inner = g[:-1, :-1] - g[1:, :-1] - g[:-1, 1:] + g[1:, 1:]
    f1 = _cdf_edges(p1)
    f2 = _cdf_edges(p2)
    du, dv, dd = _cdf_partials(spec, f1[1:-1, None], f2[None, 1:-1])
    g_f1 = (inner * du).sum(axis=1) + g[:-1, -1] - g[1:, -1]
    g_f2 = (inner * dv).sum(axis=0) + g[-1, :-1] - g[-1, 1:]
    # F(k) is the sum of the first k probabilities; the last one enters no
    # grid point
    g_p1 = np.zeros(len(p1))
    g_p1[:-1] = np.cumsum(g_f1[::-1])[::-1]
    g_p2 = np.zeros(len(p2))
    g_p2[:-1] = np.cumsum(g_f2[::-1])[::-1]
    return g_p1, g_p2, float(np.vdot(inner, dd))


def bernoulli_joint(phi1: float, phi2: float, spec: CopulaSpec) -> MechanismTable:
    """Joint pmf of two Bernoulli indicators coupled by a copula.

    The (0, 0) cell is the copula at the two failure probabilities; the other
    cells follow from the margins, so row/column sums reproduce phi1 and phi2
    to machine precision.
    """
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        if not 0.0 <= phi < 1.0:
            raise ValueError(f"{name}={phi} outside [0, 1)")
    cells = _mechanism_cells(float(phi1), float(phi2), spec)
    return MechanismTable(pi=cells, phi1=float(phi1), phi2=float(phi2))


def comonotone_mechanism(phi: float) -> MechanismTable:
    """Mechanism table for a single shared keep/innovate indicator."""
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi={phi} outside [0, 1)")
    cells = np.array([[1.0 - phi, 0.0], [0.0, phi]])
    return MechanismTable(pi=cells, phi1=float(phi), phi2=float(phi))


def innovation_joint(
    m1: CategoricalMarginal, m2: CategoricalMarginal, spec: CopulaSpec
) -> InnovationTable:
    """Joint innovation pmf: rectangle masses over the marginal CDF grids."""
    cells = _innovation_cells(m1.as_array(), m2.as_array(), spec)
    return InnovationTable(p=cells, marginal1=m1, marginal2=m2)


def sample_joint(cells: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Draw cells of a 2-d joint pmf by inverse CDF, as 0-based (row, col) indices.

    The cells are flattened row-major and a single uniform indexes their
    cumulative sum, so draws are reproducible given a seeded generator.
    Returns a pair of ints, or a pair of arrays when ``size`` is set.
    """
    cum = np.cumsum(cells.ravel())
    cum[-1] = 1.0
    u = rng.random() if size is None else rng.random(size)
    rows, cols = np.divmod(np.searchsorted(cum, u, side="right"), cells.shape[1])
    if size is None:
        return int(rows), int(cols)
    return rows, cols
