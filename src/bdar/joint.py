"""Joint pmfs of two discrete variables built from marginals plus a copula.

Two cell arrays make up the model's transition kernel: the 2x2 joint pmf of
the keep/innovate Bernoulli indicators (``_mechanism_cells``) and the
d1 x d2 joint pmf of the innovation pair (``_innovation_cells``). Both come
from the same rectangle (inclusion-exclusion) construction over one copula
pass, which also gives the copula's partials: each builder returns
``(cells, partials)``, the kernel keeps the cells and the likelihood
gradient pulls back through the partials (``*_vjp``). A mechanism copula
family of ``None`` stands for one indicator shared by both series (the M2
variant): its cells are comonotone, ``[[1 - phi, 0], [0, phi]]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import CopulaFamily, CopulaSpec, _cdf_core, _cdf_with_partials

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
        if not all(0.0 < p <= 1.0 for p in probs):
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


def _mechanism_cells(phi1: float, phi2: float, family: CopulaFamily | None, delta: float):
    """The 2x2 mechanism cells, with negative rounding clamped to 0, and the
    partials of their corner p00 = C(1 - phi1, 1 - phi2).

    ``cells[a1, a2]`` is the probability of the indicator pair (a1, a2), where
    1 means keep. Returns the cells and the partials that
    ``_mechanism_cells_vjp`` takes. A ``family`` of ``None`` is one shared
    indicator with keep rate ``phi1`` (``phi2`` must equal it): its cells
    are ``[[1 - phi1, 0], [0, phi1]]``, with no copula and partials ``None``.
    """
    if family is None:
        return np.array([[1.0 - phi1, 0.0], [0.0, phi1]]), None
    u, v = 1.0 - phi1, 1.0 - phi2
    # evaluated at most one ulp inside the square: 1 - phi rounds to 1 once
    # phi < 1e-16, where d(phi)/d(eta) makes the term vanish anyway and the
    # corner takes the edge value C(1, v) = v, C(u, 1) = u
    p00, du, dv, dd = _cdf_with_partials(
        family, delta, np.float64(min(u, _BELOW_ONE)), np.float64(min(v, _BELOW_ONE))
    )
    if u == 1.0 or v == 1.0:
        p00 = v if u == 1.0 else u
    cells = np.array([[p00, u - p00], [v - p00, phi1 + phi2 - 1.0 + p00]])
    return np.maximum(cells, 0.0), (float(du), float(dv), float(dd))


def _mechanism_cells_vjp(partials, g00: float, g01: float, g10: float, g11: float):
    """Pull a gradient on the 2x2 mechanism cells back to (phi1, phi2, delta).

    ``partials`` are those of ``_mechanism_cells``. The cell gradients
    ``g00``..``g11`` must be zero on cells it clamped. For the shared
    indicator (``partials`` None) the whole gradient goes to ``phi1``.
    """
    if partials is None:
        return g11 - g00, 0.0, 0.0
    du, dv, dd = partials
    # p00 enters the four cells with signs +, -, -, +; phi1 enters the
    # (0, 1) cell with -1 and the (1, 1) cell with +1, and p00 through u = 1 - phi1
    g_p00 = g00 - g01 - g10 + g11
    return g11 - g01 - g_p00 * du, g11 - g10 - g_p00 * dv, g_p00 * dd


def _cdf_edges(p: np.ndarray) -> np.ndarray:
    """Marginal CDF grid 0, F(1), ..., F(d-1), 1 with both ends exact."""
    f = np.empty(len(p) + 1)
    f[0] = 0.0
    # np.cumsum without its Python-level dispatch, which costs 4x the sum here
    np.add.accumulate(p, out=f[1:])
    f[-1] = 1.0
    return f


def _rectangle_cells(grid: np.ndarray) -> np.ndarray:
    """Cell masses of a copula CDF grid by inclusion-exclusion, with negative
    rounding clamped to 0."""
    return np.maximum(grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1], 0.0)


def _innovation_cells(p1: np.ndarray, p2: np.ndarray, family: CopulaFamily, delta: float):
    """The d1 x d2 innovation cells, rectangle masses over the marginal CDF
    grids with negative rounding clamped to 0, and the partials of the
    copula at the interior grid points.

    One copula pass over the interior points gives both. The grid's edges
    take their closed-form values: C(u, 0) = C(0, v) = 0, C(u, 1) = u and
    C(1, v) = v, and so do the interior points where F(k) is not below 1
    (through ``_cdf_core``). Returns the cells and the partials that
    ``_innovation_cells_vjp`` takes.
    """
    f1, f2 = _cdf_edges(p1), _cdf_edges(p2)
    if f1[-2] < 1.0 and f2[-2] < 1.0:
        cdf, du, dv, dd = _cdf_with_partials(family, delta, f1[1:-1, None], f2[None, 1:-1])
        grid = np.zeros((len(f1), len(f2)))
        grid[1:-1, 1:-1] = cdf
        grid[1:, -1] = f1[1:]
        grid[-1, 1:-1] = f2[1:-1]
        return _rectangle_cells(grid), (du, dv, dd)
    # F(d-1), the largest interior point, is not below 1: it rounds to 1
    # once the last probability is below ~1e-16, or lies above 1 by less
    # than PROB_SUM_TOL. Such points lie on the edge u = 1 (or v = 1). The
    # partials are taken at most one ulp inside the square, so they stay
    # finite: a NaN there would poison the gradient even where its weight
    # is 0.
    f1, f2 = np.minimum(f1, 1.0), np.minimum(f2, 1.0)
    grid = _cdf_core(CopulaSpec(family, delta), f1[:, None], f2[None, :])
    u, v = np.minimum(f1[1:-1], _BELOW_ONE), np.minimum(f2[1:-1], _BELOW_ONE)
    _, du, dv, dd = _cdf_with_partials(family, delta, u[:, None], v[None, :])
    return _rectangle_cells(grid), (du, dv, dd)


def _innovation_cells_vjp(partials, g_cells: np.ndarray):
    """Pull a gradient on the innovation cells back to (p1, p2, delta).

    ``partials`` are those of ``_innovation_cells``. The adjoint of the
    rectangle differencing: an interior grid point is a corner of four
    cells (signs +, -, -, +), a point on the edge u = 1 or v = 1 of two, where
    C(1, v) = v and C(u, 1) = u make the partial along the edge 1 and
    dC/ddelta 0. The grid's fixed ends (0 and the forced 1) take no gradient.
    ``g_cells`` must be zero on cells that were clamped.
    """
    du, dv, dd = partials
    g = g_cells
    inner = g[:-1, :-1] - g[1:, :-1] - g[:-1, 1:] + g[1:, 1:]
    g_f1 = (inner * du).sum(axis=1) + g[:-1, -1] - g[1:, -1]
    g_f2 = (inner * dv).sum(axis=0) + g[-1, :-1] - g[-1, 1:]
    # F(k) is the sum of the first k probabilities; the last one enters no
    # grid point
    g_p1 = np.zeros(len(g_f1) + 1)
    g_p1[:-1] = np.add.accumulate(g_f1[::-1])[::-1]
    g_p2 = np.zeros(len(g_f2) + 1)
    g_p2[:-1] = np.add.accumulate(g_f2[::-1])[::-1]
    return g_p1, g_p2, float(np.vdot(inner, dd))


# Uniforms are drawn and resolved this many at a time, so a long path needs
# no full-length float or index temporary. ``Generator.random(a + b)`` yields
# the numbers of ``random(a)`` followed by ``random(b)``: blocking changes no draw.
_BLOCK = 1 << 14


def _draw_cells(cells: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` cells of a pmf by inverse CDF, as row-major cell codes in
    the narrowest unsigned dtype that holds ``cells.size - 1``.

    One uniform per draw indexes the cumulative sum ``cum`` of the flattened
    cells (its last entry forced to 1), and the codes equal
    ``np.searchsorted(cum, rng.random(size), side="right")`` exactly. The
    uniforms are drawn and resolved ``_BLOCK`` at a time through one guide
    table (Chen & Asau 1974; Devroye 1986, III.2.4), which finds each index
    in O(1) expected work: with m the smallest power of two at least 8 times
    ``len(cum)``, ``guide[k] = #{cum <= k/m}``. ``Generator.random`` returns
    multiples of 2^-53 in [0, 1), so ``u * m`` and its floor k are exact and
    k/m <= u; hence ``guide[k]`` is a lower bound of ``#{cum <= u}``, and it
    is the answer when ``cum[guide[k]] > u``. The other uniforms (a few
    percent) are finished by the full search. With ``cum[-1] = 1 > u`` every
    index stays in range, and zero-mass cells are never drawn, as under the
    plain search.
    """
    cum = np.cumsum(cells.ravel())
    cum[-1] = 1.0
    m = 1 << (8 * cum.size - 1).bit_length()
    # cum <= k/m exactly when ceil(cum * m) <= k (cum * m is exact): counting
    # those ceilings builds the table in O(m) instead of m binary searches
    guide = np.cumsum(np.bincount(np.ceil(cum * m).astype(np.int64), minlength=m + 1)[:m])
    codes = np.empty(size, dtype=np.min_scalar_type(cells.size - 1))
    for start in range(0, size, _BLOCK):
        u = rng.random(min(_BLOCK, size - start))
        flat = guide[(u * m).astype(np.int64)]
        unresolved = cum[flat] <= u
        flat[unresolved] = np.searchsorted(cum, u[unresolved], side="right")
        codes[start:start + len(u)] = flat
    return codes


def sample_joint(cells: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Draw cells of a 2-d joint pmf by inverse CDF, as 0-based (row, col) indices.

    The ``_draw_cells`` codes of the row-major cells, split into rows and
    columns: one uniform per draw, so draws are reproducible given a seeded
    generator. Returns a pair of ints, or a pair of intp arrays when ``size``
    is set; a single draw uses one uniform, as ``size=1`` does.
    """
    codes = _draw_cells(cells, rng, 1 if size is None else size)
    rows, cols = np.divmod(codes.astype(np.intp), cells.shape[1])
    if size is None:
        return int(rows[0]), int(cols[0])
    return rows, cols
