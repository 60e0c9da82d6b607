"""Joint pmfs of two discrete variables built from marginals plus a copula.

Two cell arrays make up the model's transition kernel: the 2x2 joint pmf of
the keep/innovate Bernoulli indicators (``_mechanism_cells``) and the
d1 x d2 joint pmf of the innovation pair (``_innovation_cells``). Both come
from the same rectangle (inclusion-exclusion) construction over one copula
pass, which also gives the copula's partials: each builder returns
``(cells, partials)`` and the likelihood gradient pulls back through the
partials (``*_vjp``). The kernel needs the cells alone, so it builds them
``values_only``: the copula pass returns before any partial is formed, the
cells are the same bit for bit, and the partials come back as ``()``. A
mechanism copula family of ``None`` stands for one indicator shared by both
series (the M2 variant): its cells are comonotone, ``[[1 - phi, 0], [0, phi]]``.
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


def _mechanism_cells(
    phi1: float, phi2: float, family: CopulaFamily | None, delta: float, values_only: bool = False
):
    """The 2x2 mechanism cells, with negative rounding clamped to 0, and the
    partials of their corner p00 = C(1 - phi1, 1 - phi2).

    ``cells[a1, a2]`` is the probability of the indicator pair (a1, a2), where
    1 means keep. Returns the cells and the partials that
    ``_mechanism_cells_vjp`` takes, ``()`` with ``values_only``. A ``family``
    of ``None`` is one shared indicator with keep rate ``phi1`` (``phi2``
    must equal it): its cells are ``[[1 - phi1, 0], [0, phi1]]``, with no
    copula and partials ``None``.
    """
    if family is None:
        return np.array([[1.0 - phi1, 0.0], [0.0, phi1]]), None
    u, v = 1.0 - phi1, 1.0 - phi2
    # evaluated at most one ulp inside the square: 1 - phi rounds to 1 once
    # phi < 1e-16, where d(phi)/d(eta) makes the term vanish anyway and the
    # corner takes the edge value C(1, v) = v, C(u, 1) = u
    out = _cdf_with_partials(
        family, delta, np.float64(min(u, _BELOW_ONE)), np.float64(min(v, _BELOW_ONE)), values_only
    )
    p00 = out[0]
    if u == 1.0 or v == 1.0:
        p00 = v if u == 1.0 else u
    cells = np.maximum(np.array([[p00, u - p00], [v - p00, phi1 + phi2 - 1.0 + p00]]), 0.0)
    if values_only:
        return cells, ()
    return cells, (float(out[1]), float(out[2]), float(out[3]))


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


def _innovation_cells(
    p1: np.ndarray, p2: np.ndarray, family: CopulaFamily, delta: float, values_only: bool = False
):
    """The d1 x d2 innovation cells, rectangle masses over the marginal CDF
    grids with negative rounding clamped to 0, and the partials of the
    copula at the interior grid points.

    One copula pass over the interior points gives both. The grid's edges
    take their closed-form values: C(u, 0) = C(0, v) = 0, C(u, 1) = u and
    C(1, v) = v, and so do the interior points where F(k) is not below 1
    (through ``_cdf_core``). Returns the cells and the partials that
    ``_innovation_cells_vjp`` takes, ``()`` with ``values_only``.
    """
    f1, f2 = _cdf_edges(p1), _cdf_edges(p2)
    if f1[-2] < 1.0 and f2[-2] < 1.0:
        # the interior points as two contiguous (d1 - 1, d2 - 1) arrays: the
        # copula pass costs less per call than on a broadcast column and row
        uv = np.empty((2, len(p1) - 1, len(p2) - 1))
        uv[0] = f1[1:-1, None]
        uv[1] = f2[1:-1]
        out = _cdf_with_partials(family, delta, uv[0], uv[1], values_only)
        grid = np.zeros((len(f1), len(f2)))
        grid[1:-1, 1:-1] = out[0]
        grid[1:, -1] = f1[1:]
        grid[-1, 1:-1] = f2[1:-1]
        return _rectangle_cells(grid), out[1:]
    # F(d-1), the largest interior point, is not below 1: it rounds to 1
    # once the last probability is below ~1e-16, or lies above 1 by less
    # than PROB_SUM_TOL. Such points lie on the edge u = 1 (or v = 1). The
    # partials are taken at most one ulp inside the square, so they stay
    # finite: a NaN there would poison the gradient even where its weight
    # is 0.
    f1, f2 = np.minimum(f1, 1.0), np.minimum(f2, 1.0)
    cells = _rectangle_cells(_cdf_core(CopulaSpec(family, delta), f1[:, None], f2[None, :]))
    if values_only:
        return cells, ()
    u, v = np.minimum(f1[1:-1], _BELOW_ONE), np.minimum(f2[1:-1], _BELOW_ONE)
    return cells, _cdf_with_partials(family, delta, u[:, None], v[None, :])[1:]


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
    g_f1 = np.add.reduce(inner * du, axis=1) + g[:-1, -1] - g[1:, -1]
    g_f2 = np.add.reduce(inner * dv, axis=0) + g[-1, :-1] - g[-1, 1:]
    # F(k) is the sum of the first k probabilities; the last one enters no
    # grid point. The suffix sums are written in place, into reversed views.
    g_p1 = np.zeros(len(g_f1) + 1)
    np.add.accumulate(g_f1[::-1], out=g_p1[-2::-1])
    g_p2 = np.zeros(len(g_f2) + 1)
    np.add.accumulate(g_f2[::-1], out=g_p2[-2::-1])
    return g_p1, g_p2, float(np.vdot(inner, dd))


# Uniforms are drawn and resolved this many at a time, so a long path needs
# no full-length float or index temporary. ``Generator.random(a + b)`` yields
# the numbers of ``random(a)`` followed by ``random(b)``: blocking changes no draw.
_BLOCK = 1 << 14

# The most buckets a cell table has: the 2^19 entries that the guide table
# of 8 per cell it replaced had at 200 x 200 states (40,000 cells); as 2-byte
# codes, 1 MiB.
_MAX_BUCKETS = 1 << 19


def _cumulative(cells: np.ndarray) -> np.ndarray:
    """Cumulative sum of the row-major cells, its last entry forced to 1."""
    cum = np.cumsum(cells.ravel())
    cum[-1] = 1.0
    return cum


def _cell_table(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table from which ``_draw_cells`` draws cells of a pmf by inverse
    CDF, as row-major codes in the narrowest unsigned dtype that holds
    ``cells.size - 1``: the cumulative sum scaled by the bucket count m, and
    one entry per bucket, a code or the dtype's largest value.

    The code of a uniform u is ``#{cum <= u}``, which is
    ``np.searchsorted(cum, u, side="right")`` over ``cum =
    _cumulative(cells)``; with ``cum[-1] = 1 > u`` every code is in range,
    and zero-mass cells are never drawn. The table is a guide table (Chen &
    Asau 1974; Devroye 1986, III.2.4) that needs no check of its guess: it
    splits [0, 1) into m buckets, m the smallest power of two at least 64
    times ``cum.size``, but at most ``_MAX_BUCKETS``. Scaling by a power of two is exact, so the code
    is also ``#{cum * m <= u * m}``, and the bucket of u is k = floor(u * m).
    Within bucket k, k <= u * m < k + 1, that count lies between
    ``lo[k] = #{ceil(cum * m) <= k}`` and ``hi[k] = #{floor(cum * m) <= k}``.
    Where the two agree, no step of ``cum`` lies strictly inside the bucket,
    and ``lo[k]`` is the code of every uniform in it. Where they differ, a
    step crosses the bucket; its entry is then the dtype's largest value,
    which sends the uniforms that land there to the search. So does a code
    equal to that value (in a table of exactly 256 or 65,536 cells): it costs
    a search and changes no draw. A step crosses at most one bucket, so at
    most 1 in 64 buckets is crossed below the cap; about 1% are in the
    model's tables at d = 3 to 30. Building the table takes one temporary of
    8 bytes per bucket.
    """
    scaled_cum = _cumulative(cells)
    m = min(1 << (64 * scaled_cum.size - 1).bit_length(), _MAX_BUCKETS)
    scaled_cum *= m
    dtype = np.min_scalar_type(cells.size - 1)
    # every count is below cells.size: the last step, m, is in no bucket
    lo = np.bincount(np.ceil(scaled_cum).astype(np.intp), minlength=m + 1)[:m].cumsum(dtype=dtype)
    hi = np.bincount(scaled_cum.astype(np.intp), minlength=m + 1)[:m].cumsum(dtype=dtype)
    lo[lo != hi] = np.iinfo(dtype).max
    return scaled_cum, lo


def _draw_cells(table: tuple[np.ndarray, np.ndarray], rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` cells by inverse CDF from a ``_cell_table``, one uniform
    per draw, as codes equal to ``np.searchsorted(cum, rng.random(size),
    side="right")`` bit for bit.

    The uniforms are drawn and resolved ``_BLOCK`` at a time: each is scaled
    by m in place, its bucket's entry is the code, and the uniforms whose
    entry is the sentinel are searched in the scaled cumulative sum. Besides
    the returned codes, a block holds its uniforms and bucket indices, 16
    bytes per draw.
    """
    scaled_cum, lookup = table
    m, sentinel = len(lookup), np.iinfo(lookup.dtype).max
    codes = np.empty(size, dtype=lookup.dtype)
    for start in range(0, size, _BLOCK):
        block = codes[start:start + _BLOCK]
        u = rng.random(len(block))
        u *= m
        np.take(lookup, u.astype(np.intp), out=block)
        crossed = np.flatnonzero(block == sentinel)
        block[crossed] = np.searchsorted(scaled_cum, u[crossed], side="right")
    return codes


def sample_joint(cells: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one cell of a 2-d joint pmf by inverse CDF, as 0-based (row, col) ints.

    One uniform, searched in the cumulative sum of the row-major cells as
    ``_draw_cells`` does, so the draw is reproducible given a seeded
    generator. Many draws go through ``_draw_cells``.
    """
    code = np.searchsorted(_cumulative(cells), rng.random(), side="right")
    return divmod(int(code), cells.shape[1])
