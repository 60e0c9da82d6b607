"""A dense BDAR(1) transition tensor built apart from ``bdar``'s kernel.

It follows the paper's definition step by step and takes from ``bdar`` only
the parameter types and ``copula_cdf``. A pair of discrete variables with
CDFs F and G, coupled by a copula C, has cell masses
C(F(i), G(j)) - C(F(i-1), G(j)) - C(F(i), G(j-1)) + C(F(i-1), G(j-1)).
The keep/innovate indicators are such a pair, with P(innovate) = 1 - phi
on state 0 and P(keep) = phi on state 1, and so are the innovations. M2's
one shared indicator is the comonotone pair, whose copula is min(u, v).
Given the indicators, a kept series repeats its state and an innovating
one draws from its innovation marginal.

``tau_b`` is Kendall's tau-b from its definition, a loop over all pairs of
observations.
"""

import numpy as np

from bdar import Bdar1Params, CopulaSpec, copula_cdf


def _cdf_grid(probs) -> np.ndarray:
    """0, F(1), ..., F(d): a CDF never exceeds 1, and F(d) is 1."""
    f = np.minimum(np.concatenate(([0.0], np.cumsum(probs))), 1.0)
    f[-1] = 1.0
    return f


def rectangle_cells(probs1, probs2, spec: CopulaSpec | None) -> np.ndarray:
    """Joint pmf of two discrete variables with the given pmfs coupled by
    ``spec``, or by the comonotone copula min(u, v) where ``spec`` is None."""
    f1, f2 = _cdf_grid(probs1)[:, None], _cdf_grid(probs2)[None, :]
    grid = np.minimum(f1, f2) if spec is None else copula_cdf(spec, f1, f2)
    return grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]


def dense_transition_tensor(params: Bdar1Params) -> np.ndarray:
    """tensor[s, l, i, j] = P(Z_t = (i + 1, j + 1) | Z_{t-1} = (s + 1, l + 1))."""
    p1, p2 = np.asarray(params.m1.probs), np.asarray(params.m2.probs)
    mech = rectangle_cells(
        (1.0 - params.phi1, params.phi1), (1.0 - params.phi2, params.phi2), params.copula_alpha
    )
    innov = rectangle_cells(p1, p2, params.copula_eps)
    repeat1 = np.eye(len(p1))[:, None, :, None]  # 1[i = s]
    repeat2 = np.eye(len(p2))[None, :, None, :]  # 1[j = l]
    given = {
        (0, 0): innov[None, None, :, :],
        (0, 1): p1[None, None, :, None] * repeat2,
        (1, 0): repeat1 * p2[None, None, None, :],
        (1, 1): repeat1 * repeat2,
    }
    return sum(mech[a] * term for a, term in given.items())


def dense_transition_matrix(params: Bdar1Params) -> np.ndarray:
    """The tensor as a (d1 d2) x (d1 d2) row-stochastic matrix over row-major pair codes."""
    n = params.d1 * params.d2
    return dense_transition_tensor(params).reshape(n, n)


def tau_b(x, y) -> float:
    """Kendall's tau-b of two integer series: concordant minus discordant
    pairs and the ties of each series, counted over all pairs in exact
    integers, then SciPy's final expression in ``kendalltau(x, y)``."""
    x, y = [int(v) for v in x], [int(v) for v in y]
    n = len(x)
    net = ties_x = ties_y = 0
    for a in range(n):
        for b in range(a + 1, n):
            dx, dy = x[b] - x[a], y[b] - y[a]
            ties_x += dx == 0
            ties_y += dy == 0
            net += (dx * dy > 0) - (dx * dy < 0)
    pairs = n * (n - 1) // 2
    tau = net / np.sqrt(pairs - ties_x) / np.sqrt(pairs - ties_y)
    return float(min(1.0, max(-1.0, tau)))
