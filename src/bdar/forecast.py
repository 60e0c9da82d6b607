"""h-step-ahead forecasting by Monte Carlo and by exact pushes of the kernel.

Trajectories evolve as joint pairs through the model's own recursion: each
step draws a keep/innovate pair and an innovation pair per trajectory and
carries the kept states forward. Marginal forecast distributions then fall
out by summation. The exact h-step pmf, the point mass at the anchor pushed
h times through the one-step kernel in O(d1 d2) per step, serves as the
oracle for the Monte Carlo path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .joint import _cell_table, _draw_cells
# transition_tensor has no caller here; perfbench hooks bdar.forecast.transition_tensor
from .model import Bdar1Params, TransitionKernel, transition_tensor  # noqa: F401


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Per-step forecast frequencies and modal states from simulated trajectories.

    ``joint[h]`` marginalises exactly to ``marginal1[h]`` / ``marginal2[h]``
    (they are computed from the same counts). Modal entries break ties to the
    lowest state index (lexicographic on (z1, z2) for the joint mode), which
    keeps repeated runs stable.
    """

    horizon: int
    marginal1: np.ndarray  # (horizon, d1)
    marginal2: np.ndarray  # (horizon, d2)
    joint: np.ndarray      # (horizon, d1, d2)
    modal1: np.ndarray     # (horizon,)
    modal2: np.ndarray
    modal_joint: np.ndarray  # (horizon, 2)
    n_sims: int

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "n_sims": self.n_sims,
            "marginal1": self.marginal1.tolist(),
            "marginal2": self.marginal2.tolist(),
            "joint": self.joint.tolist(),
            "modal1": self.modal1.tolist(),
            "modal2": self.modal2.tolist(),
            "modal_joint": self.modal_joint.tolist(),
        }


def _validate_last_state(params: Bdar1Params, last_state) -> tuple[int, int]:
    s, l = int(last_state[0]), int(last_state[1])
    if not (1 <= s <= params.d1 and 1 <= l <= params.d2):
        raise ValueError(f"last state {last_state} outside the state space")
    return s, l


def forecast(
    params: Bdar1Params,
    last_state: tuple[int, int],
    horizon: int,
    n_sims: int,
    rng: np.random.Generator,
) -> ForecastResult:
    """Monte Carlo forecast of the next ``horizon`` steps from ``last_state``
    with ``n_sims`` trajectories drawn from ``rng``.

    Each step draws all mechanism pairs, then all innovation pairs, as cell
    codes (``joint._draw_cells``, from tables built once), and carries the
    kept states forward, as ``simulate`` does; trajectory i consumes element
    i of each step's mechanism draws and element i of its innovation draws,
    and a generator in the same state reproduces the result exactly. The
    paths' states are held in the innovation codes' dtype (1 or 2 bytes per
    path and series for d1 * d2 up to 65,536); besides them, a step holds its
    two codes per path, a few narrow temporaries of the same length and one
    8-byte index per path while it counts the states.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    s, l = _validate_last_state(params, last_state)

    d1, d2 = params.d1, params.d2
    n_states = d1 * d2
    kernel = TransitionKernel.from_params(params)
    mech_table, innov_table = _cell_table(kernel.mech), _cell_table(kernel.pe)
    dtype = np.min_scalar_type(n_states - 1)  # the innovation codes' dtype
    i = np.full(n_sims, s - 1, dtype=dtype)
    j = np.full(n_sims, l - 1, dtype=dtype)
    joint_counts = np.empty((horizon, d1, d2), dtype=np.int64)
    for h in range(horizon):
        mech = _draw_cells(mech_table, rng, n_sims)  # 2 * keep1 + keep2
        innov = _draw_cells(innov_table, rng, n_sims)  # d2 * fresh1 + fresh2
        fresh1 = innov // d2
        # innov % d2: numpy's % on narrow ints is not vectorised, its // is
        fresh2 = innov - fresh1 * d2
        # each series' kept or fresh state, fresh + keep * (state - fresh):
        # the unsigned arithmetic wraps, and the result is in range
        i = fresh1 + (mech >> 1) * (i - fresh1)
        j = fresh2 + (mech & 1) * (j - fresh2)
        joint_counts[h] = np.bincount(i * d2 + j, minlength=n_states).reshape(d1, d2)

    joint = joint_counts / float(n_sims)
    marginal1 = joint.sum(axis=2)
    marginal2 = joint.sum(axis=1)
    modal1 = np.argmax(marginal1, axis=1) + 1
    modal2 = np.argmax(marginal2, axis=1) + 1
    flat_modes = np.argmax(joint.reshape(horizon, n_states), axis=1)
    modal_joint = np.stack([flat_modes // d2 + 1, flat_modes % d2 + 1], axis=1)
    return ForecastResult(
        horizon=horizon,
        marginal1=marginal1,
        marginal2=marginal2,
        joint=joint,
        modal1=modal1,
        modal2=modal2,
        modal_joint=modal_joint,
        n_sims=n_sims,
    )


def exact_forecast_pmf(
    params: Bdar1Params, last_state: tuple[int, int], horizon: int
) -> list[np.ndarray]:
    """Exact h-step joint pmfs: the point mass at ``last_state`` pushed
    through the one-step kernel h times, O(h d1 d2) in all. Converges to the
    stationary joint pmf as h grows."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s, l = _validate_last_state(params, last_state)
    kernel = TransitionKernel.from_params(params)
    dist = np.zeros((params.d1, params.d2))
    dist[s - 1, l - 1] = 1.0
    out = []
    for _ in range(horizon):
        dist = kernel.push(dist)
        out.append(dist)
    return out
