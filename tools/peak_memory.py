"""Peak traced memory of the long-path operations on a 30-state model, per step.

Draws a seeded M5 Frank model with 30 states per series, simulates a path of
``--steps`` steps, and reports for each of ``simulate``,
``transition_counts``, ``conditional_loglik``, the Monte Carlo ``forecast``
(10^5 paths, horizon 12) and ``exact_forecast_pmf`` the peak of the memory that tracemalloc sees it
allocate, in bytes and in bytes per path step. The forecasts do not grow
with the path; their per-step figure puts them on the same scale. Each
operation runs once on a short path first, so that one-off allocations do
not count. Uses numpy, the standard library and bdar only.

Run from the repo root:

    PYTHONPATH=src python3 tools/peak_memory.py --steps 1000000
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc

import numpy as np

from bdar import (
    Bdar1Params,
    CategoricalMarginal,
    CopulaSpec,
    conditional_loglik,
    exact_forecast_pmf,
    forecast,
    simulate,
)
from bdar.inference import transition_counts
from bdar.rng import substream

D = 30
ANCHOR = (15, 15)
HORIZON = 12
N_SIMS = 100_000  # Monte Carlo forecast paths


def model(seed: int, d: int = D) -> Bdar1Params:
    """An M5 Frank model on d x d states (30 by default): Dirichlet(2)
    marginals floored at 0.2 / d so that every transition is possible, keep
    rates in [0.05, 0.3] and both deltas in [0.5, 12]."""
    rng = substream(seed, "peak-memory", "params")

    def marginal():
        w = np.maximum(rng.dirichlet(np.full(d, 2.0)), 0.2 / d)
        return CategoricalMarginal(tuple(w / w.sum()))

    return Bdar1Params(
        variant="m5",
        phi1=rng.uniform(0.05, 0.3),
        phi2=rng.uniform(0.05, 0.3),
        m1=marginal(),
        m2=marginal(),
        copula_alpha=CopulaSpec("frank", rng.uniform(0.5, 12.0)),
        copula_eps=CopulaSpec("frank", rng.uniform(0.5, 12.0)),
    )


def _peak(fun) -> int:
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(steps: int, seed: int = 0) -> dict:
    """Peak traced bytes of each operation, by name, on a path of ``steps``."""
    params = model(seed)

    def operations(length: int, key: str) -> dict:
        path = simulate(params, length, substream(seed, "peak-memory", key, "path"))
        return {
            "simulate": lambda: simulate(params, length, substream(seed, "peak-memory", key, "path")),
            "transition_counts": lambda: transition_counts(path),
            "conditional_loglik": lambda: conditional_loglik(params, path),
            "forecast": lambda: forecast(params, ANCHOR, HORIZON, N_SIMS, substream(seed, "peak-memory", "mc")),
            "exact_forecast_pmf": lambda: exact_forecast_pmf(params, ANCHOR, HORIZON),
        }

    for fun in operations(100, "warm").values():
        fun()
    return {name: _peak(fun) for name, fun in operations(steps, "measure").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--steps", type=int, default=1_000_000, help="path length T (default 10^6)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the model and of its draws")
    args = parser.parse_args(argv)
    peaks = measure(args.steps, args.seed)
    print(f"{'operation':<20} {'peak_bytes':>12} {'bytes_per_step':>15}")
    for name, peak in peaks.items():
        print(f"{name:<20} {peak:>12d} {peak / args.steps:>15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
