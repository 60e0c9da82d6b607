"""Cost of the cell draws that ``simulate`` and ``forecast`` make, over d.

For each number of states per series d (default 3, 10 and 30), draws the
seeded M5 Frank model of ``tools/peak_memory.py`` with d states per series
and reports the best of ``--repeats`` wall times, in milliseconds, of:

- ``rng.random`` of ``--draws`` uniforms: the generator's own cost, and the
  floor of any draw that takes one uniform per cell;
- ``joint._draw_cells`` of ``--draws`` innovation cells (d^2 of them) and
  of ``--draws`` mechanism cells (4), each from a table built beforehand;
- ``simulate`` of ``--steps`` steps;
- ``forecast`` of ``--paths`` paths over a horizon of 12.

It also reports, per table, the share of buckets that a step of the
cumulative sum crosses: a uniform that lands in one of them is resolved by a
binary search instead of one lookup. Uses numpy, the standard library,
bdar and ``tools/peak_memory.py`` only.

Run from the repo root:

    PYTHONPATH=src python3 tools/draw_cost.py --repeats 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from bdar import TransitionKernel, forecast, simulate
from bdar.joint import _cell_table, _draw_cells
from bdar.rng import substream

sys.path.insert(0, str(Path(__file__).resolve().parent))
from peak_memory import model  # noqa: E402

HORIZON = 12


def _best_ms(fun, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fun()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _crossed_share(table) -> float:
    lookup = table[1]
    return float(np.mean(lookup == np.iinfo(lookup.dtype).max))


def measure(d: int, draws: int, steps: int, paths: int, repeats: int, seed: int = 0) -> dict:
    """Best-of-``repeats`` times in ms and crossed-bucket shares for one d."""
    params = model(seed, d)
    kernel = TransitionKernel.from_params(params)
    innov, mech = _cell_table(kernel.pe), _cell_table(kernel.mech)
    anchor = ((d + 1) // 2, (d + 1) // 2)

    def rng():
        return substream(seed, "draw-cost", d, "draws")

    return {
        "random_ms": _best_ms(lambda: rng().random(draws), repeats),
        "innovation_ms": _best_ms(lambda: _draw_cells(innov, rng(), draws), repeats),
        "mechanism_ms": _best_ms(lambda: _draw_cells(mech, rng(), draws), repeats),
        "simulate_ms": _best_ms(lambda: simulate(params, steps, rng()), repeats),
        "forecast_ms": _best_ms(lambda: forecast(params, anchor, HORIZON, paths, rng()), repeats),
        "innovation_crossed": _crossed_share(innov),
        "mechanism_crossed": _crossed_share(mech),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--d", type=int, nargs="+", default=[3, 10, 30], help="states per series")
    parser.add_argument("--draws", type=int, default=1_000_000, help="cells per timed draw")
    parser.add_argument("--steps", type=int, default=1_000_000, help="simulated path length")
    parser.add_argument("--paths", type=int, default=100_000, help="forecast paths")
    parser.add_argument("--repeats", type=int, default=5, help="timings per figure; the best is reported")
    parser.add_argument("--seed", type=int, default=0, help="seed of the models and of their draws")
    args = parser.parse_args(argv)
    rows = {d: measure(d, args.draws, args.steps, args.paths, args.repeats, args.seed) for d in args.d}
    names = list(next(iter(rows.values())))
    print(f"{'d':>4} " + " ".join(f"{name:>19}" for name in names))
    for d, row in rows.items():
        print(f"{d:>4} " + " ".join(f"{row[name]:>19.4f}" for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
