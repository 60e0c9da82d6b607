"""Cost of each variant's fit in ``bdar compare`` on the bundled series.

Runs ``run_compare`` on the bundled quarterly series, with the default
breakpoints, variants and copula families (as ``bdar compare`` does),
``--repeats`` times, and reports per variant:

- ``objective_calls``: calls of the objectives that ``_make_objective``
  made, the Hessian's included;
- ``lbfgsb_runs`` and ``lbfgsb_iters``: L-BFGS-B runs and their iterations;
- ``best_ms``: the best wall time of the variant's fit over the repeats.

The ``total`` row sums the counts and gives the best wall time of a whole
compare, writing its files included. The counts are machine-independent and
the same on every repeat; they are taken by wrapping
``bdar.inference._make_objective``, ``bdar.inference.optimize.minimize`` and
``bdar.cli.fit`` from outside the package. Uses the standard library and
bdar only.

Run from the repo root:

    PYTHONPATH=src python3 tools/compare_cost.py --repeats 7
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import time
from collections import Counter

from bdar import cli, inference
from bdar.cli import BUNDLED_SERIES, DEFAULT_RATE_BREAKPOINTS, RunConfig, run_compare

COUNTS = ("objective_calls", "lbfgsb_runs", "lbfgsb_iters")


def measure(repeats: int) -> dict:
    """Per variant (and ``total``): the counts of one compare and the best of
    ``repeats`` wall times in ms."""
    counts, best_ms = Counter(), {}
    current = [None]  # the variant whose fit is running
    make_objective, minimize, fit = inference._make_objective, inference.optimize.minimize, cli.fit

    def counted_make_objective(*args, **kwargs):
        objective = make_objective(*args, **kwargs)

        def counted(x):
            counts[current[0], "objective_calls"] += 1
            return objective(x)

        return counted

    def counted_minimize(*args, **kwargs):
        res = minimize(*args, **kwargs)
        counts[current[0], "lbfgsb_runs"] += 1
        counts[current[0], "lbfgsb_iters"] += int(res.nit)
        return res

    def timed_fit(data, variant, *args, **kwargs):
        current[0] = variant.value
        start = time.perf_counter()
        try:
            return fit(data, variant, *args, **kwargs)
        finally:
            elapsed = 1e3 * (time.perf_counter() - start)
            best_ms[variant.value] = min(best_ms.get(variant.value, elapsed), elapsed)
            current[0] = None

    inference._make_objective, inference.optimize.minimize = counted_make_objective, counted_minimize
    cli.fit = timed_fit
    try:
        for _ in range(repeats):
            counts.clear()
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                config = RunConfig(input=str(BUNDLED_SERIES), breakpoints=list(DEFAULT_RATE_BREAKPOINTS), output=tmp)
                start = time.perf_counter()
                run_compare(config)
                elapsed = 1e3 * (time.perf_counter() - start)
            best_ms["total"] = min(best_ms.get("total", elapsed), elapsed)
    finally:
        inference._make_objective, inference.optimize.minimize = make_objective, minimize
        cli.fit = fit
    rows = {v: {name: counts[v, name] for name in COUNTS} for v in best_ms if v != "total"}
    rows["total"] = {name: sum(row[name] for row in rows.values()) for name in COUNTS}
    return {v: {**row, "best_ms": best_ms[v]} for v, row in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5, help="compares timed; the best is reported")
    args = parser.parse_args(argv)
    rows = measure(args.repeats)
    names = [*COUNTS, "best_ms"]
    print(f"{'variant':>8} " + " ".join(f"{name:>15}" for name in names))
    for variant, row in rows.items():
        print(f"{variant:>8} " + " ".join(f"{row[name]:>15}" for name in COUNTS) + f" {row['best_ms']:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
