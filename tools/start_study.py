"""Which L-BFGS-B start recipes a fit needs, measured on seeded datasets.

Fits every (dataset, variant, copula family) from the start of each candidate
recipe separately, and for M5 also runs the shared-mechanism (M2) sub-fit
from each recipe and the corner refit from each M2 optimum, as ``fit`` does.
Both copulas of a fit take the same family. A recipe subset's fit is then
the best of its runs, with M5's corner refit taken from the best M2 run of a
given recipe set, so the log-likelihood every subset of recipes would reach
is known without refitting. The candidates are the recipes of
``bdar.inference._RECIPES``, built by ``_recipe_starts`` as ``fit`` builds
its starts. The reference of every loss is the fit from all of them, M5's
sub-fit included.

The datasets are the bundled quarterly series and five paths each of the
Gumbel study design at T = 10^2, 10^3 and 10^4, of the bundled parameters
at T = 104 and 10^3, and of random M1, M2 and negative-Frank M5 truths at
T = 200 and 10^3: 56 datasets, less any path that misses a state. Every
path comes from ``--seed``.

Prints one row per non-empty recipe subset, every fit started from it and
M5's sub-fit from M2's default recipes (as ``fit`` runs it): the worst
log-likelihood loss of any fit against the fit from all five candidates, the
worst loss relative to |loglik|, the number of fits that lose more than
max(1e-8, 1e-12 |loglik|), that number per variant (M1 to M5), the
L-BFGS-B runs the subset makes over all fits (equal starts run once) and the
fit with the worst loss. Then, per variant, the recipes ``_START_RECIPES``
starts it from, the worst loss, the fits over tolerance and the runs of
those defaults; and the largest amount by which a nested variant's fit on
its defaults beats a fuller one along ``NESTED_PAIRS`` (at most 1e-8 keeps
``likelihood_ratio_test`` from warning). Uses numpy, the standard library
and bdar only.

Run from the repo root:

    PYTHONPATH=src python3 tools/start_study.py --seed 7
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from bdar import Bdar1Params, CategoricalMarginal, CopulaSpec, simulate
from bdar import inference
from bdar.cli import BUNDLED_PARAMS, BUNDLED_SERIES, DEFAULT_RATE_BREAKPOINTS, NESTED_PAIRS, RunConfig, load_ordinal
from bdar.inference import _ALL_RECIPES, _ETA_BOUNDS, _START_RECIPES, _Layout
from bdar.model import Variant
from bdar.rng import substream

FAMILIES = ("frank", "gumbel")

# The Gumbel simulation design of the paper (the replicate-gumbel workload).
STUDY = Bdar1Params(
    variant="m5",
    phi1=0.4,
    phi2=0.25,
    m1=CategoricalMarginal((0.15, 0.6, 0.25)),
    m2=CategoricalMarginal((0.2, 0.3, 0.5)),
    copula_alpha=CopulaSpec("gumbel", 2.0),
    copula_eps=CopulaSpec("gumbel", 2.0),
)

REPLICATES = 5  # paths per simulated design and length
# path lengths per simulated design
LENGTHS = {
    "study": (100, 1_000, 10_000),
    "bundled-params": (104, 1_000),
    "m1": (200, 1_000),
    "m2": (200, 1_000),
    "negative-frank": (200, 1_000),
}


def _marginal(rng, d: int) -> CategoricalMarginal:
    w = np.maximum(rng.dirichlet(np.full(d, 2.0)), 0.1)
    return CategoricalMarginal(tuple(w / w.sum()))


def _truth(design: str, rng) -> Bdar1Params:
    if design == "study":
        return STUDY
    if design == "bundled-params":
        return Bdar1Params.from_json_dict(json.loads(BUNDLED_PARAMS.read_text()))
    m1, m2 = _marginal(rng, 3), _marginal(rng, 3)
    if design == "m1":
        return Bdar1Params("m1", rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8), m1, m2)
    if design == "m2":
        phi = rng.uniform(0.1, 0.8)
        family = str(rng.choice(FAMILIES))
        delta = rng.uniform(1.2, 4.0) if family == "gumbel" else rng.uniform(1.0, 10.0)
        return Bdar1Params("m2", phi, phi, m1, m2, copula_eps=CopulaSpec(family, delta))
    return Bdar1Params(
        "m5", rng.uniform(0.1, 0.8), rng.uniform(0.1, 0.8), m1, m2,
        copula_alpha=CopulaSpec("frank", rng.uniform(-8.0, -1.0)),
        copula_eps=CopulaSpec("frank", rng.uniform(-8.0, -1.0)),
    )


def datasets(seed: int):
    """(name, series) of the bundled series and of every path of ``LENGTHS``;
    a path that misses a state is left out."""
    config = RunConfig(input=str(BUNDLED_SERIES), breakpoints=list(DEFAULT_RATE_BREAKPOINTS))
    yield "bundled", load_ordinal(config)[1]
    for design, lengths in LENGTHS.items():
        for length, rep in itertools.product(lengths, range(REPLICATES)):
            rng = substream(seed, "start-study", design, length, rep)
            series = simulate(_truth(design, rng), length, rng)
            if len(np.unique(series.z1)) == series.d1 and len(np.unique(series.z2)) == series.d2:
                yield f"{design}-T{length}-r{rep}", series


class _Runs:
    """L-BFGS-B runs of one layout from each recipe; equal starts run once."""

    def __init__(self, layout: _Layout, counts: np.ndarray, summaries: list):
        self.objective = inference._make_objective(layout, counts)
        self.starts = dict(zip(_ALL_RECIPES, inference._recipe_starts(summaries, layout, _ALL_RECIPES)))
        by_start = {}
        self.results = {}
        for r, x0 in self.starts.items():
            key = x0.tobytes()
            if key not in by_start:
                by_start[key] = inference._lbfgsb(self.objective, x0, layout)
            self.results[r] = by_start[key]

    def best(self, subset):
        """The first run of least objective among the subset's recipes."""
        return min((self.results[r] for r in subset), key=lambda res: res.fun)

    def n_runs(self, subset) -> int:
        return len({self.starts[r].tobytes() for r in subset})


class Fit:
    """One (dataset, variant, family) fitted from every recipe."""

    def __init__(self, name: str, series, variant: Variant, family: str):
        self.name = f"{name}/{family}/{variant.value}"
        self.variant = variant
        counts = inference.transition_counts(series)
        summaries = inference._series_summaries(counts, (series.z1[0], series.z2[0]))
        layout = _Layout.build(variant, series.d1, series.d2, family, family)
        self.runs = _Runs(layout, counts, summaries)
        self.sub, self.corner = None, {}
        if variant is Variant.M5:
            m2_layout = _Layout.build(Variant.M2, series.d1, series.d2, None, family)
            self.sub = _Runs(m2_layout, counts, summaries)
            fill = {"delta_alpha": _ETA_BOUNDS[layout.alpha_family][1]}
            for res in {id(res): res for res in self.sub.results.values()}.values():
                x0 = layout.embed(m2_layout, res.x, fill)
                self.corner[id(res)] = inference._lbfgsb(self.runs.objective, x0, layout)

    def loglik(self, subset, sub_subset) -> float:
        """From ``subset``'s recipes, M5's sub-fit from ``sub_subset``'s."""
        fun = self.runs.best(subset).fun
        if self.sub is not None:
            fun = min(fun, self.corner[id(self.sub.best(sub_subset))].fun)
        return -float(fun)

    def n_runs(self, subset, sub_subset) -> int:
        if self.sub is None:
            return self.runs.n_runs(subset)
        return self.runs.n_runs(subset) + self.sub.n_runs(sub_subset) + 1


def _tolerance(loglik: float) -> float:
    return max(1e-8, 1e-12 * abs(loglik))


def study(fits: list, sub_subset) -> dict:
    """Per non-empty recipe subset, M5's sub-fit from ``sub_subset``: worst
    loss, worst relative loss, fits over tolerance (in all and per variant),
    L-BFGS-B runs and the worst fit's name."""
    reference = [fit.loglik(_ALL_RECIPES, _ALL_RECIPES) for fit in fits]
    out = {}
    for size in range(len(_ALL_RECIPES), 0, -1):
        for subset in itertools.combinations(_ALL_RECIPES, size):
            losses = [ref - fit.loglik(subset, sub_subset) for fit, ref in zip(fits, reference)]
            over = [loss > _tolerance(ref) for loss, ref in zip(losses, reference)]
            worst = int(np.argmax(losses))
            out[subset] = {
                "worst_loss": max(losses[worst], 0.0),
                "worst_rel_loss": max(max(loss / abs(ref) for loss, ref in zip(losses, reference)), 0.0),
                "over_tol": sum(over),
                "by_variant": [sum(o for o, fit in zip(over, fits) if fit.variant is v) for v in Variant],
                "runs": sum(fit.n_runs(subset, sub_subset) for fit in fits),
                "worst_fit": fits[worst].name if losses[worst] > 0.0 else "-",
            }
    return out


def nested_gap(fits: list) -> tuple:
    """The largest nested minus full log-likelihood along ``NESTED_PAIRS``,
    every fit from its variant's ``_START_RECIPES``, and where it occurs as
    ``dataset/family/nested<full``."""
    by_group = {}
    for fit in fits:
        loglik = fit.loglik(_START_RECIPES[fit.variant], _START_RECIPES[Variant.M2])
        by_group.setdefault(fit.name.rsplit("/", 1)[0], {})[fit.variant] = loglik
    return max(
        (group[nested] - group[full], f"{name}/{nested.value}<{full.value}")
        for name, group in by_group.items() for nested, full in NESTED_PAIRS
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0, help="seed of the simulated datasets")
    args = parser.parse_args(argv)
    data = list(datasets(args.seed))
    fits = [Fit(name, series, variant, family)
            for name, series in data for family in FAMILIES for variant in Variant]
    sub_default = _START_RECIPES[Variant.M2]
    rows = study(fits, sub_default)
    print(f"datasets {len(data)} fits {len(fits)} m5_sub_fit {','.join(sub_default)}")
    print(f"{'recipes':<38} {'worst_loss':>10} {'worst_rel':>10} {'over_tol':>8} {'m1-m5':>10} {'runs':>6}"
          "  worst_fit")
    for subset, row in rows.items():
        by_variant = ",".join(map(str, row["by_variant"]))
        print(f"{','.join(subset):<38} {row['worst_loss']:>10.2e} {row['worst_rel_loss']:>10.2e} "
              f"{row['over_tol']:>8d} {by_variant:>10} {row['runs']:>6d}  {row['worst_fit']}")
    print(f"{'variant':<8} {'default':<38} {'worst_loss':>10} {'over_tol':>8} {'runs':>6}")
    for variant in Variant:
        group = [f for f in fits if f.variant is variant]
        default = _START_RECIPES[variant]
        losses = [(f.loglik(_ALL_RECIPES, _ALL_RECIPES) - f.loglik(default, sub_default),
                   f.loglik(_ALL_RECIPES, _ALL_RECIPES)) for f in group]
        runs = sum(f.n_runs(default, sub_default) for f in group)
        print(f"{variant.value:<8} {','.join(default):<38} "
              f"{max(max(l for l, _ in losses), 0.0):>10.2e} "
              f"{sum(l > _tolerance(ref) for l, ref in losses):>8d} {runs:>6d}")
    gap, where = nested_gap(fits)
    print(f"{'nested_gap':<38} {gap:>10.2e}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
