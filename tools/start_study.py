"""Which L-BFGS-B start recipes a fit needs, measured on seeded datasets.

Fits every (dataset, variant, copula family) from the start of each candidate
recipe separately, and for M5 also runs the shared-mechanism (M2) sub-fit
from each recipe and the corner refit from each M2 optimum, as ``fit`` does.
Both copulas of a fit take the same family. A recipe subset's fit is then
the best of its runs, with M5's corner refit taken from the best M2 run of a
given recipe set, so the log-likelihood every subset of recipes would reach
is known without refitting. The candidates are the five recipes fits have
started from: ``mild``, ``adjacent``, ``strong``, ``negative`` and
``corner``. The reference of every loss is the fit from all five, M5's
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
fit with the worst loss. Then, per variant, the recipes ``_default_starts``
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
from bdar.inference import _ETA_BOUNDS, _Layout, eta_to_delta
from bdar.model import Variant
from bdar.rng import substream

RECIPES = ("mild", "adjacent", "strong", "negative", "corner")
FAMILIES = ("frank", "gumbel")

# Dependence levels of the candidate recipes by copula family; ``corner``
# starts the mechanism copula on its upper eta bound and the innovation
# copula at ``strong``.
DELTAS = {
    "gumbel": {"adjacent": 1.05, "mild": 1.5, "strong": 4.0, "negative": 1.05},
    "frank": {"adjacent": 0.5, "mild": 2.0, "strong": 12.0, "negative": -2.0},
}

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


def _delta(family, level: str):
    if family is None:
        return None
    if level == "corner":
        return eta_to_delta(_ETA_BOUNDS[family][1], family)
    return DELTAS[family.value][level]


def recipe_start(recipe: str, summaries: list, layout: _Layout) -> np.ndarray:
    """The start vector of one candidate recipe: empirical marginals and
    moment keep rates (uniform marginals and keep rates 0.3 for
    ``negative``; both keep rates at their mean for ``corner``)."""
    (freq1, repeat1), (freq2, repeat2) = summaries
    p1, p2 = inference._empirical_marginal(freq1), inference._empirical_marginal(freq2)
    phi1, phi2 = inference._moment_phi(repeat1, p1), inference._moment_phi(repeat2, p2)
    levels = (recipe, recipe)
    if recipe == "negative":
        p1, p2 = np.full(layout.d1, 1.0 / layout.d1), np.full(layout.d2, 1.0 / layout.d2)
        phi1 = phi2 = 0.3
    elif recipe == "corner":
        phi1 = phi2 = 0.5 * (phi1 + phi2)
        levels = ("corner", "strong")
    natural = {"phi": 0.5 * (phi1 + phi2), "phi1": phi1, "phi2": phi2}
    natural["delta_alpha"] = _delta(layout.alpha_family, levels[0])
    natural["delta_eps"] = _delta(layout.eps_family, levels[1])
    return layout.encode(p1, p2, natural)


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
        self.layout = layout
        self.objective = inference._make_objective(layout, counts)
        self.starts = {r: recipe_start(r, summaries, layout) for r in RECIPES}
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
        self.summaries = inference._series_summaries(counts, (series.z1[0], series.z2[0]))
        layout = _Layout.build(variant, series.d1, series.d2, family, family)
        self.runs = _Runs(layout, counts, self.summaries)
        self.sub, self.corner = None, {}
        if variant is Variant.M5:
            m2_layout = _Layout.build(Variant.M2, series.d1, series.d2, None, family)
            self.sub = _Runs(m2_layout, counts, self.summaries)
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


def default_recipes(fits: list) -> dict:
    """``_START_RECIPES``, the recipes ``_default_starts`` starts each variant
    from, checked vector by vector against every fit's layouts."""
    for fit in fits:
        for runs in (fit.runs, fit.sub):
            if runs is None:
                continue
            expected = []
            for r in inference._START_RECIPES[runs.layout.variant]:
                if not any(np.array_equal(runs.starts[r], x) for x in expected):
                    expected.append(runs.starts[r])
            actual = inference._default_starts(fit.summaries, runs.layout)
            if len(actual) != len(expected) or not all(map(np.array_equal, actual, expected)):
                raise SystemExit(f"_default_starts differs from its recipes on {fit.name}")
    return inference._START_RECIPES


def _tolerance(loglik: float) -> float:
    return max(1e-8, 1e-12 * abs(loglik))


def study(fits: list, sub_subset) -> dict:
    """Per non-empty recipe subset, M5's sub-fit from ``sub_subset``: worst
    loss, worst relative loss, fits over tolerance (in all and per variant),
    L-BFGS-B runs and the worst fit's name."""
    reference = [fit.loglik(RECIPES, RECIPES) for fit in fits]
    out = {}
    for size in range(len(RECIPES), 0, -1):
        for subset in itertools.combinations(RECIPES, size):
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


def nested_gap(fits: list, defaults: dict) -> tuple:
    """The largest nested minus full log-likelihood along ``NESTED_PAIRS``,
    every fit from its variant's ``defaults``, and where it occurs as
    ``dataset/family/nested<full``."""
    by_group = {}
    for fit in fits:
        loglik = fit.loglik(defaults[fit.variant], defaults[Variant.M2])
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
    defaults = default_recipes(fits)
    sub_default = defaults[Variant.M2]
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
        losses = [(f.loglik(RECIPES, RECIPES) - f.loglik(defaults[variant], sub_default),
                   f.loglik(RECIPES, RECIPES)) for f in group]
        runs = sum(f.n_runs(defaults[variant], sub_default) for f in group)
        print(f"{variant.value:<8} {','.join(defaults[variant]):<38} "
              f"{max(max(l for l, _ in losses), 0.0):>10.2e} "
              f"{sum(l > _tolerance(ref) for l, ref in losses):>8d} {runs:>6d}")
    gap, where = nested_gap(fits, defaults)
    print(f"{'nested_gap':<38} {gap:>10.2e}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
