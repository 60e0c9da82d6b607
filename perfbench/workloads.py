"""The three benchmark workloads, each with its inputs, timed operations and gates.

A workload is built once per process (the set-up the benchmark times), then
run pass after pass. ``prepare(index)`` selects the input of the pass, outside
the timed region. ``run`` performs only what a user of ``bdar`` would do and
returns the seconds each operation took; ``check`` then verifies the outputs
outside the timed region and returns one reason per failed operation.

- ``compare-quarterly``: the paper's empirical workflow. ``run_compare`` fits
  M1-M5 (Frank copulas, CLI defaults) to the bundled quarterly series, then
  ``run_forecast`` forecasts from the bundled parameters. Nearly all time goes
  to the optimizer, so it shows objective, gradient and Hessian costs.
- ``replicate-gumbel``: ``run_replicate_study`` on the paper's simulation design
  at T in {1e2, 1e4, 1e6}. It is the only workload on the Gumbel copula path and
  the only one where simulation and transition counting grow with T.
- ``evaluate-d30``: a 30x30-state M5 Frank model: simulate 1e6 steps, evaluate
  the log-likelihood, and forecast by Monte Carlo and exactly. No optimizer
  runs; the transition kernel does almost all the work.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from bdar import cli, inference, model
from bdar.copulas import CopulaSpec
from bdar.joint import CategoricalMarginal
from bdar.rng import substream

# ``bdar.forecast`` as a package attribute is the function, not the module.
forecast = importlib.import_module("bdar.forecast")

clock = time.perf_counter

SIZES = {
    "full": {
        "variants": ("m1", "m2", "m3", "m4", "m5"),
        "compare_sims": 10_000,
        "sample_sizes": (100, 10_000, 1_000_000),
        "replicates": 1,
        "d30_length": 1_000_000,
        "d30_sims": 100_000,
    },
    "smoke": {
        "variants": ("m1", "m5"),
        "compare_sims": 1_000,
        "sample_sizes": (100, 1_000),
        "replicates": 1,
        "d30_length": 10_000,
        "d30_sims": 1_000,
    },
}

HORIZON = 12

# Fixed before any run: the M5 fit must reproduce the golden log-likelihood to
# this absolute tolerance, and every fit's reported log-likelihood must equal
# conditional_loglik at its estimates to LOGLIK_MATCH_TOL (the check `bdar fit`
# makes).
GOLDEN_LOGLIK_TOL = 1e-6
LOGLIK_MATCH_TOL = 1e-9
PMF_SUM_TOL = 1e-12

# Per-cell tail probability of the Bernstein bound between Monte Carlo and
# exact forecast frequencies; over 12 x 900 cells a correct forecast trips it
# with probability about 1e-5.
MC_CELL_TAIL = 1e-9

# The paper's simulation design (the ``study_params`` fixture of the tests).
STUDY_PARAMS = {
    "variant": "m5",
    "phi1": 0.4,
    "phi2": 0.25,
    "p1": [0.15, 0.6, 0.25],
    "p2": [0.2, 0.3, 0.5],
    "copula_alpha": {"family": "gumbel", "delta": 2.0},
    "copula_eps": {"family": "gumbel", "delta": 2.0},
}


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CompareQuarterly:
    name = "compare-quarterly"

    def __init__(self, seed: int, scale: str, work_dir: Path):
        size = SIZES[scale]
        self.variants = size["variants"]
        data_dir = cli.BUNDLED_SERIES.parent
        self.compare_config = cli.RunConfig(
            input=str(cli.BUNDLED_SERIES),
            breakpoints=list(cli.DEFAULT_RATE_BREAKPOINTS),
            variants=list(self.variants),
            seed=seed,
            output=str(work_dir / "compare"),
        )
        self.forecast_config = dataclasses.replace(
            self.compare_config,
            params=str(cli.BUNDLED_PARAMS),
            n_sims=size["compare_sims"],
            horizon=HORIZON,
            output=str(work_dir / "forecast"),
        )
        self.golden_loglik = json.loads((data_dir / "golden_fit_m5.json").read_text())["loglik"]
        _, self.series = cli.load_ordinal(self.compare_config)
        self.ops_per_pass = len(self.variants) + 1
        self.sizes = {"d1d2": self.series.d1 * self.series.d2, "T": self.series.n}
        self.first_digest = None

    def prepare(self, index):
        # every pass fits the same bundled series
        _fresh_dir(Path(self.compare_config.output))
        _fresh_dir(Path(self.forecast_config.output))

    def run(self):
        t0 = clock()
        selection = cli.run_compare(self.compare_config)
        t1 = clock()
        result = cli.run_forecast(self.forecast_config)
        t2 = clock()
        times = {"compare_s": t1 - t0, "mc_forecast_s": t2 - t1}
        return times, (selection, result)

    def check(self, outputs) -> list:
        selection, result = outputs
        out = Path(self.compare_config.output)
        failures = [f"fit {v} failed: {msg}" for v, msg in selection["failures"].items()]
        for variant in self.variants:
            if variant in selection["failures"]:
                continue
            report = json.loads((out / f"fit_{variant}.json").read_text())
            params = model.Bdar1Params.from_json_dict(report["params"])
            check = inference.conditional_loglik(params, self.series)
            if not abs(check - report["loglik"]) <= LOGLIK_MATCH_TOL:
                failures.append(
                    f"fit {variant}: loglik {report['loglik']!r} != conditional_loglik {check!r}"
                )
            elif variant == "m5" and not abs(report["loglik"] - self.golden_loglik) <= GOLDEN_LOGLIK_TOL:
                failures.append(
                    f"fit m5: loglik {report['loglik']!r} differs from golden {self.golden_loglik!r}"
                )
        for name, marginal in (("marginal1", result.marginal1), ("marginal2", result.marginal2)):
            worst = float(np.max(np.abs(marginal.sum(axis=1) - 1.0)))
            if not worst <= PMF_SUM_TOL:
                failures.append(f"forecast: {name} step sums off 1 by {worst!r}")
                break
        digest = _digest((out / "compare_stats.csv").read_bytes(), (out / "compare_estimates.csv").read_bytes())
        self.first_digest = self.first_digest or digest
        if digest != self.first_digest and not selection["failures"]:
            failures.append("compare tables differ from the first pass")
        return failures


class ReplicateGumbel:
    name = "replicate-gumbel"

    def __init__(self, seed: int, scale: str, work_dir: Path):
        size = SIZES[scale]
        self.seed = seed
        params_path = work_dir / "study_params.json"
        params_path.write_text(json.dumps(STUDY_PARAMS))
        self.true_params = model.Bdar1Params.from_json_dict(STUDY_PARAMS)
        self.base_config = cli.RunConfig(
            params=str(params_path),
            sample_sizes=list(size["sample_sizes"]),
            replicates=size["replicates"],
            output=str(work_dir / "study"),
        )
        self.n_fits = len(size["sample_sizes"]) * size["replicates"]
        # one simulate and one fit per replicate
        self.ops_per_pass = 2 * self.n_fits
        self.sizes = {
            "d1d2": self.true_params.d1 * self.true_params.d2,
            "T": max(size["sample_sizes"]),
        }
        self.digests = {}

    def prepare(self, index):
        # Fit cost varies with the simulated path, so each pass draws fresh paths
        # instead of letting one draw set the run's figure.
        self.index = index
        pass_seed = int(substream(self.seed, self.name, index).integers(2**31))
        self.config = dataclasses.replace(self.base_config, seed=pass_seed)
        _fresh_dir(Path(self.config.output))

    def run(self):
        t0 = clock()
        path = cli.run_replicate_study(self.config)
        elapsed = clock() - t0
        return {"study_s": elapsed, "fits_per_s": self.n_fits / elapsed}, path

    def check(self, path) -> list:
        digest = _digest(path.read_bytes())
        if self.index in self.digests:
            # Byte-identical output means every fit below passed the first time.
            if digest != self.digests[self.index]:
                return [f"replicate CSV of input {self.index} differs from its first run"]
            return []
        self.digests[self.index] = digest
        failures = []
        estimates = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["sample_size"]), int(row["replicate"]))
                if row["param"] == "ERROR":
                    failures.append(f"fit T={key[0]} replicate {key[1]}: {row['error']}")
                    continue
                estimates.setdefault(key, {})[row["param"]] = float(row["estimate"])
        for (t_len, rep), est in sorted(estimates.items()):
            rng = substream(self.config.seed, "replicate", t_len, rep)
            series = model.simulate(self.true_params, t_len, rng)
            fitted = self._params_from_estimates(est)
            ll_fit = inference.conditional_loglik(fitted, series)
            ll_true = inference.conditional_loglik(self.true_params, series)
            if not ll_fit >= ll_true - LOGLIK_MATCH_TOL:
                failures.append(
                    f"fit T={t_len} replicate {rep}: loglik {ll_fit!r} below generating {ll_true!r}"
                )
        return failures

    def _params_from_estimates(self, est: dict) -> model.Bdar1Params:
        truth = self.true_params
        return model.Bdar1Params(
            variant=truth.variant,
            phi1=est["phi1"],
            phi2=est["phi2"],
            m1=CategoricalMarginal(tuple(est[f"p1_{i}"] for i in range(1, truth.d1 + 1))),
            m2=CategoricalMarginal(tuple(est[f"p2_{j}"] for j in range(1, truth.d2 + 1))),
            copula_alpha=CopulaSpec(truth.copula_alpha.family, est["delta_alpha"]),
            copula_eps=CopulaSpec(truth.copula_eps.family, est["delta_eps"]),
        )


class EvaluateD30:
    name = "evaluate-d30"

    D = 30
    ANCHOR = (15, 15)
    PREFIX = 200  # steps of the path whose loglik is checked term by term

    def __init__(self, seed: int, scale: str, work_dir: Path):
        size = SIZES[scale]
        self.seed = seed
        self.length = size["d30_length"]
        self.n_sims = size["d30_sims"]
        self.params = self._draw_params(substream(seed, self.name, "params"))
        self.ops_per_pass = 4
        self.sizes = {"d1d2": self.D * self.D, "T": self.length}
        self.first = None

    def _draw_params(self, rng) -> model.Bdar1Params:
        def marginal():
            # floored away from 0 so every transition has positive probability
            w = np.maximum(rng.dirichlet(np.full(self.D, 2.0)), 0.2 / self.D)
            return CategoricalMarginal(tuple(w / w.sum()))

        # Low keep rates make every forecast step spread over nearly all 900
        # states, so the Monte Carlo forecast's cost (a loop over occupied
        # states) does not swing with the drawn keep rates.
        return model.Bdar1Params(
            variant="m5",
            phi1=rng.uniform(0.05, 0.3),
            phi2=rng.uniform(0.05, 0.3),
            m1=marginal(),
            m2=marginal(),
            copula_alpha=CopulaSpec("frank", rng.uniform(0.5, 12.0)),
            copula_eps=CopulaSpec("frank", rng.uniform(0.5, 12.0)),
        )

    def prepare(self, index):
        # every pass evaluates the same model
        pass

    def run(self):
        p = self.params
        t0 = clock()
        series = model.simulate(p, self.length, substream(self.seed, self.name, "simulate"))
        t1 = clock()
        loglik = inference.conditional_loglik(p, series)
        t2 = clock()
        mc = forecast.forecast(p, self.ANCHOR, HORIZON, self.n_sims, substream(self.seed, self.name, "forecast"))
        t3 = clock()
        exact = forecast.exact_forecast_pmf(p, self.ANCHOR, HORIZON)
        t4 = clock()
        times = {
            "simulate_s": t1 - t0,
            "loglik_s": t2 - t1,
            "mc_forecast_s": t3 - t2,
            "exact_forecast_s": t4 - t3,
        }
        return times, (series, loglik, mc, exact)

    def check(self, outputs) -> list:
        series, loglik, mc, exact = outputs
        failures = []
        fingerprint = (_digest(series.z1.tobytes(), series.z2.tobytes()), loglik)
        self.first = self.first or fingerprint
        if series.n != self.length or fingerprint[0] != self.first[0]:
            failures.append("simulate: path differs from the first pass")
        if not (math.isfinite(loglik) and loglik == self.first[1]):
            failures.append(f"loglik: {loglik!r} differs from the first pass {self.first[1]!r}")
        else:
            failures += self._check_prefix_loglik(series)
        sums = np.array([step.sum() for step in exact])
        if len(exact) != HORIZON or not np.all(np.abs(sums - 1.0) <= PMF_SUM_TOL):
            failures.append(f"exact forecast: step sums {sums.tolist()}")
        else:
            failures += self._check_mc_against_exact(mc, exact)
        return failures

    def _check_prefix_loglik(self, series) -> list:
        z1, z2 = series.z1[: self.PREFIX], series.z2[: self.PREFIX]
        prefix = model.BivariateOrdinalSeries(z1, z2, self.D, self.D)
        got = inference.conditional_loglik(self.params, prefix)
        want = math.fsum(
            math.log(model.joint_conditional_pmf(self.params, int(z1[t - 1]), int(z2[t - 1]))[z1[t] - 1, z2[t] - 1])
            for t in range(1, len(z1))
        )
        if not abs(got - want) <= LOGLIK_MATCH_TOL * max(1.0, abs(want)):
            return [f"loglik: prefix {got!r} != sum of log joint_conditional_pmf {want!r}"]
        return []

    def _check_mc_against_exact(self, mc, exact) -> list:
        # Bernstein: |freq - p| <= sqrt(2 L p (1 - p) / n) + 2 L / (3 n) with
        # L = log(2 / tail), for each cell's binomial count over n paths.
        n = mc.n_sims
        big_l = math.log(2.0 / MC_CELL_TAIL)
        p = np.asarray(exact)
        bound = np.sqrt(2.0 * big_l * p * (1.0 - p) / n) + 2.0 * big_l / (3.0 * n)
        excess = np.abs(mc.joint - p) - bound
        if np.any(excess > 0):
            h, i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            return [
                f"forecast: step {h + 1} cell ({i + 1},{j + 1}) frequency {float(mc.joint[h, i, j])!r} "
                f"outside the binomial bound around {float(p[h, i, j])!r}"
            ]
        return []


WORKLOADS = {w.name: w for w in (CompareQuarterly, ReplicateGumbel, EvaluateD30)}
