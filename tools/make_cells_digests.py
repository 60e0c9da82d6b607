"""sha256 digests of copula CDF values, transition-kernel cells and the fit.

Prints, as JSON, one digest per copula spec of ``copula_cdf`` over grids and
scalar points that include the edges, and one per (variant, family) group of
``TransitionKernel.from_params`` cells over seeded random parameters. For the
fit it adds one digest per (variant, mechanism family, innovation family) of
the objective's value and gradient at seeded points, one of every
``_default_starts`` vector, and one per copula family of every L-BFGS-B
starting point of a seeded M5 fit. Run it on two checkouts and diff the
outputs to see whether a change to the copula evaluator, the cell builders
or the fit's parameter map keeps every value bit for bit. The tests pin the
digests (tests/test_copulas.py, tests/test_joint.py, tests/test_inference.py).

Run from the repo root: PYTHONPATH=src python3 tools/make_cells_digests.py
"""

import hashlib
import json

import numpy as np

from bdar import Bdar1Params, CategoricalMarginal, CopulaFamily, CopulaSpec, copula_cdf, simulate
from bdar import inference
from bdar.cli import BUNDLED_PARAMS
from bdar.inference import (
    _FRANK_ETA_BOUNDS,
    _GUMBEL_ETA_BOUNDS,
    _PHI_ETA_BOUNDS,
    _Layout,
    eta_to_delta,
    eta_to_phi,
)
from bdar.model import TransitionKernel, Variant
from bdar.rng import substream

# every branch of the evaluator: the Frank independence band, the series for
# dC/ddelta (|delta| < 1e-2), the expm1/log1p value (|delta| < 1) and the
# closed form of either sign up to the optimizer's bound ~7e10; Gumbel at
# independence, a hair above it and at the same bound
COPULA_SPECS = (
    [CopulaSpec("frank", d) for d in (5e-9, -5e-9, 3e-3, -3e-3, 0.4, -0.4, 5.0, -5.0, 7.2e10, -7.2e10)]
    + [CopulaSpec("gumbel", d) for d in (1.0, 1.0 + 1e-12, 2.5, 7.2e10)]
    + [CopulaSpec("product")]
)

_EDGES = [0.0, 1.0, 1e-300, 1e-17, 1.0 - 2.0**-53]
_U = np.array(_EDGES + [1e-14, 1e-6, 0.03, 0.3, 0.5, 0.7, 0.97, 1.0 - 1e-6, 1.0 - 1e-14])
_V = np.array(_EDGES + [2e-14, 0.011, 0.25, 0.49, 0.5, 0.83, 0.9999, 1.0 - 2e-14])


def label(spec: CopulaSpec) -> str:
    return f"{spec.family.value} {spec.delta!r}"


def copula_cdf_digest(spec: CopulaSpec) -> str:
    """Digest of ``copula_cdf`` on the grid ``_U`` x ``_V`` plus seeded
    uniforms, then at scalar points."""
    rng = np.random.default_rng(0)
    u = np.concatenate([_U, rng.random(20)])
    v = np.concatenate([_V, rng.random(20)])
    h = hashlib.sha256(copula_cdf(spec, u[:, None], v[None, :]).tobytes())
    h.update(np.array([copula_cdf(spec, float(a), float(b)) for a, b in zip(u, v[::-1])]).tobytes())
    return h.hexdigest()


def _marginal(rng: np.random.Generator, d: int) -> CategoricalMarginal:
    # a quarter of the marginals put 1e-17 on the last state (F(d-1) rounds
    # to 1) or on the first; draws whose F(k) exceeds 1 for some k < d are
    # left out
    while True:
        tiny = rng.random()
        if tiny < 0.3:
            p = rng.dirichlet(np.ones(d - 1))
            p = np.append(p, 1e-17) if tiny < 0.15 else np.insert(p, 0, 1e-17)
        else:
            p = rng.dirichlet(np.ones(d))
        if np.cumsum(p)[:-1].max() <= 1.0:
            return CategoricalMarginal(tuple(p))


def _params(rng: np.random.Generator, variant: Variant, family: str) -> Bdar1Params:
    eta_bounds = _GUMBEL_ETA_BOUNDS if family == "gumbel" else _FRANK_ETA_BOUNDS

    def spec():
        return CopulaSpec(family, eta_to_delta(rng.uniform(*eta_bounds), CopulaFamily(family)))

    phi1, phi2 = (eta_to_phi(rng.uniform(*_PHI_ETA_BOUNDS)) for _ in range(2))
    d1, d2 = rng.integers(2, 31, size=2)
    alpha = spec() if variant in (Variant.M4, Variant.M5) else None
    eps = spec() if variant in (Variant.M2, Variant.M3, Variant.M5) else None
    return Bdar1Params(
        variant=variant,
        phi1=phi1,
        phi2=phi1 if variant is Variant.M2 else phi2,
        m1=_marginal(rng, d1),
        m2=_marginal(rng, d2),
        copula_alpha=alpha,
        copula_eps=eps,
    )


def kernel_cells_digests(n: int = 40) -> dict:
    """Per group, the digest of ``mech`` then ``pe`` of ``n`` kernels."""
    groups = [(Variant.M1, "product")] + [
        (variant, family)
        for variant in (Variant.M2, Variant.M3, Variant.M4, Variant.M5)
        for family in ("gumbel", "frank")
    ]
    out = {}
    for k, (variant, family) in enumerate(groups):
        rng = np.random.default_rng([2510, k])
        h = hashlib.sha256()
        for _ in range(n):
            kernel = TransitionKernel.from_params(_params(rng, variant, family))
            h.update(kernel.mech.tobytes())
            h.update(kernel.pe.tobytes())
        out[f"{variant.value} {family}"] = h.hexdigest()
    return out


FAMILIES = ("frank", "gumbel")
LAYOUT_GROUPS = [
    (variant, alpha, eps) for variant in Variant for alpha in FAMILIES for eps in FAMILIES
]


def _counts(rng: np.random.Generator, d1: int, d2: int) -> np.ndarray:
    """Seeded transition counts; about half the cells are 0."""
    return rng.poisson(0.8, size=(d1, d2, d1, d2)).astype(float)


def objective_digests(n: int = 30) -> dict:
    """Per layout group, the digest of the objective's value then gradient
    at ``n`` seeded points on seeded counts. A coordinate is drawn within
    its eta bounds, scaled by 1, 0.2 or 0.05 so that points near the middle
    and near the bounds both occur."""
    out = {}
    for k, (variant, alpha, eps) in enumerate(LAYOUT_GROUPS):
        rng = np.random.default_rng([2511, k])
        h = hashlib.sha256()
        for _ in range(n):
            d1, d2 = (int(d) for d in rng.integers(2, 7, size=2))
            layout = _Layout.build(variant, d1, d2, alpha, eps)
            objective = inference._make_objective(layout, _counts(rng, d1, d2))
            lo, hi = np.asarray(layout.bounds()).T
            x = rng.uniform(lo, hi) * rng.choice([1.0, 0.2, 0.05], size=layout.size)
            value, grad = objective(x)
            h.update(np.float64(value).tobytes())
            h.update(grad.tobytes())
        out[f"{variant.value} {alpha} {eps}"] = h.hexdigest()
    return out


def default_starts_digest(n: int = 6) -> str:
    """Digest of every ``_default_starts`` vector, per layout group, of
    ``n`` seeded transition-count arrays and first pairs."""
    rng = np.random.default_rng(2512)
    h = hashlib.sha256()
    for _ in range(n):
        d1, d2 = (int(d) for d in rng.integers(2, 7, size=2))
        first = (int(rng.integers(1, d1 + 1)), int(rng.integers(1, d2 + 1)))
        summaries = inference._series_summaries(_counts(rng, d1, d2), first)
        for variant, alpha, eps in LAYOUT_GROUPS:
            layout = _Layout.build(variant, d1, d2, alpha, eps)
            for x in inference._default_starts(summaries, layout):
                h.update(x.tobytes())
    return h.hexdigest()


class _RecordingOptimize:
    """Stand-in for ``scipy.optimize`` that records each L-BFGS-B start."""

    def __init__(self, real):
        self.real = real
        self.starts = []

    def minimize(self, fun, x0, **kwargs):
        self.starts.append(np.array(x0, dtype=float))
        return self.real.minimize(fun, x0, **kwargs)


def fit_starts_digests(length: int = 300) -> dict:
    """Per copula family, the digest of every L-BFGS-B starting point of an
    M5 fit, in call order, to a path simulated from the bundled parameters."""
    truth = Bdar1Params.from_json_dict(json.loads(BUNDLED_PARAMS.read_text()))
    series = simulate(truth, length, substream(2513, "fit-starts"))
    out = {}
    real = inference.optimize
    for family in FAMILIES:
        recorder = _RecordingOptimize(real)
        inference.optimize = recorder
        try:
            inference.fit(series, "m5", family, family)
        finally:
            inference.optimize = real
        h = hashlib.sha256()
        for x0 in recorder.starts:
            h.update(x0.tobytes())
        out[f"m5 {family}"] = h.hexdigest()
    return out


def main() -> None:
    digests = {
        "copula_cdf": {label(spec): copula_cdf_digest(spec) for spec in COPULA_SPECS},
        "kernel_cells": kernel_cells_digests(),
        "objective": objective_digests(),
        "default_starts": default_starts_digest(),
        "fit_starts": fit_starts_digests(),
    }
    print(json.dumps(digests, indent=2))


if __name__ == "__main__":
    main()
