"""sha256 digests of copula CDF values and transition-kernel cells.

Prints, as JSON, one digest per copula spec of ``copula_cdf`` over grids and
scalar points that include the edges, and one per (variant, family) group of
``TransitionKernel.from_params`` cells over seeded random parameters. Run it
on two checkouts and diff the outputs to see whether a change to the copula
evaluator or to the cell builders keeps every value bit for bit. The tests
pin the digests (tests/test_copulas.py, tests/test_joint.py).

Run from the repo root: PYTHONPATH=src python3 tools/make_cells_digests.py
"""

import hashlib
import json

import numpy as np

from bdar import Bdar1Params, CategoricalMarginal, CopulaFamily, CopulaSpec, copula_cdf
from bdar.inference import (
    _FRANK_ETA_BOUNDS,
    _GUMBEL_ETA_BOUNDS,
    _PHI_ETA_BOUNDS,
    eta_to_delta,
    eta_to_phi,
)
from bdar.model import TransitionKernel, Variant

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


def main() -> None:
    digests = {
        "copula_cdf": {label(spec): copula_cdf_digest(spec) for spec in COPULA_SPECS},
        "kernel_cells": kernel_cells_digests(),
    }
    print(json.dumps(digests, indent=2))


if __name__ == "__main__":
    main()
