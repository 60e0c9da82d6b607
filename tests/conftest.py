import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bdar import Bdar1Params, CategoricalMarginal, CopulaSpec

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "bdar" / "data"


@functools.cache
def load_script(relative: str):
    """A module of ``tools/`` or ``perfbench/`` (neither is a package),
    loaded by its path from the repo root, once per session."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def study_params() -> Bdar1Params:
    """The simulation-study configuration: 3-state margins, Gumbel copulas."""
    return Bdar1Params(
        variant="m5",
        phi1=0.4,
        phi2=0.25,
        m1=CategoricalMarginal((0.15, 0.6, 0.25)),
        m2=CategoricalMarginal((0.2, 0.3, 0.5)),
        copula_alpha=CopulaSpec("gumbel", 2.0),
        copula_eps=CopulaSpec("gumbel", 2.0),
    )


@pytest.fixture
def fixture_params() -> Bdar1Params:
    """Generating parameters of the bundled synthetic quarterly series."""
    return Bdar1Params.from_json_dict(
        json.loads((DATA_DIR / "synthetic_quarterly_params.json").read_text())
    )


@pytest.fixture
def random_params_factory():
    """Draw valid M5 parameter sets for property tests.

    Marginals are kept away from the simplex boundary and keep rates away
    from 1 so likelihoods and stationary distributions stay well conditioned.
    """

    def draw(rng: np.random.Generator, d1: int = 3, d2: int = 3, family: str = "gumbel"):
        def marginal(d):
            w = rng.dirichlet(np.full(d, 2.0))
            w = np.maximum(w, 0.05)
            return CategoricalMarginal(tuple(w / w.sum()))

        if family == "gumbel":
            delta_alpha = 1.0 + 4.0 * rng.random()
            delta_eps = 1.0 + 4.0 * rng.random()
        else:
            delta_alpha = rng.uniform(0.5, 12.0)
            delta_eps = rng.uniform(0.5, 12.0)
        return Bdar1Params(
            variant="m5",
            phi1=rng.uniform(0.05, 0.9),
            phi2=rng.uniform(0.05, 0.9),
            m1=marginal(d1),
            m2=marginal(d2),
            copula_alpha=CopulaSpec(family, delta_alpha),
            copula_eps=CopulaSpec(family, delta_eps),
        )

    return draw
