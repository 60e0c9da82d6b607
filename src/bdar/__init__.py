"""Bivariate discrete autoregressive (BDAR) modeling of ordinal time series.

Each series keeps its previous state or draws a fresh one; the two series'
keep/innovate indicators and their innovations are coupled through copulas.
The package provides exact conditional likelihood fitting of five nested
variants, simulation, and forecasting: Monte-Carlo trajectories and exact
h-step pmfs.

Importing the package loads numpy only. SciPy loads at the first fit: the
optimizer and the copula partials of the likelihood gradient need it, while
simulation, scoring, forecasting and ``bdar diagnose`` do not.
"""

from .copulas import PRODUCT, CopulaFamily, CopulaSpec, copula_cdf
from .forecast import ForecastResult, exact_forecast_pmf, forecast
from .inference import (
    FitReport,
    LikelihoodError,
    LrtResult,
    UnobservedStateError,
    conditional_loglik,
    fit,
    information_criteria,
    likelihood_ratio_test,
)
from .joint import CategoricalMarginal, sample_joint
from .model import (
    Bdar1Params,
    BivariateOrdinalSeries,
    TransitionKernel,
    Variant,
    joint_conditional_pmf,
    simulate,
    stationary_joint_pmf,
    transition_tensor,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "PRODUCT",
    "Bdar1Params",
    "BivariateOrdinalSeries",
    "CategoricalMarginal",
    "CopulaFamily",
    "CopulaSpec",
    "FitReport",
    "ForecastResult",
    "LikelihoodError",
    "LrtResult",
    "TransitionKernel",
    "UnobservedStateError",
    "Variant",
    "conditional_loglik",
    "copula_cdf",
    "exact_forecast_pmf",
    "fit",
    "forecast",
    "information_criteria",
    "joint_conditional_pmf",
    "likelihood_ratio_test",
    "sample_joint",
    "simulate",
    "stationary_joint_pmf",
    "substream",
    "transition_tensor",
]
