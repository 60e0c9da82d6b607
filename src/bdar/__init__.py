"""Bivariate discrete autoregressive (BDAR) modeling of ordinal time series.

Each series keeps its previous state or draws a fresh one; the two series'
keep/innovate indicators and their innovations are coupled through copulas.
The package provides exact conditional likelihood fitting of five nested
variants, simulation, moment formulas, and Monte-Carlo forecasting.
"""

from .copulas import PRODUCT, CopulaFamily, CopulaSpec, copula_cdf, rectangle_mass
from .forecast import ForecastResult, exact_forecast_pmf, forecast
from .inference import (
    FitReport,
    LikelihoodError,
    LrtResult,
    UnobservedStateError,
    conditional_loglik,
    fit,
    information_criteria,
    kendall_tau,
    likelihood_ratio_test,
)
from .joint import (
    CategoricalMarginal,
    InnovationTable,
    MechanismTable,
    bernoulli_joint,
    innovation_joint,
    sample_joint,
)
from .model import (
    Bdar1Params,
    BivariateOrdinalSeries,
    CrossMoments,
    TransitionKernel,
    Transitions,
    Variant,
    cross_moments,
    dar1_conditional_pmf,
    dar1_simulate,
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
    "CrossMoments",
    "FitReport",
    "ForecastResult",
    "InnovationTable",
    "LikelihoodError",
    "LrtResult",
    "MechanismTable",
    "TransitionKernel",
    "Transitions",
    "UnobservedStateError",
    "Variant",
    "bernoulli_joint",
    "conditional_loglik",
    "copula_cdf",
    "cross_moments",
    "dar1_conditional_pmf",
    "dar1_simulate",
    "exact_forecast_pmf",
    "fit",
    "forecast",
    "information_criteria",
    "innovation_joint",
    "joint_conditional_pmf",
    "kendall_tau",
    "likelihood_ratio_test",
    "rectangle_mass",
    "sample_joint",
    "simulate",
    "stationary_joint_pmf",
    "substream",
    "transition_tensor",
]
