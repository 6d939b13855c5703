"""Mixture-of-GP volatility modeling with a Pitman-Yor component prior."""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    historical_volatility,
    run_covariance_backtest,
    run_volatility_backtest,
)
from .copula import (
    Clayton,
    Frank,
    Gumbel,
    PairwiseCopulaModel,
    conditional_theta,
    copula_cdf,
    copula_log_density,
    family_from_name,
    predictive_covariance,
    train_pairwise,
)
from .data_io import (
    PriceSeries,
    ReturnSeries,
    load_price_csv,
    prices_from_returns,
    to_log_returns,
    write_price_csv,
)
from .errors import (
    DegenerateMarginalsError,
    DivergedFitError,
    FormatError,
    IllConditionedError,
    InsufficientDataError,
    InvalidArgumentError,
    MgpchError,
    ModelStateError,
    NumericalDomainError,
    QuadratureWarning,
)
from .garch import GarchParams, garch_filter, garch_fit, garch_forecast
from .kernels import Ar1Kernel, ZeroKernel
from .model import (
    MgpchConfig,
    MgpchModel,
    PredictiveMoments,
    fit,
    free_energy,
    predict,
    predict_batch,
)
from .pyp import InnovationPosterior, PypConfig, StickPosterior
from .serialize import load_model, save_model
from .simulation import SimulationDraw, simulate

__version__ = "0.1.0"

__all__ = [
    "Ar1Kernel",
    "BacktestConfig",
    "BacktestReport",
    "Clayton",
    "DegenerateMarginalsError",
    "DivergedFitError",
    "FormatError",
    "Frank",
    "GarchParams",
    "Gumbel",
    "IllConditionedError",
    "InnovationPosterior",
    "InsufficientDataError",
    "InvalidArgumentError",
    "MgpchConfig",
    "MgpchError",
    "MgpchModel",
    "ModelStateError",
    "NumericalDomainError",
    "PairwiseCopulaModel",
    "PredictiveMoments",
    "PriceSeries",
    "PypConfig",
    "QuadratureWarning",
    "ReturnSeries",
    "SimulationDraw",
    "StickPosterior",
    "ZeroKernel",
    "conditional_theta",
    "copula_cdf",
    "copula_log_density",
    "family_from_name",
    "fit",
    "free_energy",
    "garch_filter",
    "garch_fit",
    "garch_forecast",
    "historical_volatility",
    "load_model",
    "load_price_csv",
    "predict",
    "predict_batch",
    "predictive_covariance",
    "prices_from_returns",
    "run_covariance_backtest",
    "run_volatility_backtest",
    "save_model",
    "simulate",
    "to_log_returns",
    "train_pairwise",
    "write_price_csv",
]
