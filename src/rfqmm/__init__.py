"""Multi-asset RFQ market making toolkit.

Builds low-dimensional factor models of the asset covariance, solves the
backward equation for the market maker's value surface on a factor grid,
derives size-aware optimal quotes, estimates a Monte Carlo correction for
the residual risk the factors miss, and simulates the resulting quoting
policies at event level.
"""

# set before the submodule imports: the solver stamps it on every surface
__version__ = "0.1.0"

from .config_io import config_hash, load_config, parse_config
from .errors import OutOfDomainError, SolverError, StabilityError, ValidationError
from .factors import FactorModel, build_factor_model, inventory_factor_model, jacobi_eigendecomposition
from .model import (
    AssetSpec,
    GammaSpec,
    HypothesisReport,
    LogisticIntensity,
    MarketSpec,
    RiskPenalty,
    SizeDistribution,
    build_covariance,
    discretize_gamma,
    validate_hypotheses,
)
from .quotes import (
    MyopicPolicy,
    QuoteResult,
    SurfacePolicy,
    myopic_quote,
    optimal_quote,
    quote_table,
    write_quote_table,
)
from .residual import (
    AdjustedQuote,
    ResidualCorrection,
    adjusted_quote,
    adjusted_quotes,
    residual_correction,
    residual_corrections,
)
from .simulator import (
    SimulationResult,
    SimulationSummary,
    TrajectoryStats,
    simulate,
    simulate_starts,
)
from .solver import FactorGrid, SolverConfig, ValueSurface, solve

__all__ = [
    "AdjustedQuote",
    "AssetSpec",
    "FactorGrid",
    "FactorModel",
    "GammaSpec",
    "HypothesisReport",
    "LogisticIntensity",
    "MarketSpec",
    "MyopicPolicy",
    "OutOfDomainError",
    "QuoteResult",
    "ResidualCorrection",
    "RiskPenalty",
    "SimulationResult",
    "SimulationSummary",
    "SizeDistribution",
    "SolverConfig",
    "SolverError",
    "StabilityError",
    "SurfacePolicy",
    "TrajectoryStats",
    "ValidationError",
    "ValueSurface",
    "adjusted_quote",
    "adjusted_quotes",
    "build_covariance",
    "build_factor_model",
    "config_hash",
    "discretize_gamma",
    "load_config",
    "parse_config",
    "inventory_factor_model",
    "jacobi_eigendecomposition",
    "myopic_quote",
    "optimal_quote",
    "quote_table",
    "residual_correction",
    "residual_corrections",
    "simulate",
    "simulate_starts",
    "solve",
    "validate_hypotheses",
    "write_quote_table",
    "__version__",
]
