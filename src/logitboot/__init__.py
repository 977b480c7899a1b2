"""Logistic regression by maximum likelihood with bootstrap inference.

The package is organized around a small pipeline:

``data_io``
    CSV ingestion of observation records, encoding into an immutable
    design matrix, and a seeded simulator for synthetic studies.
``model_core``
    Link functions, the Bernoulli log-likelihood with its score and
    observed information, and the Newton-Raphson fitter.
``inference``
    Case-resampling bootstrap, Wald / percentile / BCa confidence
    intervals, and odds-ratio reporting.
``validation``
    Split-sample refits, holdout confusion matrices, and fitted
    probability curves by age.

All estimation is deterministic given explicit seeds; see the module
docstrings for the exact generator recipes.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    DegenerateResponseError,
    DimensionMismatchError,
    DomainError,
    InsufficientReplicatesError,
    NotConvergedError,
    ParseError,
    ResamplingInstabilityError,
    SchemaError,
    SeparationError,
    UnknownPredictorError,
)
from .model_core import (
    COEFFICIENT_BOUND,
    CONDITION_LIMIT,
    EncodedDataset,
    FitConfig,
    FitResult,
    deviance_residuals,
    fit_mle,
    linear_predictor,
    log_likelihood,
    logit,
    observed_information,
    score,
    sigmoid,
)
from .inference import (
    MIN_BCA_REPLICATES,
    MIN_PERCENTILE_REPLICATES,
    BootstrapResult,
    IntervalEstimate,
    OddsEntry,
    OddsReport,
    ScaledOddsEntry,
    acceleration_from_jackknife,
    bca_ci,
    bca_intervals,
    bootstrap_fit,
    jackknife_acceleration,
    jackknife_estimates,
    odds_report,
    odds_scale,
    percentile_ci,
    resample_indices,
    wald_ci,
)
from .validation import (
    CurvePoint,
    GroupProfile,
    SplitFit,
    SplitSampleReport,
    ValidationReport,
    default_age_grid,
    holdout_validate,
    probability_curves,
    split_sample_fit,
    standard_profiles,
)
from .data_io import (
    ENCODED_COLUMNS,
    ObservationRecord,
    SimulationSpec,
    decode,
    encode,
    load_csv,
    save_csv,
    simulate,
)

__all__ = [
    "__version__",
    "COEFFICIENT_BOUND",
    "CONDITION_LIMIT",
    "ENCODED_COLUMNS",
    "MIN_BCA_REPLICATES",
    "MIN_PERCENTILE_REPLICATES",
    "BootstrapResult",
    "CurvePoint",
    "DegenerateResponseError",
    "DimensionMismatchError",
    "DomainError",
    "EncodedDataset",
    "FitConfig",
    "FitResult",
    "GroupProfile",
    "InsufficientReplicatesError",
    "IntervalEstimate",
    "NotConvergedError",
    "ObservationRecord",
    "OddsEntry",
    "OddsReport",
    "ParseError",
    "ResamplingInstabilityError",
    "ScaledOddsEntry",
    "SchemaError",
    "SeparationError",
    "SimulationSpec",
    "SplitFit",
    "SplitSampleReport",
    "UnknownPredictorError",
    "ValidationReport",
    "acceleration_from_jackknife",
    "bca_ci",
    "bca_intervals",
    "bootstrap_fit",
    "decode",
    "default_age_grid",
    "deviance_residuals",
    "encode",
    "fit_mle",
    "holdout_validate",
    "jackknife_acceleration",
    "jackknife_estimates",
    "linear_predictor",
    "load_csv",
    "log_likelihood",
    "logit",
    "observed_information",
    "odds_report",
    "odds_scale",
    "percentile_ci",
    "probability_curves",
    "resample_indices",
    "save_csv",
    "score",
    "sigmoid",
    "simulate",
    "split_sample_fit",
    "standard_profiles",
    "wald_ci",
]
