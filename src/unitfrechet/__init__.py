"""unitfrechet: the UF distribution of a ratio of dependent extremes.

The UF law on (0, 1) describes X1/(X1 + X2) when (X1, X2) is a
bivariate extreme-value vector with Frechet margins sharing one shape.
This package evaluates its density, CDF and quantiles, samples from it
and from the underlying bivariate law, approximates moments by the
delta method, fits it (and Beta/Kumaraswamy comparisons) by maximum
likelihood, and validates the estimator by simulation. A CLI fronts the
lot; see ``unitfrechet --help``.
"""

from .bivariate import (
    BivParams,
    CovEstimate,
    SampleStats,
    biv_cdf,
    biv_pdf,
    biv_sample,
    estimate_cov,
    ratio_transform,
)
from .core import (
    FrechetParams,
    UfParams,
    frechet_cdf,
    frechet_pdf,
    kernel_cdf,
    kernel_pdf,
    kernel_pdf_drho,
    kernel_pdf_dx,
    kernel_quantile,
    kernel_sf,
    stress_strength,
    uf_cdf,
    uf_logpdf,
    uf_pdf,
    uf_quantile,
    uf_sample,
)
from .datasets import load_uefa
from .errors import (
    DataError,
    DomainError,
    NumericalError,
    ParameterError,
    UnitFrechetError,
)
from .inference import (
    DataSeries,
    FitReport,
    KSResult,
    ModelComparison,
    ModelHandle,
    describe,
    fit_beta,
    fit_kumaraswamy,
    fit_uf,
    ks_test,
    loglik_uf,
    model_handle,
    model_select,
    residuals,
    score_uf,
)
from .moments import (
    ApproximationWarning,
    MomentInputs,
    approx_moment,
    approx_var,
    frechet_moments,
)
from .simulation import (
    CellResult,
    SimConfig,
    SimReport,
    default_theta_grid,
    replication_seed,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationWarning",
    "BivParams",
    "CellResult",
    "CovEstimate",
    "DataError",
    "DataSeries",
    "DomainError",
    "FitReport",
    "FrechetParams",
    "KSResult",
    "ModelComparison",
    "ModelHandle",
    "MomentInputs",
    "NumericalError",
    "ParameterError",
    "SampleStats",
    "SimConfig",
    "SimReport",
    "UfParams",
    "UnitFrechetError",
    "approx_moment",
    "approx_var",
    "biv_cdf",
    "biv_pdf",
    "biv_sample",
    "default_theta_grid",
    "describe",
    "estimate_cov",
    "fit_beta",
    "fit_kumaraswamy",
    "fit_uf",
    "frechet_cdf",
    "frechet_moments",
    "frechet_pdf",
    "kernel_cdf",
    "kernel_pdf",
    "kernel_pdf_drho",
    "kernel_pdf_dx",
    "kernel_quantile",
    "kernel_sf",
    "ks_test",
    "load_uefa",
    "loglik_uf",
    "model_handle",
    "model_select",
    "ratio_transform",
    "replication_seed",
    "residuals",
    "run_study",
    "score_uf",
    "stress_strength",
    "uf_cdf",
    "uf_logpdf",
    "uf_pdf",
    "uf_quantile",
    "uf_sample",
]
