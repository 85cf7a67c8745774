"""Multiscale spatial functional modelling of log-Gaussian count fields.

Simulation of spatial autoregressive curve fields, Haar multiresolution
analysis in time, minimum-contrast estimation in the spatial spectral
domain, plug-in prediction, and Poisson count generation.
"""

from .grids import (
    FunctionalField,
    MeanCurve,
    SpatialGrid,
    TimeGrid,
    add_mean,
    detrend,
    load_field,
    save_field,
)
from .wavelet import (
    MultiscaleCoefficients,
    OperatorWaveletMatrix,
    WaveletIndex,
    dwt,
    field_dwt,
    field_idwt,
    idwt,
    normalized_eigenfunctions,
    operator_to_wavelet,
    wavelet_to_operator_eigs,
)
from .sarh import NodeParams, SarhSpec, default_variance_profile, simulate
from .spectral import (
    FrequencyGrid,
    PeriodogramTable,
    divergence,
    empirical_contrast,
    log_psi,
    periodogram,
    stationarity_check,
)
from .estimator import (
    EstimationReport,
    ThetaDomain,
    estimate_all,
    estimate_node,
    estimate_sigma2,
    innovation_variance,
    truncation_parameter,
)
from .cox import CountGrid, IntensityField, integrated_intensity, intensity, moment_bound_check, sample_counts
from .predict import PredictionResult, ValidationSummary, loo_validate, predict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
