"""Multiscale spatial functional modelling of log-Gaussian count fields.

Simulation of spatial autoregressive curve fields, Haar multiresolution
analysis in time, minimum-contrast estimation in the spatial spectral
domain, plug-in prediction, and Poisson count generation.
"""

from .grids import (
    FunctionalField,
    SpatialGrid,
    TimeGrid,
    detrend,
    load_field,
    save_field,
)
from .wavelet import (
    MultiscaleCoefficients,
    OperatorWaveletMatrix,
    dwt,
    field_dwt,
    idwt,
    normalized_eigenfunctions,
    operator_to_wavelet,
    wavelet_to_operator_eigs,
)
from .sarh import SarhSpec, default_variance_profile, simulate
from .spectral import (
    FrequencyGrid,
    divergence,
    stationarity_check,
)
from .estimator import (
    EstimationReport,
    ThetaDomain,
    estimate_all,
    truncation_parameter,
)
from .cox import CountGrid, integrated_intensity, intensity, sample_counts
from .predict import PredictionResult, ValidationSummary, loo_validate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
