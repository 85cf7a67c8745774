"""Log-Gaussian Cox layer: intensities, integrated means, Poisson counts.

The intensity at a site is the exponential of its log-intensity curve;
integrating over the unit time interval gives the per-cell Poisson mean
(cell area normalized to one, so means are additive over cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FunctionalField, SpatialGrid, write_csv
from .sarh import SarhSpec
from .wavelet import normalized_eigenfunctions

_EXP_GUARD = 700.0  # exp overflow threshold for float64


@dataclass(frozen=True)
class CountGrid:
    grid: SpatialGrid
    counts: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        m = np.asarray(self.means, dtype=float)
        shape = (self.grid.s1, self.grid.s2)
        if c.shape != shape or m.shape != shape:
            raise ValueError("counts/means shape mismatch")
        if np.any(c < 0) or not np.issubdtype(c.dtype, np.integer):
            raise ValueError("counts must be nonnegative integers")
        if np.any(m <= 0):
            raise ValueError("means must be positive")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "means", m)


def intensity(logfield: FunctionalField) -> FunctionalField:
    """Exponentiate the log-intensity field.  The intensity is finite and
    strictly positive: a log-intensity whose exp overflows or underflows
    to zero is rejected, naming its site."""
    log_values = logfield.values
    peak = np.max(log_values)
    if peak > _EXP_GUARD:
        site = np.unravel_index(log_values.max(axis=2).argmax(), log_values.shape[:2])
        raise OverflowError(f"log-intensity {peak:.1f} at site {tuple(map(int, site))} would overflow exp")
    values = np.exp(log_values)
    if not np.all(values > 0):
        low = log_values.min(axis=2)
        site = np.unravel_index(low.argmin(), low.shape)
        raise ValueError(f"log-intensity {low.min():.1f} at site {tuple(map(int, site))} underflows exp to zero")
    return FunctionalField(logfield.grid, logfield.time, values)


def integrated_intensity(fld: FunctionalField) -> np.ndarray:
    """Per-cell time integral of the intensity (midpoint Riemann sum)."""
    return fld.values.sum(axis=2) * fld.time.weight


def sample_counts(means: np.ndarray, seed: int) -> CountGrid:
    """Independent Poisson draws per cell, deterministic given the seed.

    One generator draws the cells in C order, so the count of a cell
    depends only on the seed and the means of the cells up to it.
    """
    m = np.asarray(means, dtype=float)
    if np.any(m <= 0):
        raise ValueError("Poisson means must be positive")
    return CountGrid(SpatialGrid(*m.shape), np.random.default_rng(seed).poisson(m), m)


def moment_bound_check(
    spec: SarhSpec, n_mc: int = 1000, seed: int = 0
) -> tuple[float, float, bool]:
    """Monte Carlo check of the second-moment bound on the integrated
    intensity of a single site.

    Draws iid stationary component scores, forms Psi = int exp(X(t)) dt,
    and compares the sample second moment against
    exp(4 * trace * M^2), where trace is the summed component variance
    and M the sup of the (normalized) eigenfunctions on the grid.

    Returns (mc_second_moment, analytic_bound, pass_flag).
    """
    if n_mc < 100:
        raise ValueError("need n_mc >= 100")
    variances = spec.stationary_variances()
    phi = normalized_eigenfunctions(spec.time, spec.truncation)
    sup_m = float(np.max(np.abs(phi)))
    trace = float(variances.sum())
    bound = float(np.exp(4.0 * trace * sup_m**2))  # |T| = 1

    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n_mc, spec.truncation)) * np.sqrt(variances)[None, :]
    curves = scores @ phi  # (n_mc, 2**D)
    psi = np.exp(curves).sum(axis=1) * spec.time.weight
    second = float(np.mean(psi**2))
    stderr = float(np.std(psi**2, ddof=1) / np.sqrt(n_mc))
    passed = second <= bound * (1.0 + 3.0 * stderr / max(second, 1e-300))
    return second, bound, bool(passed)


def save_counts(cg: CountGrid, path) -> None:
    """CSV with columns p,q,count,mean."""
    write_csv(path, ("p", "q", "count", "mean"), [cg.counts, cg.means], origin=(0, 0))
