"""Log-Gaussian Cox layer: intensities, integrated means, Poisson counts.

The intensity at a site is the exponential of its log-intensity curve;
integrating over the unit time interval gives the per-cell Poisson mean
(cell area normalized to one, so means are additive over cells).  The
layer reads curve fields only, never the model that simulated them: the
second-moment bound on the integrated intensity is a Monte Carlo check
of the test suite, not a library function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FunctionalField, write_csv

_EXP_GUARD = 700.0  # exp overflow threshold for float64


@dataclass(frozen=True)
class CountGrid:
    """Counts and means per cell as `sample_counts` draws them: the means
    are checked before the draw, and Poisson draws are nonnegative ints."""

    counts: np.ndarray
    means: np.ndarray


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
    if not np.all(m > 0):
        raise ValueError("Poisson means must be positive")
    try:
        counts = np.random.default_rng(seed).poisson(m)
    except ValueError as exc:  # the means are positive: one is beyond numpy's largest draw
        cell = np.unravel_index(m.argmax(), m.shape)
        raise ValueError(f"Poisson mean {m.max():.6g} at cell {tuple(map(int, cell))} is too large to draw") from exc
    return CountGrid(counts, m)


def save_counts(cg: CountGrid, path) -> None:
    """CSV with columns p,q,count,mean."""
    write_csv(path, ("p", "q", "count", "mean"), [cg.counts, cg.means], origin=(0, 0))
