"""Simulation of the SARH(1) spatial curve process in a finite sine basis.

Each retained component p carries a scalar unilateral AR field

    x[r, c] = th2 * x[r, c-1] + (e[r, c] + (th1 * x[r-1, c] + th3 * x[r-1, c-1]))

with iid Gaussian innovations and zeros outside the lattice (the
parenthesisation is the evaluation order).  The curve at a site is the
component sum against the (discretely normalized) sine eigenfunctions.
Simulation runs on a zero-initialized enlarged lattice and crops the
trailing block, so the initialization error decays geometrically with the
burn-in margin.

The recursion runs as a wavefront: a cell on the anti-diagonal r + c = d
depends only on diagonals d - 1 and d - 2, so each diagonal is one
vectorized step, shared by all components.  An (r1, r2) lattice takes
r1 + r2 - 1 steps whatever the number of components.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import FunctionalField, SpatialGrid, TimeGrid
from .spectral import FrequencyGrid, _inverse_symbol_sq, edge_norm
from .wavelet import normalized_eigenfunctions

DEFAULT_BURN_IN = 64


def default_variance_profile(eigenvalues1, eigenvalues2) -> np.ndarray:
    """Summable innovation variances sigma2_p ~ p^-2, scaled so the
    stationary variances of the factorized components sum to one."""
    lam1 = np.asarray(eigenvalues1, dtype=float)
    lam2 = np.asarray(eigenvalues2, dtype=float)
    p = np.arange(1, lam1.size + 1)
    raw = p**-2.0
    trace = np.sum(raw / ((1.0 - lam1**2) * (1.0 - lam2**2)))
    return raw / trace


@dataclass(frozen=True)
class SarhSpec:
    """Model specification for the diagonal (common-eigenbasis) case."""

    eigenvalues1: np.ndarray
    eigenvalues2: np.ndarray
    innovation_variances: np.ndarray
    time: TimeGrid
    couple_l3: bool = True
    eigenvalues3: np.ndarray | None = None

    def __post_init__(self):
        lam1 = np.asarray(self.eigenvalues1, dtype=float)
        lam2 = np.asarray(self.eigenvalues2, dtype=float)
        sig2 = np.asarray(self.innovation_variances, dtype=float)
        if not (lam1.size == lam2.size == sig2.size):
            raise ValueError("eigenvalue and variance vectors must share length")
        if lam1.size < 1:
            raise ValueError("need at least one component")
        if lam1.size > self.time.n:
            raise ValueError(f"cannot build {lam1.size} orthogonal eigenfunctions on {self.time.n} time points")
        if not all(np.isfinite(v).all() for v in (lam1, lam2, sig2)):
            raise ValueError("eigenvalues and innovation variances must be finite")
        if self.couple_l3:
            lam3 = -lam1 * lam2
        else:
            if self.eigenvalues3 is None:
                raise ValueError("eigenvalues3 required when couple_l3 is unset")
            lam3 = np.asarray(self.eigenvalues3, dtype=float)
            if lam3.size != lam1.size:
                raise ValueError("eigenvalues3 length mismatch")
            if not np.isfinite(lam3).all():
                raise ValueError("eigenvalues3 must be finite")
        if np.any(edge_norm(np.column_stack([lam1, lam2, lam3]), self.couple_l3) >= 1):
            raise ValueError(
                "require |lambda_p1| < 1 and |lambda_p2| < 1" if self.couple_l3 else
                "require |lambda_p1| + |lambda_p2| + |lambda_p3| < 1 for uncoupled L3"
            )
        if np.any(sig2 <= 0):
            raise ValueError("innovation variances must be positive")
        object.__setattr__(self, "eigenvalues1", lam1)
        object.__setattr__(self, "eigenvalues2", lam2)
        object.__setattr__(self, "eigenvalues3", lam3)
        object.__setattr__(self, "innovation_variances", sig2)

    @property
    def truncation(self) -> int:
        return self.eigenvalues1.size

    def stationary_variances(self) -> np.ndarray:
        """Marginal variance of each component field.

        Closed form for the factorized model; spectral Riemann sum
        otherwise.
        """
        if self.couple_l3:
            return self.innovation_variances / (
                (1.0 - self.eigenvalues1**2) * (1.0 - self.eigenvalues2**2)
            )
        return np.array(
            [
                _spectral_variance(
                    (
                        self.eigenvalues1[i],
                        self.eigenvalues2[i],
                        self.eigenvalues3[i],
                    ),
                    self.innovation_variances[i],
                )
                for i in range(self.truncation)
            ]
        )


def _spectral_variance(theta, sigma2: float, n: int = 256) -> float:
    """Variance of a stationary AR field via its spectral representation."""
    thetas = np.asarray(theta, dtype=float).reshape(1, 3)
    return float(sigma2 * np.mean(_inverse_symbol_sq(thetas, FrequencyGrid(n, n))))


def _ar_fields(thetas: np.ndarray, e: np.ndarray) -> np.ndarray:
    """AR fields of K components at once: thetas (K, 3), innovations
    (K, r1, r2) -> fields (K, r1, r2), zero-initialized outside the lattice.

    Storage is skewed, s[:, r + c + 2, r + 1] = x[:, r, c], so diagonal
    d = r + c is the contiguous slice s[:, d + 2, lo + 1:hi + 2] and its
    three neighbours are slices of the two diagonals before it, s[:, d + 1]
    and s[:, d].  The entries s[:, j, i] with j <= i or i = 0 are never
    written and hold the zero boundary.
    """
    k, r1, r2 = e.shape
    th1, th2, th3 = (thetas[:, i, None] for i in range(3))
    rows, cols = np.indices((r1, r2))
    skew = (slice(None), rows + cols + 2, rows + 1)
    s = np.zeros((k, r1 + r2 + 1, r1 + 1))
    es = np.zeros_like(s)
    es[skew] = e
    for d in range(r1 + r2 - 1):
        lo, hi = max(0, d - r2 + 1), min(d, r1 - 1)
        i, up = slice(lo + 1, hi + 2), slice(lo, hi + 1)
        s[:, d + 2, i] = th2 * s[:, d + 1, i] + (
            es[:, d + 2, i] + (th1 * s[:, d + 1, up] + th3 * s[:, d, up])
        )
    return s[skew]


def _innovations(sigma2: float, grid: SpatialGrid, burn_in: int, rng) -> np.ndarray:
    r1, r2 = grid.s1 + burn_in, grid.s2 + burn_in
    return rng.normal(0.0, np.sqrt(sigma2), size=(r1, r2))


def simulate(
    spec: SarhSpec,
    grid: SpatialGrid,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> FunctionalField:
    """Simulate the curve field; deterministic given the seed.

    Component seeds are split from the root seed, so each component's
    innovations do not depend on the others.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    thetas = np.column_stack(
        [spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3]
    )
    rate = float(edge_norm(thetas, spec.couple_l3).max())
    if rate > 0 and rate ** max(burn_in, 1) > 1e-6:
        warnings.warn(
            f"burn_in={burn_in} may be too small for AR edge norm {rate:.3f}",
            stacklevel=2,
        )
    phi = normalized_eigenfunctions(spec.time, spec.truncation)
    seeds = np.random.SeedSequence(seed).spawn(spec.truncation)
    e = np.stack([
        _innovations(sigma2, grid, burn_in, np.random.default_rng(ss))
        for sigma2, ss in zip(spec.innovation_variances, seeds)
    ])
    comps = _ar_fields(thetas, e)[:, burn_in:, burn_in:]
    values = np.zeros((grid.s1, grid.s2, spec.time.n))
    for comp, phi_p in zip(comps, phi):
        values += comp[:, :, None] * phi_p[None, None, :]
    return FunctionalField(grid, spec.time, values)

