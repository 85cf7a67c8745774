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
r1 + r2 - 1 steps whatever the number of components.  It runs in place on
one zero-bordered (K, r1 + 1, r2 + 1) array that holds the innovations
and is overwritten by the fields; a diagonal is a strided slice of it.

Beyond the unit-trace scaling of `default_variance_profile`, the module
evaluates no moment of the model: the components' stationary variances,
which only the second-moment bound of the Cox layer needs, are reference
code of the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import FunctionalField, SpatialGrid, TimeGrid
from .spectral import edge_norm
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


def _ar_fields(thetas: np.ndarray, x: np.ndarray) -> None:
    """AR fields of K components at once, in place: thetas (K, 3), and a
    C-contiguous x (K, r1 + 1, r2 + 1) whose row and column 0 are zero and
    whose x[:, 1:, 1:] holds the innovations, which the fields overwrite.

    In the flattened rows of x, lattice cell (r, c) sits at
    (r + 1)(r2 + 1) + c + 1, so diagonal d = r + c, r = lo..hi, is the
    basic slice from r2 + 2 + d + lo r2 in steps of r2, and its west,
    north and north-west neighbours are that slice shifted by -1,
    -(r2 + 1) and -(r2 + 2), on diagonals already computed or on the zero
    border.  Each cell reads its own innovation before it is overwritten.
    """
    k, r1, r2 = x.shape[0], x.shape[1] - 1, x.shape[2] - 1
    th1, th2, th3 = (thetas[:, i, None] for i in range(3))
    flat = x.reshape(k, -1)
    for d in range(r1 + r2 - 1):
        lo, hi = max(0, d - r2 + 1), min(d, r1 - 1)
        start = r2 + 2 + d + lo * r2
        stop = start + (hi - lo) * r2 + 1
        cells, west, north, northwest = (flat[:, start - o:stop - o:r2] for o in (0, 1, r2 + 1, r2 + 2))
        cells[:] = th2 * west + (cells + (th1 * north + th3 * northwest))


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
    r1, r2 = grid.s1 + burn_in, grid.s2 + burn_in
    x = np.zeros((spec.truncation, r1 + 1, r2 + 1))
    for xp, sigma2, ss in zip(x, spec.innovation_variances, seeds):
        xp[1:, 1:] = np.random.default_rng(ss).normal(0.0, np.sqrt(sigma2), size=(r1, r2))
    _ar_fields(thetas, x)
    comps = x[:, 1 + burn_in:, 1 + burn_in:]
    values = np.zeros((grid.s1, grid.s2, spec.time.n))
    for comp, phi_p in zip(comps, phi):
        values += comp[:, :, None] * phi_p[None, None, :]
    return FunctionalField(grid, spec.time, values)

