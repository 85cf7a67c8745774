"""Simulation of the SARH(1) spatial curve process in a finite sine basis.

Each retained component p carries a scalar unilateral AR field

    x[r, c] = th2 * x[r, c-1] + (e[r, c] + (th1 * x[r-1, c] + th3 * x[r-1, c-1]))

with iid Gaussian innovations and zeros outside the lattice.  The curve at
a site is the component sum against the (discretely normalized) sine
eigenfunctions.  Simulation runs on a zero-initialized enlarged lattice
and crops the trailing block, so the initialization error decays
geometrically with the burn-in margin.

Two recursions compute the fields, each in place on one array that holds
the innovations of all K components, so an (r1, r2) lattice takes the
same number of steps whatever the number of components:

- The factorized model (`couple_l3`, th3 = -th1 * th2) is
  (1 - th1 N)(1 - th2 W) x = e for the north and west shifts N and W, two
  first-order filters.  `_factorized_fields` runs them as two passes:
  first down the rows of the whole lattice,
  y[r, c] = y[r, c] + th1 * y[r-1, c], then along the columns of the rows
  the field keeps, x[r, c] = x[r, c] + th2 * x[r, c-1].  That is
  r1 + r2 - 2 steps of two ufunc calls each, on an unpadded array
  with the lattice rows outermost.
- The general model has no such split: a cell needs its west, north and
  north-west neighbours at once.  `_ar_fields` evaluates the recursion
  above as written (the parenthesisation is the evaluation order) as a
  wavefront: a cell on the anti-diagonal r + c = d depends only on
  diagonals d - 1 and d - 2, so each diagonal is one vectorized step,
  r1 + r2 - 1 steps of seven ufunc calls.  It runs on a zero-bordered
  (K, r1 + 1, r2 + 1) array, and a diagonal is a strided slice of it.

On a factorized model the two agree up to rounding, not bit for bit: the
passes never form th3 = -th1 * th2, which the wavefront rounds, and they
add in another order.

Both feed one expansion: the output field accumulates comp_p * phi_p
component by component, over blocks of whole lattice rows of at most
`_EXPAND_BLOCK` elements (one row if a row is larger), each product
written into one block-sized buffer, so no field-sized product is
formed.  Each output entry gets the same multiply and add in the same
component order whatever the block, so the blocks do not change a bit.

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
# most elements of one product comp_p * phi_p over a block of rows (128 KiB)
_EXPAND_BLOCK = 2**14


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


def _factorized_fields(thetas: np.ndarray, x: np.ndarray, first_kept: int) -> None:
    """Factorized AR fields of K components at once, in place: thetas
    (K, 3), of which th3 = -th1 * th2 is not read, and x (K, r1, r2) of
    innovations, which the fields overwrite on rows first_kept onwards.

    The north filter runs down the rows of the whole lattice, the west
    filter then along the columns of rows first_kept onwards only, since
    no kept row reads another row in that pass.  Each step is one line of
    every component, a view of x; the steps are cheapest when x is a
    transposed (r1, K, r2) array, so that a lattice row of all components
    is one contiguous block.
    """
    th1, th2 = thetas[:, 0, None], thetas[:, 1, None]
    for th, lines in ((th1, x.transpose(1, 0, 2)), (th2, x[:, first_kept:].transpose(2, 0, 1))):
        for prev, cur in zip(lines, lines[1:]):
            cur += th * prev


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
    if spec.couple_l3:
        fields = np.zeros((r1, spec.truncation, r2)).transpose(1, 0, 2)
    else:  # the wavefront reads a zero border
        x = np.zeros((spec.truncation, r1 + 1, r2 + 1))
        fields = x[:, 1:, 1:]
    for xp, sigma2, ss in zip(fields, spec.innovation_variances, seeds):
        xp[:] = np.random.default_rng(ss).normal(0.0, np.sqrt(sigma2), size=(r1, r2))
    if spec.couple_l3:
        _factorized_fields(thetas, fields, burn_in)
    else:
        _ar_fields(thetas, x)
    comps = fields[:, burn_in:, burn_in:]
    values = np.zeros((grid.s1, grid.s2, spec.time.n))
    rows = max(1, _EXPAND_BLOCK // (grid.s2 * spec.time.n))
    product = np.empty((min(rows, grid.s1), grid.s2, spec.time.n))
    for comp, phi_p in zip(comps, phi):
        for i in range(0, grid.s1, rows):
            values[i:i + rows] += np.multiply(comp[i:i + rows, :, None], phi_p, out=product[:grid.s1 - i])
    return FunctionalField(grid, spec.time, values)

