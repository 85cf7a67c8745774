"""Orthonormal Haar multiresolution analysis on the dyadic grid.

Coefficient layout for a curve of 2**D samples analysed down to level j0:

    [ scaling block, 2**j0 entries | details j0 | details j0+1 | ... | details D-1 ]

Detail level j holds 2**j entries, so the total count is exactly 2**D.
The transform is orthogonal with respect to the plain Euclidean inner
product; continuous L2(0,1) coefficients differ by the fixed factor
2**(-D/2) (the square root of the quadrature weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import FunctionalField, SpatialGrid, TimeGrid

_SQRT2 = np.sqrt(2.0)


def level_slices(j0: int, depth: int) -> dict[tuple[str, int], slice]:
    """Slices of the coefficient vector belonging to each (kind, level)."""
    out = {("scaling", j0): slice(0, 1 << j0)}
    start = 1 << j0
    for j in range(j0, depth):
        out[("detail", j)] = slice(start, start + (1 << j))
        start += 1 << j
    return out


def _check_input(x: np.ndarray, j0: int) -> int:
    n = x.shape[-1]
    depth = n.bit_length() - 1
    if n < 1 or (1 << depth) != n:
        raise ValueError(f"length {n} is not a power of two")
    if not 0 <= j0 <= depth:
        raise ValueError(f"need 0 <= j0 <= {depth}, got j0={j0}")
    return depth


def dwt(x: np.ndarray, j0: int = 0) -> np.ndarray:
    """Haar analysis of the last axis down to level j0."""
    x = np.asarray(x, dtype=float)
    depth = _check_input(x, j0)
    out = np.empty_like(x)
    approx = x
    pos = x.shape[-1]
    for j in range(depth - 1, j0 - 1, -1):
        a = approx[..., 0::2]
        b = approx[..., 1::2]
        detail = (a - b) / _SQRT2
        approx = (a + b) / _SQRT2
        pos -= 1 << j
        out[..., pos : pos + (1 << j)] = detail
    out[..., :pos] = approx
    return out


def idwt(coeffs: np.ndarray, j0: int = 0) -> np.ndarray:
    """Exact inverse of :func:`dwt`."""
    coeffs = np.asarray(coeffs, dtype=float)
    depth = _check_input(coeffs, j0)
    approx = coeffs[..., : 1 << j0]
    pos = 1 << j0
    for j in range(j0, depth):
        detail = coeffs[..., pos : pos + (1 << j)]
        pos += 1 << j
        up = np.empty(approx.shape[:-1] + (2 << j,), dtype=float)
        up[..., 0::2] = (approx + detail) / _SQRT2
        up[..., 1::2] = (approx - detail) / _SQRT2
        approx = up
    return approx


@dataclass(frozen=True)
class MultiscaleCoefficients:
    """Per-site wavelet/scaling coefficients of a curve field."""

    grid: SpatialGrid
    j0: int
    depth: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.s1, self.grid.s2, 1 << self.depth)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != expected:
            raise ValueError(f"coefficient shape {c.shape} != {expected}")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_coeffs(self) -> int:
        return 1 << self.depth


def field_dwt(fld: FunctionalField, j0: int) -> MultiscaleCoefficients:
    coeffs = dwt(fld.values, j0)
    return MultiscaleCoefficients(fld.grid, j0, fld.time.depth, coeffs)


@dataclass(frozen=True)
class OperatorWaveletMatrix:
    """Two-dimensional wavelet-domain representation of a kernel operator.

    Entry (a, b) is the operator applied to basis function b, evaluated
    against basis function a, in the flat coefficient layout.  Applying
    the matrix to a per-site coefficient vector realizes the operator on
    the corresponding curve.
    """

    j0: int
    depth: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = 1 << self.depth
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} != ({n}, {n})")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix contains non-finite entries")
        object.__setattr__(self, "matrix", m)


def normalized_eigenfunctions(time: TimeGrid, k: int) -> np.ndarray:
    """Sampled sine eigenfunctions, unit discrete L2 norm, shape (k, 2**D).

    On the midpoint grid the sampled sin(pi*p*t) columns are exactly
    orthogonal for p <= 2**D, so renormalization preserves stated
    eigenvalues under discretization.
    """
    if k < 1:
        raise ValueError("need at least one eigenfunction")
    if k > time.n:
        raise ValueError(f"cannot build {k} orthogonal eigenfunctions on {time.n} points")
    t = time.points
    p = np.arange(1, k + 1)[:, None]
    phi = np.sin(np.pi * p * t[None, :])
    norms = np.sqrt((phi**2).sum(axis=1) * time.weight)
    return phi / norms[:, None]


def operator_to_wavelet(
    eigenvalues: np.ndarray,
    eigenfunctions: np.ndarray,
    time: TimeGrid,
    j0: int,
) -> OperatorWaveletMatrix:
    """Wavelet-domain matrix of sum_p lam_p <phi_p, .> phi_p by quadrature.

    `eigenfunctions` holds sampled curves, one per row; they are used as
    given (normalize first if stated eigenvalues are to be preserved).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    phi = np.asarray(eigenfunctions, dtype=float)
    if phi.ndim != 2 or phi.shape != (lam.size, time.n):
        raise ValueError(
            f"eigenfunction array shape {phi.shape} != ({lam.size}, {time.n})"
        )
    # Row p of dwt(phi) scaled by sqrt(weight) is the vector of continuous
    # L2 coefficients <phi_p, basis_a>.
    u = dwt(phi, j0) * np.sqrt(time.weight)
    matrix = (u.T * lam) @ u
    return OperatorWaveletMatrix(j0, time.depth, matrix)


def wavelet_to_operator_eigs(op: OperatorWaveletMatrix, k: int) -> np.ndarray:
    """Top-k eigenvalues of the symmetrized matrix, descending by magnitude."""
    n = op.matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    sym = 0.5 * (op.matrix + op.matrix.T)
    eigs = np.linalg.eigvalsh(sym)
    order = np.argsort(-np.abs(eigs), kind="stable")
    return eigs[order[:k]]
