"""Spatial frequency-domain machinery for coefficient fields.

This module is the single home of the three quantities every contrast is
built from: the squared AR symbol |1 - th1 e^{i w1} - th2 e^{i w2} -
th3 e^{i(w1+w2)}|^2 = c0 + c1 cos w1 + c2 cos w2 + c3 cos(w1+w2) +
c4 cos(w1-w2), the coefficients of a triple (`_symbol_coefficients`)
times the cosine table `FrequencyGrid.cosines` (`_symbol_sq`), the fDFT
with its 1-based site phase (`all_periodograms`), and the contrast weight
eta = |w1|^2 |w2|^2 (`FrequencyGrid.eta`).

Frequencies live on the Fourier grid of the observation lattice, reported
in the symmetric fundamental domain (-pi, pi]^2 so that eta is an even
function.  All frequency integrals are Riemann sums over the N Fourier
frequencies with cell measure (2 pi)^2 / N.  Grid-invariant tables are
built once per `FrequencyGrid` instance and flattened in row-major
(w1, w2) order.  The estimator sums over the off-axis half plane, the
eta support folded by evenness (`FrequencyGrid.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def stationarity_check(theta) -> bool:
    """Sufficient stationarity condition for one AR triple: the uncoupled
    edge norm is below one, or th3 = -th1*th2 and the coupled one is."""
    th = np.asarray(theta, dtype=float)
    if edge_norm(th, couple_l3=False) < 1.0:
        return True
    return bool(np.isclose(th[2], -th[0] * th[1], rtol=0, atol=1e-12) and edge_norm(th, couple_l3=True) < 1.0)


def edge_norm(thetas, couple_l3: bool) -> np.ndarray:
    """Stationarity-edge norm per AR triple, < 1 inside: max(|th1|, |th2|)
    when th3 is tied to them, |th1| + |th2| + |th3| otherwise."""
    a = np.abs(np.asarray(thetas, dtype=float))
    return a[..., :2].max(axis=-1) if couple_l3 else a.sum(axis=-1)


@dataclass(frozen=True)
class FrequencyGrid:
    """Fourier frequencies of an s1 x s2 lattice, mapped into (-pi, pi]^2."""

    s1: int
    s2: int

    @property
    def n(self) -> int:
        return self.s1 * self.s2

    @property
    def w1(self) -> np.ndarray:
        return _fundamental(TWO_PI * np.arange(self.s1) / self.s1)

    @property
    def w2(self) -> np.ndarray:
        return _fundamental(TWO_PI * np.arange(self.s2) / self.s2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.w1, self.w2, indexing="ij")

    @property
    def cell_measure(self) -> float:
        """Riemann cell size (2 pi)^2 / N for frequency-domain sums."""
        return TWO_PI**2 / self.n

    @cached_property
    def cosines(self) -> np.ndarray:
        """1, cos w1, cos w2, cos(w1 + w2), cos(w1 - w2) over the flattened grid, (5, N)."""
        w1, w2 = (w.ravel() for w in self.mesh())
        cos = [np.ones_like(w1), np.cos(w1), np.cos(w2), np.cos(w1 + w2), np.cos(w1 - w2)]
        return _readonly(np.stack(cos))

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat index of one point of each conjugate pair off the axes, and
        of its partner at -w; (pi, pi) is its own partner."""
        p, q = np.divmod(np.arange(self.n), self.s2)
        mirror = (-p % self.s1) * self.s2 + (-q % self.s2)
        keep = (p > 0) & (q > 0) & (np.arange(self.n) <= mirror)
        return np.flatnonzero(keep), mirror[keep]

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Sum of `values` (..., N) over each pair of `_pairs`, (..., N');
        (pi, pi) counts once.  np.take keeps rows C-ordered, so a row
        reduces alike in any batch."""
        idx, mirror = self._pairs
        pair = np.take(values, mirror, axis=-1) * (idx != mirror)
        return np.take(values, idx, axis=-1) + pair

    @cached_property
    def half_plane(self) -> tuple[np.ndarray, np.ndarray]:
        """`cosines` and folded `eta_measure` on the off-axis half plane, (5, N') and (N',)."""
        return _readonly(self.cosines[:, self._pairs[0]]), _readonly(self.fold(self.eta_measure))

    @cached_property
    def eta(self) -> np.ndarray:
        """Contrast weight |w1|^2 |w2|^2 over the flattened grid.

        Vanishes on the axes, removing the zero frequency (and with it any
        imperfect-detrending DC bias) from every contrast integral.
        """
        w1, w2 = self.mesh()
        return _readonly((np.abs(w1) ** 2 * np.abs(w2) ** 2).ravel())

    @cached_property
    def eta_measure(self) -> np.ndarray:
        """eta times the cell measure, flattened: the Riemann-sum weight."""
        return _readonly(self.eta * self.cell_measure)


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze a cached table: every caller of the grid shares it."""
    a.setflags(write=False)
    return a


def _fundamental(w: np.ndarray) -> np.ndarray:
    """Map angles from [0, 2 pi) into (-pi, pi]."""
    out = np.where(w > np.pi, w - TWO_PI, w)
    return np.where(np.isclose(out, -np.pi), np.pi, out)


def all_periodograms(coeffs: np.ndarray) -> np.ndarray:
    """fDFT tables for every coefficient simultaneously.

    `coeffs` has shape (s1, s2, n); the result has the same shape and
    holds the complex fDFT per coefficient, from which any diagonal or
    cross table is a single product.  Sites are indexed from 1 in the
    phase, matching the lattice origin of the state equation; the
    prefactor is 1 / (2 pi sqrt(N)).
    """
    x = np.asarray(coeffs, dtype=float)
    s1, s2, _ = x.shape
    f = np.fft.fft2(x, axes=(0, 1))
    # shift from 0-based to 1-based site indexing
    w1 = TWO_PI * np.arange(s1) / s1
    w2 = TWO_PI * np.arange(s2) / s2
    f *= (np.exp(-1j * w1)[:, None] * np.exp(-1j * w2)[None, :])[:, :, None]
    return f / (TWO_PI * np.sqrt(s1 * s2))


def periodogram(coeff_a: np.ndarray, coeff_b: np.ndarray | None = None) -> np.ndarray:
    """Complex (s1, s2) cross-periodogram table of two coefficient fields
    (diagonal if b is None).

    Computed as fdft(a) * conj(fdft(b)) at every Fourier frequency, the
    product of two columns of `all_periodograms`.
    """
    a = np.asarray(coeff_a, dtype=float)
    b = a if coeff_b is None else np.asarray(coeff_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    f = all_periodograms(np.stack([a] if coeff_b is None else [a, b], axis=-1))
    return f[:, :, 0] * np.conj(f[:, :, -1])


def contrast_weights(cross: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """Re(I) * eta * cell_measure of one periodogram table, flattened.

    The empirical contrast of a candidate is minus the dot product of
    these weights with its `log_psi` row.
    """
    return cross.real.ravel() * freq.eta_measure


def _symbol_coefficients(thetas: np.ndarray) -> np.ndarray:
    """Cosine coefficients c0..c4 of the squared AR symbol of m candidates,
    (m, 5); elementwise, so a candidate's values do not depend on its batch."""
    t1, t2, t3 = np.asarray(thetas, dtype=float).T
    c = [1.0 + t1**2 + t2**2 + t3**2, 2.0 * (t2 * t3 - t1), 2.0 * (t1 * t3 - t2),
         -2.0 * t3, 2.0 * t1 * t2]
    return np.stack(c, axis=-1)


def _symbol_sq(coefs: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """Squared AR symbol of m candidates' `_symbol_coefficients` over a
    cosine table, (m, N).

    Each row is its own (1, 5) @ (5, N) product, and every row reduction
    uses `np.vecdot`, so a candidate's values do not depend on its batch.
    """
    return (coefs[:, None, :] @ cosines)[:, 0]


def _inverse_symbol_sq(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """1 / |1 - th1 e^{i w1} - th2 e^{i w2} - th3 e^{i(w1+w2)}|^2.

    `thetas` has shape (m, 3); the result has shape (m, N) over the
    flattened grid.
    """
    return 1.0 / _symbol_sq(_symbol_coefficients(thetas), freq.cosines)


def _log_psi(coefs: np.ndarray, cosines: np.ndarray, eta_measure: np.ndarray) -> np.ndarray:
    """`log_psi` of m candidates' `_symbol_coefficients` over any cosine
    table with its Riemann weights."""
    sym = _symbol_sq(coefs, cosines)
    scale = np.vecdot(1.0 / sym, eta_measure)
    if (scale <= 0).any():
        raise ValueError("degenerate weight: eta-weighted density integrates to zero")
    return -np.log(sym) - np.log(scale)[:, None]


def log_psi(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """log of the scale-free density Psi for m candidates, shape (m, N).

    Psi = f / sigma2(theta) with f the spectral density at unit innovation
    variance and sigma2(theta) its eta-weighted Riemann integral, so
    sum(exp(log_psi) * eta) * cell_measure == 1 for every row.  The
    innovation variance cancels.
    """
    return _log_psi(_symbol_coefficients(thetas), freq.cosines, freq.eta_measure)


def _stationary(theta) -> np.ndarray:
    """One AR triple as a (1, 3) candidate array; rejects a non-stationary one."""
    if not stationarity_check(theta):
        raise ValueError(f"non-stationary theta {tuple(theta)}")
    return np.asarray(theta, dtype=float).reshape(1, 3)


def _population_weights(theta0, freq: FrequencyGrid) -> np.ndarray:
    """Model density 1 / (2 pi^2) / |symbol|^2 at theta0 (unit innovation
    variance) times eta and the cell measure: the expected contrast weights."""
    f0 = _inverse_symbol_sq(_stationary(theta0), freq)[0] / (2.0 * np.pi**2)
    return f0 * freq.eta_measure


def empirical_contrast(cross: np.ndarray, theta) -> float:
    """Empirical contrast of one (s1, s2) periodogram table: minus the
    eta-weighted log-density sum.

    Uses the real part of the periodogram, so diagonal and cross tables
    share one code path.
    """
    freq = FrequencyGrid(*cross.shape)
    return float(-(contrast_weights(cross, freq) @ log_psi(_stationary(theta), freq)[0]))


def contrast_functional(theta0, theta, freq: FrequencyGrid) -> float:
    """Population analogue of the empirical contrast under theta0."""
    weights = _population_weights(theta0, freq)
    return float(-(weights @ log_psi(_stationary(theta), freq)[0]))


def divergence(theta0, theta, freq: FrequencyGrid) -> float:
    """Relative-entropy loss between the models at theta0 and theta.

    Nonnegative on the discrete grid (both normalised densities sum to
    the same eta-weighted mass) and exactly zero at theta = theta0.
    """
    weights = _population_weights(theta0, freq)
    lp = log_psi(np.vstack([_stationary(theta0), _stationary(theta)]), freq)
    return float(weights @ (lp[0] - lp[1]))
