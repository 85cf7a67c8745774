"""Spatial frequency-domain machinery for coefficient fields.

This module is the single home of the three quantities every contrast is
built from: the AR symbol 1 - th1 e^{i w1} - th2 e^{i w2} - th3 e^{i(w1+w2)}
(`_inverse_symbol_sq`), the fDFT with its 1-based site phase
(`all_periodograms`), and the contrast weight eta = |w1|^2 |w2|^2
(`FrequencyGrid.eta`).

Frequencies live on the Fourier grid of the observation lattice, reported
in the symmetric fundamental domain (-pi, pi]^2 so that eta is an even
function.  All frequency integrals are Riemann sums over the N Fourier
frequencies with cell measure (2 pi)^2 / N.  Grid-invariant tables are
built once per `FrequencyGrid` instance and flattened in row-major
(w1, w2) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def stationarity_check(theta) -> bool:
    """Sufficient stationarity condition for one AR triple.

    Accepts either |th1| + |th2| + |th3| < 1 (keeps the AR symbol away
    from zero) or the factorized form th3 = -th1*th2 with |th1|, |th2| < 1.
    """
    th1, th2, th3 = (float(v) for v in theta)
    if abs(th1) + abs(th2) + abs(th3) < 1.0:
        return True
    if abs(th1) < 1.0 and abs(th2) < 1.0 and np.isclose(th3, -th1 * th2, atol=1e-12):
        return True
    return False


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
    def phases(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """e^{i w1}, e^{i w2} and e^{i(w1+w2)} over the flattened grid."""
        w1, w2 = self.mesh()
        e1 = np.exp(1j * w1).ravel()
        e2 = np.exp(1j * w2).ravel()
        return _readonly(e1), _readonly(e2), _readonly(e1 * e2)

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


@dataclass(frozen=True)
class PeriodogramTable:
    """Periodogram values of one basis pair at all Fourier frequencies."""

    freq: FrequencyGrid
    values: np.ndarray = field(repr=False)
    diagonal: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.freq.s1, self.freq.s2):
            raise ValueError(f"table shape {v.shape} != ({self.freq.s1}, {self.freq.s2})")
        object.__setattr__(self, "values", v)

    @property
    def real_values(self) -> np.ndarray:
        return self.values.real


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


def periodogram(coeff_a: np.ndarray, coeff_b: np.ndarray | None = None) -> PeriodogramTable:
    """Cross-periodogram of two coefficient fields (diagonal if b is None).

    Computed as fdft(a) * conj(fdft(b)) at every Fourier frequency, the
    product of two columns of `all_periodograms`.
    """
    a = np.asarray(coeff_a, dtype=float)
    diagonal = coeff_b is None or coeff_b is coeff_a
    b = a if diagonal else np.asarray(coeff_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"field shapes differ: {a.shape} vs {b.shape}")
    f = all_periodograms(np.stack([a] if diagonal else [a, b], axis=-1))
    values = f[:, :, 0] * np.conj(f[:, :, -1])
    if diagonal:
        values = values.real.astype(complex)
    return PeriodogramTable(FrequencyGrid(*a.shape), values, diagonal=diagonal)


def contrast_weights(cross: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """Re(I) * eta * cell_measure of one periodogram table, flattened.

    The empirical contrast of a candidate is minus the dot product of
    these weights with its `log_psi` row.
    """
    return cross.real.ravel() * freq.eta_measure


def _inverse_symbol_sq(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """1 / |1 - th1 e^{i w1} - th2 e^{i w2} - th3 e^{i(w1+w2)}|^2.

    `thetas` has shape (m, 3); the result has shape (m, N) over the
    flattened grid.
    """
    e1, e2, e12 = freq.phases
    sym = 1.0 - thetas[:, 0:1] * e1 - thetas[:, 1:2] * e2 - thetas[:, 2:3] * e12
    return 1.0 / (np.abs(sym) ** 2)


def log_psi(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """log of the scale-free density Psi for m candidates, shape (m, N).

    Psi = f / sigma2(theta) with f the spectral density at unit innovation
    variance and sigma2(theta) its eta-weighted Riemann integral, so
    sum(exp(log_psi) * eta) * cell_measure == 1 for every row.  The
    innovation variance cancels.
    """
    inv = _inverse_symbol_sq(thetas, freq)
    scale = (inv * freq.eta).sum(axis=1) * freq.cell_measure
    if np.any(scale <= 0):
        raise ValueError("degenerate weight: eta-weighted density integrates to zero")
    return np.log(inv) - np.log(scale)[:, None]


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


def empirical_contrast(table: PeriodogramTable, theta) -> float:
    """Empirical contrast: minus the eta-weighted log-density sum.

    Uses the real part of the periodogram, so diagonal and cross tables
    share one code path.
    """
    weights = contrast_weights(table.values, table.freq)
    return float(-(weights @ log_psi(_stationary(theta), table.freq)[0]))


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
