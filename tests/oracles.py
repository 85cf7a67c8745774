"""FFT-free reference implementations of the spectral transforms.

The library computes every fDFT through `coxmra.spectral.all_periodograms`;
these direct sums are the independent oracles it is checked against.
"""

import numpy as np

from coxmra.spectral import TWO_PI, FrequencyGrid, PeriodogramTable


def fdft(coeff_field: np.ndarray, w: tuple[float, float]) -> complex:
    """Spatial discrete Fourier transform of one scalar coefficient field.

    Sites are indexed from 1 in the phase, matching the lattice origin of
    the state equation; the prefactor is 1 / (2 pi sqrt(N)).
    """
    x = np.asarray(coeff_field, dtype=float)
    s1, s2 = x.shape
    p = np.arange(1, s1 + 1)
    q = np.arange(1, s2 + 1)
    phase = np.exp(-1j * (p[:, None] * w[0] + q[None, :] * w[1]))
    return complex(np.sum(x * phase) / (TWO_PI * np.sqrt(s1 * s2)))


def periodogram_direct(coeff_a: np.ndarray, coeff_b: np.ndarray | None = None) -> PeriodogramTable:
    """Quadruple-sum periodogram, the FFT-free reference path."""
    a = np.asarray(coeff_a, dtype=float)
    b = a if coeff_b is None else np.asarray(coeff_b, dtype=float)
    s1, s2 = a.shape
    freq = FrequencyGrid(s1, s2)
    values = np.empty((s1, s2), dtype=complex)
    for i, w1 in enumerate(freq.w1):
        for j, w2 in enumerate(freq.w2):
            fa = fdft(a, (w1, w2))
            fb = fa if coeff_b is None else fdft(b, (w1, w2))
            values[i, j] = fa * np.conj(fb)
    return PeriodogramTable(freq, values, diagonal=coeff_b is None)
