"""Plain-loop reference implementations the library is checked against.

The library computes every fDFT through `coxmra.spectral.all_periodograms`;
the direct sums here are its FFT-free oracles.  The AR recursion, the IDW
interpolation and the CSV writer are vectorized in the library; their
one-value-at-a-time loops here must give identical results.
"""

import numpy as np

from coxmra.ingest import _EXACT_HIT, IDW_NEIGHBOURS, IDW_POWER
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


def ar_component(theta, e: np.ndarray) -> np.ndarray:
    """Scalar AR field by the double loop, zeros outside the lattice.

    The parenthesisation is the library's evaluation order, so the result
    is bit-identical, not merely close.
    """
    th1, th2, th3 = (float(v) for v in theta)
    r1, r2 = e.shape
    x = np.zeros((r1 + 1, r2 + 1))  # row and column 0 are the zero boundary
    for r in range(1, r1 + 1):
        for c in range(1, r2 + 1):
            x[r, c] = th2 * x[r, c - 1] + (
                e[r - 1, c - 1] + (th1 * x[r - 1, c] + th3 * x[r - 1, c - 1])
            )
    return x[1:, 1:]


def idw_interpolate(coords: np.ndarray, values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-target IDW over the dense targets x sites distance matrix."""
    out = np.empty(targets.shape[:1] + values.shape[1:])
    d = np.linalg.norm(targets[:, None, :] - coords[None, :, :], axis=2)
    k = min(IDW_NEIGHBOURS, coords.shape[0])
    for i in range(targets.shape[0]):
        nearest = np.argsort(d[i], kind="stable")[:k]
        dn = d[i, nearest]
        if dn[0] < _EXACT_HIT:
            out[i] = values[nearest[0]]
            continue
        w = 1.0 / dn**IDW_POWER
        w_ext = w.reshape((-1,) + (1,) * (values.ndim - 1))
        out[i] = (w_ext * values[nearest]).sum(axis=0) / w.sum()
    return out


# floats whose shortest repr switches notation or sits at a range limit
EDGE_FLOATS = [-0.0, 1e16, 9999999999999998.0, 1e-5, 5e-324, 1.7976931348623157e308]


def table_csv(header, rows) -> str:
    """CSV text one value at a time: `str` of an int, `repr` of a float."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = [str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)
