"""Plain-loop reference implementations the library is checked against.

The library computes every fDFT through `coxmra.spectral.all_periodograms`;
the direct sums here are its FFT-free oracles.  The AR recursion, the IDW
interpolation, the time resampling, the CSV writer and the lockstep pattern
search are vectorized in the library; their one-value-at-a-time loops here
must give identical results.
"""

import numpy as np

from coxmra.estimator import (
    _COARSE_POINTS,
    _REFINE_TOL,
    ThetaDomain,
    _estimate_rows,
    _lexicographic_argmin,
    estimate_all,
)
from coxmra.grids import FunctionalField, SpatialGrid, TimeGrid
from coxmra.ingest import _EXACT_HIT, IDW_NEIGHBOURS, IDW_POWER
from coxmra.predict import _training_block
from coxmra.spectral import (
    TWO_PI,
    FrequencyGrid,
    _log_psi,
    _symbol_coefficients,
    contrast_weights,
    stationarity_check,
)
from coxmra.wavelet import field_dwt, idwt


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


def periodogram_direct(coeff_a: np.ndarray, coeff_b: np.ndarray | None = None) -> np.ndarray:
    """Quadruple-sum complex (s1, s2) periodogram table, the FFT-free
    reference path."""
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
    return values


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


def resample_time(series: np.ndarray, depth: int) -> np.ndarray:
    """One np.interp call per series onto the dyadic midpoint grid."""
    n_raw = series.shape[-1]
    t_raw = (np.arange(n_raw) + 0.5) / n_raw
    t_new = TimeGrid(depth).points
    return np.apply_along_axis(lambda v: np.interp(t_new, t_raw, v), -1, series)


# floats whose shortest repr switches notation or sits at a range limit
EDGE_FLOATS = [-0.0, 1e16, 9999999999999998.0, 1e-5, 5e-324, 1.7976931348623157e308]


def table_csv(header, rows) -> str:
    """CSV text one value at a time: `str` of an int, `repr` of a float."""
    lines = [",".join(header) + "\n"]
    for row in rows:
        cells = [str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def pattern_search(contrast, start, start_val: float, domain: ThetaDomain,
                   step0: float) -> tuple[np.ndarray, float, int]:
    """Coordinate-shrinking pattern search of one node from a seed and its
    contrast, one candidate per `contrast(theta)` call; returns (theta,
    value, evaluations)."""
    best = np.asarray(start, dtype=float).copy()
    best_val = start_val
    step = step0
    iters = 0
    free = 2 if domain.couple_l3 else 3
    while step > _REFINE_TOL:
        improved = False
        for i in range(free):
            for delta in (step, -step):
                cand = best.copy()
                cand[i] += delta
                if domain.couple_l3:
                    cand[2] = -cand[0] * cand[1]
                if not domain.contains(cand):
                    continue
                val = contrast(cand)
                iters += 1
                if val < best_val - 1e-15:
                    best, best_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    return best, best_val, iters


def estimate_rows_one_by_one(weights: np.ndarray, freq: FrequencyGrid, domain: ThetaDomain):
    """`_estimate_rows` one row at a time: the seeding grid, then
    `pattern_search` with one single-candidate half-plane contrast per call."""
    table = freq.half_plane
    cand = domain.candidates()
    log_psi_cand = _log_psi(_symbol_coefficients(cand), *table)
    step0 = max((hi - lo) / (_COARSE_POINTS - 1) for lo, hi in domain.bounds) * 0.5
    thetas, values, iters = [], [], []
    for row in freq.fold(weights):
        seeds = -np.vecdot(row, log_psi_cand)
        j = _lexicographic_argmin(seeds, cand)
        theta, value, it = pattern_search(
            lambda th: float(-np.vecdot(row, _log_psi(_symbol_coefficients(th[None, :]), *table)[0])),
            cand[j], seeds[j], domain, step0,
        )
        thetas.append(theta)
        values.append(value)
        iters.append(it)
    return np.array(thetas), np.array(values), np.array(iters)


def loo_fold_by_fold(fld: FunctionalField, domain: ThetaDomain, j0: int, radius: int):
    """(site, mafe, abs_error) of every interior fold, each with its own fit."""
    s1, s2 = fld.grid.s1, fld.grid.s2
    c = field_dwt(fld, j0).coeffs
    out = []
    for p0 in range(1, s1):
        for q0 in range(1, s2):
            rs, cs = _training_block(s1, s2, (p0, q0), radius)
            sub = FunctionalField(SpatialGrid(rs.stop - rs.start, cs.stop - cs.start), fld.time, fld.values[rs, cs])
            m1, m2, m3 = (op.matrix for op in estimate_all(field_dwt(sub, j0), domain).operators)
            pred = idwt(m1 @ c[p0 - 1, q0] + m2 @ c[p0, q0 - 1] + m3 @ c[p0 - 1, q0 - 1], j0)
            err = np.abs(fld.values[p0, q0] - pred)
            out.append(((p0, q0), float(err.mean()), err))
    return out


def estimate_node(table: np.ndarray, domain: ThetaDomain) -> tuple[np.ndarray, float]:
    """Minimum-contrast fit of one basis pair's (s1, s2) periodogram
    table: (theta, contrast)."""
    freq = FrequencyGrid(*table.shape)
    weights = contrast_weights(table, freq)
    thetas, values, _, _ = _estimate_rows([(freq, weights[None, :])], domain)
    return thetas[0], float(values[0])


def estimate_eta_moment(table: np.ndarray, theta) -> float:
    """The eta-weighted periodogram moment of a table at a stationary theta."""
    if not stationarity_check(theta):
        raise ValueError(f"non-stationary theta {tuple(theta)}")
    return float(contrast_weights(table, FrequencyGrid(*table.shape)).sum())
