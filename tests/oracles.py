"""Plain-loop reference implementations the library is checked against.

The library computes every periodogram through
`coxmra.spectral.all_periodograms`, from one real FFT on the off-axis half
plane; the direct sums here, with the fDFT's 1-based site phase, are its
FFT-free oracles, and `column_periodogram` is the full-plane table of one
or two columns by a complex FFT, which needs no phase since it cancels in
f_a conj(f_b).  The library evaluates every contrast on the folded half
plane (`coxmra.spectral._contrast`); the full-plane angles, cosines and
eta measure, the contrast weights, their fold onto the half plane, and
the log-density, empirical contrast and innovation variance here are its
unfolded references.  The AR recursion, the IDW interpolation,
the time resampling and the CSV writer are vectorized in the library;
their one-value-at-a-time loops here must give identical results.  The
library fits each row by a projected Newton search; the coordinate
pattern search here, one row at a time, is the reference its contrasts
must match or beat, and the seed tie rule here sorts any point set, where
the library takes the first tie among its sorted candidates.  The components' stationary variances and the Monte
Carlo second-moment bound on the integrated intensity (criterion 7) are
model facts no pipeline step computes, so they live here only.
"""

import numpy as np

from coxmra.estimator import (
    _COARSE_POINTS,
    _TIE,
    ThetaDomain,
    _estimate_rows,
    estimate_all,
)
from coxmra.grids import FunctionalField, SpatialGrid, TimeGrid
from coxmra.ingest import _EXACT_HIT, IDW_NEIGHBOURS, IDW_POWER
from coxmra.predict import _training_block, predict_coeffs
from coxmra.sarh import SarhSpec
from coxmra.spectral import (
    TWO_PI,
    FrequencyGrid,
    _fundamental,
    _log_psi,
    _symbol_coefficients,
    _symbol_sq,
    stationarity_check,
)
from coxmra.wavelet import field_dwt, idwt, normalized_eigenfunctions


def angles(freq: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier angles of each lattice axis in (-pi, pi], (s1,) and (s2,)."""
    return tuple(_fundamental(TWO_PI * np.arange(s) / s) for s in (freq.s1, freq.s2))


def full_plane(freq: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """1, cos w1, cos w2, cos(w1 + w2), cos(w1 - w2) (5, N) and the eta
    measure |w1|^2 |w2|^2 (2 pi)^2 / N (N,) over the flattened full grid."""
    w1, w2 = (w.ravel() for w in np.meshgrid(*angles(freq), indexing="ij"))
    cosines = np.stack([np.ones_like(w1), np.cos(w1), np.cos(w2), np.cos(w1 + w2), np.cos(w1 - w2)])
    return cosines, np.abs(w1) ** 2 * np.abs(w2) ** 2 * (TWO_PI**2 / freq.n)


def fold(values: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """Sum of full-plane `values` (..., N) over each conjugate pair of
    `freq._pairs`, (..., N'); (pi, pi) counts once."""
    idx, mirror = freq._pairs
    return np.take(values, idx, axis=-1) + np.take(values, mirror, axis=-1) * (idx != mirror)


def contrast_weights(cross: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """Re(I) times the full-plane eta measure of one (s1, s2) periodogram
    table, (N,), or of a stack (m, s1, s2) of them, (m, N)."""
    return cross.real.reshape(cross.shape[:-2] + (freq.n,)) * full_plane(freq)[1]


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
    w1s, w2s = angles(FrequencyGrid(s1, s2))
    values = np.empty((s1, s2), dtype=complex)
    for i, w1 in enumerate(w1s):
        for j, w2 in enumerate(w2s):
            fa = fdft(a, (w1, w2))
            fb = fa if coeff_b is None else fdft(b, (w1, w2))
            values[i, j] = fa * np.conj(fb)
    return values


def column_periodogram(coeff_a: np.ndarray, coeff_b: np.ndarray | None = None) -> np.ndarray:
    """Complex (s1, s2) table f_a * conj(f_b) of two fields by a full
    complex FFT (diagonal if b is None); no phase, as it cancels."""
    fa, fb = (np.fft.fft2(np.asarray(x, dtype=float)) / (TWO_PI * np.sqrt(np.size(x)))
              for x in (coeff_a, coeff_a if coeff_b is None else coeff_b))
    return fa * np.conj(fb)


def _stationary(theta) -> np.ndarray:
    """One AR triple as a (1, 3) candidate array; rejects a non-stationary one."""
    if not stationarity_check(theta):
        raise ValueError(f"non-stationary theta {tuple(theta)}")
    return np.asarray(theta, dtype=float).reshape(1, 3)


def inverse_symbol_sq(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """1 / |1 - th1 e^{i w1} - th2 e^{i w2} - th3 e^{i(w1+w2)}|^2 of m
    candidates (m, 3) over the flattened full grid, (m, N)."""
    return 1.0 / _symbol_sq(_symbol_coefficients(thetas), full_plane(freq)[0])


def log_psi(thetas: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """log of the scale-free density Psi for m candidates over the full
    grid, shape (m, N): the eta measure sum of exp(log_psi) is 1 in every
    row."""
    cosines, eta_measure = full_plane(freq)
    return _log_psi(_symbol_sq(_symbol_coefficients(thetas), cosines), eta_measure)


def empirical_contrast(cross: np.ndarray, theta) -> float:
    """Empirical contrast of one (s1, s2) periodogram table: minus the
    eta-weighted log-density sum over the full grid."""
    freq = FrequencyGrid(*cross.shape)
    return float(-(contrast_weights(cross, freq) @ log_psi(_stationary(theta), freq)[0]))


def innovation_variance(cross: np.ndarray, theta) -> float:
    """Innovation variance recovered from the moment identity of one
    (s1, s2) periodogram table.

    The expected periodogram of the AR field is sigma2_eps / (2 pi)^2
    times the inverse squared symbol, so the moment is divided by the
    weighted integral of that shape.
    """
    freq = FrequencyGrid(*cross.shape)
    moment = float(contrast_weights(cross, freq).sum())
    shape = inverse_symbol_sq(_stationary(theta), freq)[0] / (2.0 * np.pi) ** 2
    return moment / float(shape @ full_plane(freq)[1])


def spectral_variance(theta, sigma2: float, n: int = 256) -> float:
    """Variance of a stationary AR field via its spectral representation:
    sigma2 times the mean inverse squared symbol over an n x n grid."""
    inverse = inverse_symbol_sq(np.asarray(theta, dtype=float).reshape(1, 3), FrequencyGrid(n, n))
    return float(sigma2 * np.mean(inverse))


def stationary_variances(spec: SarhSpec) -> np.ndarray:
    """Marginal variance of each component field: closed form for the
    factorized model, `spectral_variance` otherwise."""
    if spec.couple_l3:
        return spec.innovation_variances / ((1.0 - spec.eigenvalues1**2) * (1.0 - spec.eigenvalues2**2))
    thetas = np.column_stack([spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3])
    return np.array([spectral_variance(theta, sigma2) for theta, sigma2 in zip(thetas, spec.innovation_variances)])


def moment_bound_check(spec: SarhSpec, n_mc: int = 1000, seed: int = 0) -> tuple[float, float, bool]:
    """Monte Carlo check of the second-moment bound on the integrated
    intensity of a single site.

    Draws iid stationary component scores, forms Psi = int exp(X(t)) dt,
    and compares the sample second moment against
    exp(4 * trace * M^2), where trace is the summed component variance
    and M the sup of the (normalized) eigenfunctions on the grid.

    Returns (mc_second_moment, analytic_bound, pass_flag).
    """
    if n_mc < 100:
        raise ValueError("need n_mc >= 100")
    variances = stationary_variances(spec)
    phi = normalized_eigenfunctions(spec.time, spec.truncation)
    sup_m = float(np.max(np.abs(phi)))
    trace = float(variances.sum())
    bound = float(np.exp(4.0 * trace * sup_m**2))  # |T| = 1

    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n_mc, spec.truncation)) * np.sqrt(variances)[None, :]
    curves = scores @ phi  # (n_mc, 2**D)
    psi = np.exp(curves).sum(axis=1) * spec.time.weight
    second = float(np.mean(psi**2))
    stderr = float(np.std(psi**2, ddof=1) / np.sqrt(n_mc))
    passed = second <= bound * (1.0 + 3.0 * stderr / max(second, 1e-300))
    return second, bound, bool(passed)


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


def factorized_component(theta, e: np.ndarray) -> np.ndarray:
    """Scalar factorized AR field (th3 = -th1 * th2, not read) by two
    double loops, zeros outside the lattice: the north filter down the
    rows, then the west filter along the columns of every row.

    Each step is the library's evaluation order, so every row the library
    keeps is bit-identical, not merely close.
    """
    th1, th2 = float(theta[0]), float(theta[1])
    x = np.array(e, dtype=float)
    r1, r2 = x.shape
    for r in range(1, r1):
        for c in range(r2):
            x[r, c] = x[r, c] + th1 * x[r - 1, c]
    for r in range(r1):
        for c in range(1, r2):
            x[r, c] = x[r, c] + th2 * x[r, c - 1]
    return x


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


# the pattern search halves its step until it is no longer above this
_REFINE_TOL = 1e-6


def lexicographic_argmin(values: np.ndarray, thetas: np.ndarray, scale) -> np.ndarray:
    """The seed tie rule over any points `thetas` (m, 3): the index of the
    least of each row of values (..., m), ties within `_TIE` times the
    row's `scale` (...,) going to the lexicographically least theta, found
    by sorting the points."""
    order = np.lexsort(thetas.T[::-1])
    tied = values[..., order] <= values.min(axis=-1, keepdims=True) + _TIE * np.asarray(scale)[..., None]
    return order[tied.argmax(axis=-1)]


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


def estimate_rows_one_by_one(folded: np.ndarray, freq: FrequencyGrid, domain: ThetaDomain):
    """`_estimate_rows` of folded weights (rows, N') one row at a time: the
    seeding grid, then `pattern_search` with one single-candidate
    half-plane contrast per call."""
    cosines, eta_measure, _ = freq.half_plane

    def half_plane_log_psi(thetas):
        return _log_psi(_symbol_sq(_symbol_coefficients(thetas), cosines), eta_measure)

    cand = domain.candidates()
    log_psi_cand = half_plane_log_psi(cand)
    step0 = max((hi - lo) / (_COARSE_POINTS - 1) for lo, hi in domain.bounds) * 0.5
    thetas, values, iters = [], [], []
    seeds = np.array([-np.vecdot(row, log_psi_cand) for row in folded])
    for row, row_seeds, j in zip(folded, seeds, lexicographic_argmin(seeds, cand, folded.sum(axis=1))):
        theta, value, it = pattern_search(
            lambda th: float(-np.vecdot(row, half_plane_log_psi(th[None, :])[0])),
            cand[j], row_seeds[j], domain, step0,
        )
        thetas.append(theta)
        values.append(value)
        iters.append(it)
    return np.array(thetas), np.array(values), np.array(iters)


def loo_fold_by_fold(fld: FunctionalField, domain: ThetaDomain, j0: int, radius: int,
                     include_cross: bool = False):
    """(site, mafe, abs_error) of every interior fold, each with its own
    fit and the lattice prediction `predict_coeffs` makes at its site."""
    s1, s2 = fld.grid.s1, fld.grid.s2
    mc = field_dwt(fld, j0)
    out = []
    for p0 in range(1, s1):
        for q0 in range(1, s2):
            rs, cs = _training_block(s1, s2, (p0, q0), radius)
            sub = FunctionalField(SpatialGrid(rs.stop - rs.start, cs.stop - cs.start), fld.time, fld.values[rs, cs])
            report = estimate_all(field_dwt(sub, j0), domain, include_cross=include_cross)
            pred = idwt(predict_coeffs(mc, report)[p0, q0], j0)
            err = np.abs(fld.values[p0, q0] - pred)
            out.append(((p0, q0), float(err.mean()), err))
    return out


def estimate_node(table: np.ndarray, domain: ThetaDomain) -> tuple[np.ndarray, float]:
    """Minimum-contrast fit of one basis pair's (s1, s2) periodogram
    table: (theta, contrast)."""
    freq = FrequencyGrid(*table.shape)
    thetas, values, _, _ = _estimate_rows([(freq, fold(contrast_weights(table, freq), freq)[None, :])], domain)
    return thetas[0], float(values[0])


def second_moment(coeffs: np.ndarray) -> np.ndarray:
    """Uncentred lag-0 second moment C = (1/N) sum of c c^T over the N
    sites of an (s1, s2, n) coefficient array, one site at a time."""
    s1, s2, n = coeffs.shape
    out = np.zeros((n, n))
    for p in range(s1):
        for q in range(s2):
            out += np.outer(coeffs[p, q], coeffs[p, q])
    return out / (s1 * s2)


def top_eigenvectors(coeffs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of C, descending, and the top k unit eigenvectors
    (n, k), from the SVD of the (N, n) site matrix instead of an
    eigensolver: its right singular vectors are the eigenvectors of C and
    its squared singular values N times the eigenvalues (N >= n)."""
    sites = coeffs.reshape(-1, coeffs.shape[-1])
    _, sv, vt = np.linalg.svd(sites, full_matrices=False)
    return sv**2 / sites.shape[0], vt[:k].T


def eigengap(eigenvalues: np.ndarray, k: int) -> float:
    """Smallest gap between adjacent descending eigenvalues, among the top
    k and the first one after them, relative to the largest."""
    gaps = [(eigenvalues[r] - eigenvalues[r + 1]) / eigenvalues[0] for r in range(min(k, eigenvalues.size - 1))]
    return min(gaps, default=1.0)


def projection_operators(vectors: np.ndarray, thetas) -> np.ndarray:
    """sym(U diag(theta_i) U^T) of the three operators, (3, n, n), entry by
    entry, with theta row r the fit of basis vector r."""
    n, k = vectors.shape
    out = np.zeros((3, n, n))
    for i in range(3):
        for a in range(n):
            for b in range(n):
                ab = sum(vectors[a, r] * thetas[r][i] * vectors[b, r] for r in range(k))
                ba = sum(vectors[b, r] * thetas[r][i] * vectors[a, r] for r in range(k))
                out[i, a, b] = 0.5 * (ab + ba)
    return out


def estimate_eta_moment(table: np.ndarray, theta) -> float:
    """The eta-weighted periodogram moment of a table at a stationary theta."""
    _stationary(theta)
    return float(contrast_weights(table, FrequencyGrid(*table.shape)).sum())
