"""Minimum-contrast estimation of the wavelet-domain AR parameters.

Each basis pair is fitted independently: the empirical contrast of its
periodogram table is minimized over a theta domain, either by exhaustive
search on a finite grid or by coarse seeding plus a derivative-free
coordinate pattern search on a box.  Estimated entries are assembled into
full wavelet-domain operator matrices, from which eigenvalue estimates
follow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    FrequencyGrid,
    PeriodogramTable,
    _inverse_symbol_sq,
    _stationary,
    all_periodograms,
    contrast_weights,
    log_psi,
    stationarity_check,
)
from .wavelet import MultiscaleCoefficients, OperatorWaveletMatrix, wavelet_to_operator_eigs

# keep candidates strictly inside the stationarity region
_BOUNDARY_MARGIN = 1e-3
# fits within this distance of the margin are reported as near_boundary
_BOUNDARY_SLACK = 0.05
_COARSE_POINTS = 11
_REFINE_TOL = 1e-6


def truncation_parameter(n: int) -> int:
    """Retained eigencomponents for a sample of n sites: floor(ln n)."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    return max(1, int(np.floor(np.log(n))))


@dataclass(frozen=True)
class ThetaDomain:
    """Search domain for one AR triple.

    finite_grid mode evaluates the supplied candidates exhaustively; box
    mode searches the per-coordinate intervals intersected with the
    stationarity region.  With couple_l3 set the third coordinate is tied
    to -theta1 * theta2 and only the first two are searched.
    """

    mode: str = "box"
    bounds: tuple = ((-0.95, 0.95), (-0.95, 0.95), (-0.95, 0.95))
    grid_points: tuple = ()
    couple_l3: bool = False

    def __post_init__(self):
        if self.mode not in ("finite_grid", "box"):
            raise ValueError(f"unknown domain mode {self.mode!r}")
        if self.mode == "finite_grid":
            pts = tuple(tuple(float(v) for v in p) for p in self.grid_points)
            if not pts:
                raise ValueError("finite_grid domain must be nonempty")
            bad = [p for p in pts if not stationarity_check(p)]
            if bad:
                raise ValueError(f"non-stationary grid point {bad[0]}")
            object.__setattr__(self, "grid_points", pts)
        else:
            if len(self.bounds) != 3:
                raise ValueError("box domain needs three coordinate intervals")
            for lo, hi in self.bounds:
                if not lo <= hi:
                    raise ValueError(f"empty interval ({lo}, {hi})")

    def candidates(self) -> np.ndarray:
        """Stationary seed candidates, shape (m, 3)."""
        if self.mode == "finite_grid":
            return np.asarray(self.grid_points, dtype=float)
        axes = [np.linspace(lo, hi, _COARSE_POINTS) for lo, hi in self.bounds]
        if self.couple_l3:
            t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            cand = np.column_stack(
                [t1.ravel(), t2.ravel(), -(t1 * t2).ravel()]
            )
        else:
            t1, t2, t3 = np.meshgrid(*axes, indexing="ij")
            cand = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
        cand = cand[self._edge_norm(cand) < 1 - _BOUNDARY_MARGIN]
        if cand.size == 0:
            raise ValueError("no stationary candidate in the box domain")
        return cand

    def _edge_norm(self, thetas: np.ndarray) -> np.ndarray:
        """Stationarity-edge norm per triple, < 1 inside: max(|th1|, |th2|)
        when th3 is tied to them, |th1| + |th2| + |th3| otherwise."""
        a = np.abs(thetas)
        return a[..., :2].max(axis=-1) if self.couple_l3 else a.sum(axis=-1)

    def contains(self, theta) -> bool:
        th = np.asarray(theta, dtype=float)
        free = 2 if self.couple_l3 else 3
        in_box = all(lo <= v <= hi for v, (lo, hi) in zip(th[:free], self.bounds))
        return in_box and self._edge_norm(th) < 1 - _BOUNDARY_MARGIN

    def near_boundary(self, theta) -> bool:
        """Whether a fit lies within the reporting slack of the domain's
        stationarity edge."""
        th = np.asarray(theta, dtype=float)
        return bool(self._edge_norm(th) > 1 - _BOUNDARY_MARGIN - _BOUNDARY_SLACK)


def _pattern_search(
    weights_row: np.ndarray,
    freq: FrequencyGrid,
    start: np.ndarray,
    domain: ThetaDomain,
    step0: float,
) -> tuple[np.ndarray, float, int]:
    """Coordinate-shrinking pattern search from a seed, projected to the
    domain.  Never returns a contrast above the seed value."""

    def contrast(theta: np.ndarray) -> float:
        return float(-(weights_row @ log_psi(theta[None, :], freq)[0]))

    best = np.asarray(start, dtype=float).copy()
    best_val = contrast(best)
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


def _lexicographic_argmin(values: np.ndarray, thetas: np.ndarray) -> int:
    """Index of the minimum, ties broken by smallest lexicographic theta."""
    min_val = values.min()
    tied = np.flatnonzero(values <= min_val + 1e-15)
    if tied.size == 1:
        return int(tied[0])
    order = np.lexsort((thetas[tied, 2], thetas[tied, 1], thetas[tied, 0]))
    return int(tied[order[0]])


def estimate_node(
    table: PeriodogramTable, domain: ThetaDomain
) -> tuple[np.ndarray, float]:
    """Minimum-contrast fit of one basis pair.

    Returns the estimated theta and the contrast value at the optimum.
    """
    weights = contrast_weights(table.values, table.freq)
    thetas, values, iters = _estimate_rows(weights[None, :], table.freq, domain)
    return thetas[0], float(values[0])


def _estimate_rows(
    weights: np.ndarray, freq: FrequencyGrid, domain: ThetaDomain
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch node estimation over precomputed contrast weights."""
    cand = domain.candidates()
    contrasts = -(weights @ log_psi(cand, freq).T)
    n_nodes = weights.shape[0]
    thetas = np.empty((n_nodes, 3))
    values = np.empty(n_nodes)
    iters = np.zeros(n_nodes, dtype=int)
    if domain.mode == "finite_grid":
        for i in range(n_nodes):
            j = _lexicographic_argmin(contrasts[i], cand)
            thetas[i], values[i] = cand[j], contrasts[i, j]
        return thetas, values, iters
    step0 = max(
        (hi - lo) / (_COARSE_POINTS - 1) for lo, hi in domain.bounds
    ) * 0.5
    for i in range(n_nodes):
        j = _lexicographic_argmin(contrasts[i], cand)
        theta, value, it = _pattern_search(
            weights[i], freq, cand[j], domain, step0
        )
        # refinement must not fall behind its own seeding grid
        if value > contrasts[i, j]:
            theta, value = cand[j], contrasts[i, j]
        thetas[i], values[i], iters[i] = theta, value, it
    return thetas, values, iters


def estimate_sigma2(table: PeriodogramTable, theta) -> float:
    """Scale of the fitted spectral density: the eta-weighted periodogram
    moment, matching the weighted integral of the parametric density."""
    if not stationarity_check(theta):
        raise ValueError(f"non-stationary theta {tuple(theta)}")
    return float(contrast_weights(table.values, table.freq).sum())


def innovation_variance(table: PeriodogramTable, theta) -> float:
    """Innovation variance recovered from the moment identity.

    The expected periodogram of the AR field is sigma2_eps / (2 pi)^2
    times the inverse squared symbol, so the moment is divided by the
    weighted integral of that shape.
    """
    moment = estimate_sigma2(table, theta)
    shape = _inverse_symbol_sq(_stationary(theta), table.freq)[0] / (2.0 * np.pi) ** 2
    return moment / float(shape @ table.freq.eta_measure)


@dataclass(frozen=True)
class NodeEstimate:
    row: int
    col: int
    theta: tuple[float, float, float]
    sigma2: float
    contrast: float
    iterations: int
    near_boundary: bool


@dataclass(frozen=True)
class EstimationReport:
    """Per-pair estimates plus assembled operator matrices."""

    j0: int
    depth: int
    n_sites: int
    estimates: list[NodeEstimate] = field(repr=False)
    operators: tuple[OperatorWaveletMatrix, OperatorWaveletMatrix, OperatorWaveletMatrix]
    eigenvalues1: np.ndarray
    eigenvalues2: np.ndarray

    def diagonal_thetas(self) -> np.ndarray:
        """Theta triples of the diagonal pairs in layout order, (n, 3)."""
        n = 1 << self.depth
        out = np.full((n, 3), np.nan)
        for est in self.estimates:
            if est.row == est.col:
                out[est.row] = est.theta
        return out

    def diagonal_sigma2(self) -> np.ndarray:
        n = 1 << self.depth
        out = np.full(n, np.nan)
        for est in self.estimates:
            if est.row == est.col:
                out[est.row] = est.sigma2
        return out


def estimate_all(
    coeffs: MultiscaleCoefficients,
    domain: ThetaDomain,
    include_cross: bool = False,
) -> EstimationReport:
    """Fit every requested basis pair and assemble the operator matrices.

    The periodogram-based contrast is blind to the AR triple split across
    the three operators only through the joint symbol; each pair yields
    one theta triple whose components populate the three matrices.
    """
    n = coeffs.n_coeffs
    s1, s2 = coeffs.grid.s1, coeffs.grid.s2
    freq = FrequencyGrid(s1, s2)
    fdfts = all_periodograms(coeffs.coeffs)  # (s1, s2, n) complex

    pairs = [(a, a) for a in range(n)]
    if include_cross:
        pairs += [(a, b) for a in range(n) for b in range(n) if a != b]

    flat = fdfts.reshape(-1, n)  # (N, n)
    weights = np.empty((len(pairs), s1 * s2))
    for idx, (a, b) in enumerate(pairs):
        weights[idx] = contrast_weights(flat[:, a] * np.conj(flat[:, b]), freq)

    thetas, values, iters = _estimate_rows(weights, freq, domain)

    estimates = []
    mats = [np.zeros((n, n)) for _ in range(3)]
    for idx, (a, b) in enumerate(pairs):
        th = thetas[idx]
        moment = float(weights[idx].sum())
        estimates.append(
            NodeEstimate(
                row=a,
                col=b,
                theta=tuple(float(v) for v in th),
                sigma2=moment,
                contrast=float(values[idx]),
                iterations=int(iters[idx]),
                near_boundary=domain.near_boundary(th),
            )
        )
        for i in range(3):
            mats[i][a, b] = th[i]

    operators = tuple(
        OperatorWaveletMatrix(coeffs.j0, coeffs.depth, m) for m in mats
    )
    k = min(truncation_parameter(s1 * s2), n)
    lam1 = wavelet_to_operator_eigs(operators[0], k)
    lam2 = wavelet_to_operator_eigs(operators[1], k)
    return EstimationReport(
        j0=coeffs.j0,
        depth=coeffs.depth,
        n_sites=s1 * s2,
        estimates=estimates,
        operators=operators,
        eigenvalues1=lam1,
        eigenvalues2=lam2,
    )


# ---------------------------------------------------------------------------
# serialization


def save_report(report: EstimationReport, path) -> None:
    """NDJSON: one metadata line, then one record per basis pair."""
    with open(path, "w") as fh:
        meta = {
            "j0": report.j0,
            "depth": report.depth,
            "n_sites": report.n_sites,
            "k": int(report.eigenvalues1.size),
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for est in report.estimates:
            rec = {
                "row": est.row,
                "col": est.col,
                "theta": list(est.theta),
                "sigma2": est.sigma2,
                "contrast": est.contrast,
                "iterations": est.iterations,
                "near_boundary": est.near_boundary,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_report(path) -> EstimationReport:
    with open(path) as fh:
        meta = json.loads(fh.readline())
        j0, depth, n_sites = meta["j0"], meta["depth"], meta["n_sites"]
        n = 1 << depth
        estimates = []
        mats = [np.zeros((n, n)) for _ in range(3)]
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            estimates.append(
                NodeEstimate(
                    row=rec["row"],
                    col=rec["col"],
                    theta=tuple(rec["theta"]),
                    sigma2=rec["sigma2"],
                    contrast=rec["contrast"],
                    iterations=rec["iterations"],
                    near_boundary=rec["near_boundary"],
                )
            )
            for i in range(3):
                mats[i][rec["row"], rec["col"]] = rec["theta"][i]
    operators = tuple(OperatorWaveletMatrix(j0, depth, m) for m in mats)
    k = min(meta["k"], n)
    return EstimationReport(
        j0=j0,
        depth=depth,
        n_sites=n_sites,
        estimates=estimates,
        operators=operators,
        eigenvalues1=wavelet_to_operator_eigs(operators[0], k),
        eigenvalues2=wavelet_to_operator_eigs(operators[1], k),
    )


def save_eigenvalue_table(report: EstimationReport, path) -> None:
    """CSV table (p, lambda1_hat, lambda2_hat)."""
    with open(path, "w") as fh:
        fh.write("p,lambda1_hat,lambda2_hat\n")
        for p, (l1, l2) in enumerate(
            zip(report.eigenvalues1, report.eigenvalues2), start=1
        ):
            fh.write(f"{p},{float(l1)!r},{float(l2)!r}\n")
