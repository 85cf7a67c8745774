"""Minimum-contrast estimation of the wavelet-domain AR parameters.

Each basis pair is fitted independently: the empirical contrast of its
periodogram table is minimized over a box domain by coarse seeding plus
a derivative-free coordinate pattern search, run in lockstep for all
pairs of every lattice shape fitted together.  Seeds and moves alike
evaluate the contrast as one dot product per row over the off-axis half
plane of its shape, so a pair's fit does not depend on what is fitted
beside it.  Estimated entries are assembled into full wavelet-domain
operator matrices, from which eigenvalue estimates follow.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .spectral import (
    FrequencyGrid,
    _inverse_symbol_sq,
    _log_psi,
    _stationary,
    _symbol_coefficients,
    all_periodograms,
    contrast_weights,
    edge_norm,
)
from .grids import place_records, read_ndjson, record_fault, write_csv, write_ndjson
from .wavelet import MultiscaleCoefficients, OperatorWaveletMatrix, wavelet_to_operator_eigs

# keep candidates strictly inside the stationarity region
_BOUNDARY_MARGIN = 1e-3
# fits within this distance of the margin are reported as near_boundary
_BOUNDARY_SLACK = 0.05
_COARSE_POINTS = 11
_REFINE_TOL = 1e-6
# folded weight elements (rows x half-plane points) one lockstep search
# packs lattice shapes up to; a shape larger than this is searched alone
_SEARCH_BLOCK = 1 << 16


def truncation_parameter(n: int) -> int:
    """Retained eigencomponents for a sample of n sites: floor(ln n)."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    return max(1, int(np.floor(np.log(n))))


@dataclass(frozen=True)
class ThetaDomain:
    """Search domain for one AR triple: the per-coordinate intervals
    intersected with the stationarity region.  With couple_l3 set the
    third coordinate is tied to -theta1 * theta2 and only the first two
    are searched.
    """

    bounds: tuple = ((-0.95, 0.95), (-0.95, 0.95), (-0.95, 0.95))
    couple_l3: bool = False

    def __post_init__(self):
        if len(self.bounds) != 3:
            raise ValueError(f"box domain needs three coordinate intervals, got {len(self.bounds)}")
        object.__setattr__(self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds))
        for lo, hi in self.bounds:
            if not lo <= hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
        if not len(self.candidates()):
            raise ValueError(f"no stationary candidate in the box domain {self.bounds}")
        # the (lo, hi) arrays of the free coordinates that `contains` compares against
        object.__setattr__(self, "_box", np.array(self.bounds[: 2 if self.couple_l3 else 3]).T)

    def candidates(self) -> np.ndarray:
        """Stationary seed candidates, shape (m, 3)."""
        axes = [np.linspace(lo, hi, _COARSE_POINTS) for lo, hi in self.bounds]
        if self.couple_l3:
            t1, t2 = np.meshgrid(axes[0], axes[1], indexing="ij")
            cand = np.column_stack(
                [t1.ravel(), t2.ravel(), -(t1 * t2).ravel()]
            )
        else:
            t1, t2, t3 = np.meshgrid(*axes, indexing="ij")
            cand = np.column_stack([t1.ravel(), t2.ravel(), t3.ravel()])
        return cand[edge_norm(cand, self.couple_l3) < 1 - _BOUNDARY_MARGIN]

    def contains(self, theta):
        """Whether a triple, or each row of an (m, 3) array, is in the domain."""
        th = np.asarray(theta, dtype=float)
        lo, hi = self._box
        free = th[..., : lo.size]
        in_box = ((lo <= free) & (free <= hi)).all(axis=-1)
        return in_box & (edge_norm(th, self.couple_l3) < 1 - _BOUNDARY_MARGIN)

    def near_boundary(self, theta) -> bool:
        """Whether a fit lies within the reporting slack of the domain's
        stationarity edge."""
        th = np.asarray(theta, dtype=float)
        return bool(edge_norm(th, self.couple_l3) > 1 - _BOUNDARY_MARGIN - _BOUNDARY_SLACK)


def _lexicographic_argmin(values: np.ndarray, thetas: np.ndarray) -> int:
    """Index of the minimum, ties broken by smallest lexicographic theta."""
    min_val = values.min()
    tied = np.flatnonzero(values <= min_val + 1e-15)
    if tied.size == 1:
        return int(tied[0])
    order = np.lexsort((thetas[tied, 2], thetas[tied, 1], thetas[tied, 0]))
    return int(tied[order[0]])


def _estimate_rows(
    groups: Iterable[tuple[FrequencyGrid, np.ndarray]], domain: ThetaDomain
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of the (FrequencyGrid, weights) groups, the weights a
    (rows, N) array of full-plane contrast weights on the group's grid, in
    one lockstep search.  Returns, in group order, the thetas (rows, 3),
    contrasts, pattern-search evaluations and eta moments (each row's
    weight sum).

    `groups` is consumed once: a group's full-plane weights and seed
    values are dropped once it is seeded.  Every contrast, of a seed
    candidate or of a move, is the `np.vecdot` of one row's folded
    weights with one candidate's half-plane log-density, so its bits do
    not depend on the rows beside it, and a row's search starts from its
    seed's own value.  A sweep moves each free coordinate by +step, then
    -step, keeps a move that lowers the contrast by more than 1e-15 and
    halves the step if none did.  Each row keeps its own point, contrast,
    step and active flag.
    """
    cand = domain.candidates()
    cand_coefs = _symbol_coefficients(cand)
    seeded = []
    for freq, w in groups:
        hw = freq.fold(w)
        seeds = -np.vecdot(hw[:, None, :], _log_psi(cand_coefs, *freq.half_plane))
        idx = np.array([_lexicographic_argmin(row, cand) for row in seeds], dtype=int)
        seeded.append((freq.half_plane, hw, w.sum(axis=1), idx, seeds[np.arange(idx.size), idx]))
    tables, folded, moments, first, best_val = zip(*seeded)
    moments, first, best_val = map(np.concatenate, (moments, first, best_val))
    offsets = np.cumsum([0] + [hw.shape[0] for hw in folded])

    def contrasts(rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        # rows ascend, so each group's rows are one slice
        coefs = _symbol_coefficients(thetas)
        cuts = np.searchsorted(rows, offsets)
        out = np.empty(rows.size)
        for hw, table, lo, a, b in zip(folded, tables, offsets, cuts[:-1], cuts[1:]):
            if a < b:
                out[a:b] = -np.vecdot(hw[rows[a:b] - lo], _log_psi(coefs[a:b], *table))
        return out

    n_rows = offsets[-1]
    iters = np.zeros(n_rows, dtype=int)
    best = cand[first]
    step = np.full(n_rows, max((hi - lo) / (_COARSE_POINTS - 1) for lo, hi in domain.bounds) * 0.5)
    free = 2 if domain.couple_l3 else 3
    active = np.flatnonzero(step > _REFINE_TOL)
    while active.size:
        improved = np.zeros(n_rows, dtype=bool)
        for i in range(free):
            for sign in (1.0, -1.0):
                moved = best[active]
                moved[:, i] += sign * step[active]
                if domain.couple_l3:
                    moved[:, 2] = -moved[:, 0] * moved[:, 1]
                inside = domain.contains(moved)
                rows, moved = active[inside], moved[inside]
                val = contrasts(rows, moved)
                iters[rows] += 1
                better = val < best_val[rows] - 1e-15
                rows = rows[better]
                best[rows], best_val[rows] = moved[better], val[better]
                improved[rows] = True
        step[active[~improved[active]]] *= 0.5
        active = active[step[active] > _REFINE_TOL]
    return best, best_val, iters, moments


def innovation_variance(cross: np.ndarray, theta) -> float:
    """Innovation variance recovered from the moment identity of one
    (s1, s2) periodogram table.

    The expected periodogram of the AR field is sigma2_eps / (2 pi)^2
    times the inverse squared symbol, so the moment is divided by the
    weighted integral of that shape.
    """
    freq = FrequencyGrid(*cross.shape)
    moment = float(contrast_weights(cross, freq).sum())
    shape = _inverse_symbol_sq(_stationary(theta), freq)[0] / (2.0 * np.pi) ** 2
    return moment / float(shape @ freq.eta_measure)


@dataclass(frozen=True)
class NodeEstimate:
    row: int
    col: int
    theta: tuple[float, float, float]
    eta_moment: float  # eta-weighted periodogram moment: the sum of the pair's `contrast_weights`
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
    return estimate_many([coeffs], domain, include_cross)[0]


def estimate_many(coeff_sets: list[MultiscaleCoefficients], domain: ThetaDomain,
                  include_cross: bool = False) -> list[EstimationReport]:
    """`estimate_all` of every set, with one lockstep search over the rows
    of all sets, whatever their lattice shape, as long as their folded
    weights stay within `_SEARCH_BLOCK` elements; past it the shapes are
    packed into several searches.  The sets of one shape are one weight
    array.  Each report has the bits `estimate_all` gives the set alone."""
    reports = [None] * len(coeff_sets)
    for search in _searches(coeff_sets, include_cross):
        groups = ((freq, _pair_weights(freq, members, pairs)) for freq, members, pairs in search)
        rows = zip(*_estimate_rows(groups, domain))
        for freq, members, pairs in search:
            for (i, coeffs), set_pairs in zip(members, pairs):
                fits = {}
                for (a, b), (th, val, it, moment) in zip(set_pairs, islice(rows, len(set_pairs))):
                    # (b, a) reports the fit of (a, b): see `_fitted_pairs`
                    fits[a, b] = fits[b, a] = (tuple(map(float, th)), float(moment), float(val), int(it),
                                               domain.near_boundary(th))
                # the diagonal first, then the off-diagonal pairs in row-major order
                order = sorted(fits, key=lambda p: (p[0] != p[1], p))
                estimates = [NodeEstimate(a, b, *fits[a, b]) for a, b in order]
                reports[i] = _report(coeffs.j0, coeffs.depth, freq.n, truncation_parameter(freq.n), estimates)
    return reports


def _searches(coeff_sets: list[MultiscaleCoefficients], include_cross: bool):
    """The lockstep searches of `estimate_many`, yielded one at a time so
    that a search's grid tables are dropped with it: lists of (freq,
    [(set index, coeffs)], [pairs of each set]) shape groups in order of
    first appearance, packed while their folded weights stay within
    `_SEARCH_BLOCK` elements."""
    shapes: dict[tuple[int, int], list[tuple[int, MultiscaleCoefficients]]] = {}
    for i, coeffs in enumerate(coeff_sets):
        shapes.setdefault((coeffs.grid.s1, coeffs.grid.s2), []).append((i, coeffs))
    search, size = [], 0
    for (s1, s2), members in shapes.items():
        freq = FrequencyGrid(s1, s2)
        pairs = [_fitted_pairs(coeffs.n_coeffs, include_cross) for _, coeffs in members]
        elements = sum(map(len, pairs)) * freq.half_plane[1].size
        if search and size + elements > _SEARCH_BLOCK:
            yield search
            search, size = [], 0
        search.append((freq, members, pairs))
        size += elements
    if search:
        yield search


def _fitted_pairs(n: int, include_cross: bool) -> list[tuple[int, int]]:
    """The (row, col) basis pairs fitted for n coefficients: the diagonal,
    then, if requested, the pairs a < b.  Re I_ab = Re I_ba, so (b, a)
    has the weights, and so the fit, of (a, b)."""
    pairs = [(a, a) for a in range(n)]
    if include_cross:
        pairs += [(a, b) for a in range(n) for b in range(a + 1, n)]
    return pairs


def _pair_weights(freq: FrequencyGrid, members, pairs) -> np.ndarray:
    """Contrast weights (rows, N) of the given (row, col) pairs of every
    (set index, coeffs) member of one shape, in member order."""
    weights = np.empty((sum(map(len, pairs)), freq.n))
    rows = iter(weights)
    for (_, coeffs), set_pairs in zip(members, pairs):
        flat = all_periodograms(coeffs.coeffs).reshape(-1, coeffs.n_coeffs)  # (N, n) complex
        for (a, b), row in zip(set_pairs, rows):
            row[:] = contrast_weights(flat[:, a] * np.conj(flat[:, b]), freq)
    return weights


def _report(j0: int, depth: int, n_sites: int, k: int, estimates: list[NodeEstimate]) -> EstimationReport:
    """Assemble the three operator matrices from per-pair estimates and
    their leading eigenvalues; k is clipped to the layout size."""
    n = 1 << depth
    mats = np.zeros((3, n, n))
    for est in estimates:
        mats[:, est.row, est.col] = est.theta
    operators = tuple(OperatorWaveletMatrix(j0, depth, m) for m in mats)
    k = min(k, n)
    return EstimationReport(
        j0=j0,
        depth=depth,
        n_sites=n_sites,
        estimates=estimates,
        operators=operators,
        eigenvalues1=wavelet_to_operator_eigs(operators[0], k),
        eigenvalues2=wavelet_to_operator_eigs(operators[1], k),
    )


# ---------------------------------------------------------------------------
# serialization


def save_report(report: EstimationReport, path) -> None:
    """NDJSON: one metadata line, then one record per basis pair."""
    meta = {"j0": report.j0, "depth": report.depth, "n_sites": report.n_sites,
            "k": int(report.eigenvalues1.size)}
    write_ndjson(path, meta, ({**vars(est), "theta": list(est.theta)} for est in report.estimates))


def load_report(path) -> EstimationReport:
    """Read a `save_report` file.  Every diagonal pair must be present;
    the off-diagonal pairs are either all present or all absent."""
    (j0, depth, n_sites, k), records, lineno = read_ndjson(
        path,
        {"j0": int, "depth": int, "n_sites": int, "k": int},
        # NodeEstimate field order
        {"row": int, "col": int, "theta": list, "eta_moment": float,
         "contrast": float, "iterations": int, "near_boundary": bool},
    )
    if not (0 <= j0 <= depth and depth >= 1 and k >= 1):
        raise record_fault(path, 1, f"bad layout j0={j0}, depth={depth}, k={k}")
    n = 1 << depth
    for i, (_, _, theta, *_) in enumerate(records):
        if len(theta) != 3:
            raise record_fault(path, lineno(i), f"theta has {len(theta)} values, expected 3")
    estimates = [NodeEstimate(*rec) for rec in records]
    pairs = np.array([(e.row, e.col) for e in estimates], dtype=np.int64).reshape(-1, 2)
    thetas = np.array([e.theta for e in estimates]).reshape(-1, 3)
    shape = (n, n) if (pairs[:, 0] != pairs[:, 1]).any() else (n,)
    place_records(
        path, shape, pairs[:, : len(shape)], thetas, lineno,
        lambda key: f"pair ({key[0]}, {key[-1]})",
    )
    return _report(j0, depth, n_sites, k, estimates)


def save_eigenvalue_table(report: EstimationReport, path) -> None:
    """CSV table (p, lambda1_hat, lambda2_hat), p from 1."""
    write_csv(path, ("p", "lambda1_hat", "lambda2_hat"),
              [report.eigenvalues1, report.eigenvalues2], origin=(1,))
