"""Minimum-contrast estimation of the wavelet-domain AR parameters.

Every fit is made of rows: one scalar coefficient field each, whose
periodogram is a density.  A diagonal fit has one row per wavelet
coefficient and puts its AR triple on the operators' diagonal.  A cross
fit (`include_cross`) has one row per component of the empirical
eigenbasis: the top k eigenvectors U_k of the coefficients' uncentred
lag-0 second moment C, whose score fields c.U_k are fitted, and each
operator is sym(U_k diag(theta) U_k^T), the projection estimator of
ARH(1) theory.  In the SARH model the three operators and C share one
eigenbasis, so k rows stand for the whole matrix.

The empirical contrast of each row is minimized over a box domain: each
row is seeded at the best candidate of a coarse grid and refined by a
projected Newton search in the free coordinates, run in lockstep for all
rows of every lattice shape fitted together (`_newton`).  The seeds
(`_seeds`) are ranked against every candidate by one rows x candidates
product per shape, against the candidates' log-density rounded to
float32, built a block at a time on a lattice shape's first use with a
domain, and from its second use kept while the kept tables fit a 4 MiB
budget.  Only the candidates whose rounding bound leaves them within the
tie tolerance of the row's least are scored exactly by
`spectral._contrast`, so each seed is the one an exact score of every
candidate picks; ties go to the lexicographically least candidate, in an
order the domain keeps.  A Newton round keeps only its live rows' state,
compacted, and takes the contrast and its derivatives of its moving
rows, whatever their shape, from one `spectral._contrast_derivatives`
call; it does the facet work only for rows that hold a facet, and tests
the domain only on trials that would move.  Every exact value sums per
row, in a fixed order, over the off-axis half plane of its shape, so a
row's fit depends neither on what is fitted beside it nor on the BLAS
thread count.  Eigenvalue estimates follow from the assembled operator
matrices, computed when first read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice, product

import numpy as np

from .spectral import (
    FrequencyGrid,
    _contrast,
    _contrast_derivatives,
    _readonly,
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
# seed contrasts within this fraction of a row's weight sum are ties
_TIE = 1e-15
# the Newton search: the damping, relative to a row's weight sum, starts
# at _DAMPING_START, shrinks tenfold on an accepted step and otherwise
# grows tenfold, to _DAMPING_START at least; a row stops once its step is
# below _STEP_TOL in max norm or cannot lower the contrast by _EPS of its
# size, its damping passes _DAMPING_CEILING, or it has made _MAX_EVALS
# evaluations
_DAMPING_START = 1e-3
_DAMPING_CEILING = 1e10
_STEP_TOL = 1e-9
_EPS = np.finfo(float).eps
_MAX_EVALS = 32
# the search's stationarity facets lie this far inside the strict edge, so
# a point on one is in the domain
_FACET_INSET = 1e-12
# folded weight elements (rows x half-plane points) one lockstep search
# packs lattice shapes up to; a shape larger than this is searched alone
_SEARCH_BLOCK = 1 << 16
# one FrequencyGrid per recent lattice shape, so that its tables are
# built once, not once per fit
_frequency_grid = lru_cache(maxsize=16)(FrequencyGrid)


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
            if not math.isfinite(hi - lo):  # the search steps by a tenth of the width
                raise ValueError(f"interval ({lo}, {hi}) has no finite width")
            if not lo <= hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
        object.__setattr__(self, "_candidates", _readonly(self._stationary_grid()))
        if not len(self._candidates):
            raise ValueError(f"no stationary candidate in the box domain {self.bounds}")
        object.__setattr__(self, "_candidate_coefs", _readonly(_symbol_coefficients(self._candidates)))
        object.__setattr__(self, "_order", _readonly(_lexicographic_order(self._candidates)))
        # the (lo, hi) arrays of the free coordinates that `contains` compares against
        object.__setattr__(self, "_box", np.array(self.bounds[: 2 if self.couple_l3 else 3]).T)
        object.__setattr__(self, "_facets", self._search_facets())

    def _search_facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward normals (K, f) and offsets (K,) of the facets the Newton
        search holds, n . theta <= offset inside, over the f free
        coordinates: first the lower, then the upper box faces, then, in the
        uncoupled box, the eight facets s . theta <= edge of the |theta|_1
        ball, s a sign pattern.  In the coupled box the edge max(|th1|,
        |th2|) clips the box faces instead."""
        lo, hi = self._box
        edge = 1 - _BOUNDARY_MARGIN - _FACET_INSET
        if self.couple_l3:
            lo, hi = np.maximum(lo, -edge), np.minimum(hi, edge)
        eye = np.eye(lo.size)
        normals, offsets = [-eye, eye], [-lo, hi]
        if not self.couple_l3:
            normals.append(np.array(list(product((-1.0, 1.0), repeat=3))))
            offsets.append(np.full(8, edge))
        return np.vstack(normals), np.concatenate(offsets)

    def candidates(self) -> np.ndarray:
        """Stationary seed candidates, shape (m, 3), built once with the
        domain and read-only."""
        return self._candidates

    def _stationary_grid(self) -> np.ndarray:
        """The stationary points of the coarse grid over the box."""
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

    def near_boundary(self, theta):
        """Whether a fit, or each row of an (m, 3) array of fits, lies
        within the reporting slack of the domain's stationarity edge."""
        return edge_norm(theta, self.couple_l3) > 1 - _BOUNDARY_MARGIN - _BOUNDARY_SLACK


def _lexicographic_order(thetas: np.ndarray) -> np.ndarray:
    """The indices that sort the candidates `thetas` (m, 3) lexicographically."""
    return np.lexsort(thetas.T[::-1])


def _lexicographic_argmin(values: np.ndarray, thetas: np.ndarray, scale: np.ndarray,
                          order: np.ndarray | None = None) -> np.ndarray:
    """Index of the least of each row of values (..., m) over the candidates
    `thetas` (m, 3); ties within 1e-15 times the row's `scale` (...,), its
    weight sum, go to the lexicographically least theta, so scaling a
    row's weights by a power of two leaves its choice unchanged.  `order`
    is the candidates' `_lexicographic_order`, when the caller keeps it."""
    if order is None:
        order = _lexicographic_order(thetas)
    tied = values[..., order] <= values.min(axis=-1, keepdims=True) + _TIE * np.asarray(scale)[..., None]
    return order[tied.argmax(axis=-1)]


def _estimate_rows(
    groups: Iterable[tuple[FrequencyGrid, np.ndarray]], domain: ThetaDomain
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of the (FrequencyGrid, weights) groups, the weights a
    (rows, N) array of full-plane contrast weights on the group's grid, in
    one lockstep search.  Returns, in group order, the thetas (rows, 3),
    contrasts, Newton evaluations and eta moments (each row's weight sum).

    `groups` is consumed once: a group's full-plane weights are dropped
    once it is seeded, and its folded weights are summed once per row.
    Each row is seeded by `_seeds` and refined by `_newton`, each of whose
    rounds evaluates its moving rows, with their sums, of every lattice
    shape in one `_contrast_derivatives` call.  Every value is the
    contrast of one row's folded weights at one candidate, so a row's bits
    do not depend on the rows beside it.
    """
    seeded = []
    for freq, w in groups:
        hw, moment = freq.fold(w), w.sum(axis=1)
        seeds = _seeds(hw, moment, freq.half_plane, domain, (freq.s1, freq.s2))
        seeded.append((freq.half_plane, hw, hw.sum(axis=1), moment, seeds))
    tables, folded, sums, moments, first = zip(*seeded)
    moments, first = map(np.concatenate, (moments, first))
    offsets = np.cumsum([0] + [hw.shape[0] for hw in folded])

    def evaluate(rows: np.ndarray, thetas: np.ndarray):
        # rows ascend, so each group's rows are one slice; a group whose rows
        # all move passes its arrays as they are
        cuts = np.searchsorted(rows, offsets).tolist()
        moving = [(hw, hs, table) if b - a == len(hw) else (hw[rows[a:b] - lo], hs[rows[a:b] - lo], table)
                  for hw, hs, table, lo, a, b in zip(folded, sums, tables, offsets, cuts[:-1], cuts[1:]) if a < b]
        return _contrast_derivatives(moving, thetas, domain.couple_l3)

    return (*_newton(evaluate, domain.candidates()[first], moments, domain), moments)


def _seeds(folded: np.ndarray, scale: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray],
           domain: ThetaDomain, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Index among `domain.candidates()` of the seed of every row of folded
    weights (rows, N') on a `half_plane` table: its least `_contrast`, ties
    within `_TIE` times its weight sum `scale` (rows,) going to the
    lexicographically least theta.  Only the candidates a rows x candidates
    ranking cannot exclude from that tie are scored exactly, so the choice
    is the one an exact score of every candidate gives.  Given the table's
    lattice `shape` (s1, s2), the candidates' ranking table is kept between
    calls under the shape and the domain, from their second use; the seeds
    are the same bits."""
    retain = None if shape is None else (shape, domain)
    values = _contrast(folded, domain._candidate_coefs, table, _TIE * scale, retain)
    return _lexicographic_argmin(values, domain.candidates(), scale, domain._order)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product of (..., p, q) and (..., q, r) as an
    elementwise product summed over q, so a row's bits do not depend on
    the rows beside it."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2)


def _held_projections(domain: ThetaDomain, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projectors P = I - A A^+ on the null space of the facets each
    row of `work` (rows, K) holds, and the pseudo-inverses A^+ of their
    normals A, (rows, f, f) and (rows, K, f).  Both depend only on the held
    set, so each set is computed once per domain (`_held_projection`)."""
    codes = (work * (1 << np.arange(work.shape[1]))).sum(axis=1)
    proj, pinv = zip(*[_held_projection(domain, code) for code in codes.tolist()])
    return np.array(proj), np.array(pinv)


@lru_cache(maxsize=1024)
def _held_projection(domain: ThetaDomain, code: int) -> tuple[np.ndarray, np.ndarray]:
    """`_held_projections` of one held set, a bit per facet of `code`."""
    normals = domain._facets[0]
    active = (normals.T * ((code >> np.arange(normals.shape[0])) & 1))[None]
    pinv = np.linalg.pinv(active)
    return _readonly(np.eye(normals.shape[1]) - _mul(active, pinv)[0]), _readonly(pinv[0])


def _newton(evaluate, theta: np.ndarray, scale: np.ndarray, domain: ThetaDomain):
    """Lockstep projected Newton from the seeds `theta` (rows, 3); returns
    each row's theta, contrast and evaluations.

    `evaluate(rows, thetas)` gives the contrast, gradient and Hessian in
    the free coordinates of the ascending `rows` at `thetas`.  Each row
    keeps its own point, damping mu, value and working set: the domain
    facets (`ThetaDomain._search_facets`) it holds as equalities, at first
    those its seed lies on.  A round steps by -(H + mu s I)^-1 g in the
    null space of the held facets, s the row's weight sum, with negative
    curvature taken by its absolute value so that the step descends.  A
    step cut by a facet ends on it, and the facet is held once the step is
    accepted.  A step is accepted only if the contrast falls; mu then
    shrinks, and grows otherwise, also when a facet the row touches blocks
    the whole step.  A row at rest lets go of the held facets whose
    least-squares multiplier is negative, or stops.

    The live rows' state is kept compacted, in row order, and a row is
    written out once, when it stops.  A round's 3 x 3 algebra runs once
    over all live rows; the facet work (projection, multipliers, release)
    only over the rows that hold a facet, from projectors computed once per
    held set; the domain test only over the trials that would move."""
    normals, offsets = domain._facets
    n, free = theta.shape[0], normals.shape[1]
    # the coordinate of each box face, -1 for a facet of the |theta|_1 ball
    face = np.where(np.arange(offsets.size) < 2 * free, np.arange(offsets.size) % free, -1)
    out = np.empty_like(theta), np.empty(n), np.empty(n, dtype=int)
    rows, theta = np.arange(n), theta.copy()
    value, grad, hess = evaluate(rows, theta)
    evals = np.ones(n, dtype=int)
    mu = np.full(n, _DAMPING_START)
    held = (normals * theta[:, None, :free]).sum(axis=-1) >= offsets
    while rows.size:
        # on the rows that hold a facet: the projector P on the null space
        # of the held facets, which turns H into P H P and g into P g, and
        # their least-squares multipliers; the other rows skip the identity
        mat, pg, release = hess, grad, None
        some = np.flatnonzero(held.any(axis=1))
        if some.size:
            proj, pinv = _held_projections(domain, held[some])
            mat, pg = hess.copy(), grad.copy()
            mat[some] = _mul(_mul(proj, mat[some]), proj)
            pg[some] = (proj * grad[some, None, :]).sum(axis=-1)
            lam = -(pinv * grad[some, None, :]).sum(axis=-1)
        curv, vecs = np.linalg.eigh(mat)
        denom = np.abs(curv) + (mu * scale)[:, None]
        coef = (vecs * pg[:, :, None]).sum(axis=1) / np.where(denom > 0, denom, 1.0)
        d = (vecs * coef[:, None, :]).sum(axis=-1)
        if some.size:
            d[some] = (proj * d[some, None, :]).sum(axis=-1)
        d = np.negative(d, out=d)
        if some.size:
            d[held[:, : 2 * free].reshape(-1, 2, free).any(axis=1)] = 0.0
        # cut by the first facet not held that the step would cross
        towards = (normals * d[:, None, :]).sum(axis=-1)
        slack = offsets - (normals * theta[:, None, :free]).sum(axis=-1)
        crossing = ~held & (towards > 0)
        reach = np.where(crossing, np.maximum(slack, 0.0) / np.where(crossing, towards, 1.0), np.inf)
        alpha = np.minimum(reach.min(axis=1), 1.0)
        blocked = alpha < 1.0
        cut = blocked.any()
        step = alpha[:, None] * d
        # at rest: a step below the tolerance, or one whose first-order
        # decrease -g . step could not move the contrast's last bit
        small = (np.abs(step).max(axis=1) < _STEP_TOL) | (-(grad * step).sum(axis=1) < _EPS * np.abs(value))
        done = ~blocked & small
        if some.size:
            freed = done[some, None] & held[some] & (lam < 0)
            held[some] &= ~freed
            release = np.zeros(rows.size, dtype=bool)
            release[some] = freed.any(axis=1)
            done &= ~release
        trial = theta.copy()
        trial[:, :free] += step
        if cut:
            block = reach.argmin(axis=1)
            box = blocked & (face[block] >= 0)
            trial[box, face[block[box]]] = offsets[block[box]] * normals[block[box], face[block[box]]]
        if domain.couple_l3:
            trial[:, 2] = -(trial[:, 0] * trial[:, 1])
        move = ~done & (alpha > 0)
        if release is not None:
            move &= ~release
        move = np.flatnonzero(move)
        move = move[domain.contains(trial[move])]
        acc = np.zeros(rows.size, dtype=bool)
        if move.size:
            val, gr, he = evaluate(rows[move], trial[move])
            evals[move] += 1
            keep = val < value[move]
            acc[move[keep]] = True
            theta[acc], value[acc], grad[acc], hess[acc] = trial[acc], val[keep], gr[keep], he[keep]
        # an accepted step holds the facet that cut it; a facet the row
        # touches that blocks the whole step is held too
        if cut:
            hold = blocked & (acc | (alpha == 0))
            held[hold, block[hold]] = True
        grown = np.maximum(mu * 10, _DAMPING_START)
        mu = np.where(acc, mu / 10, grown if release is None else np.where(release, mu, grown))
        live = ~done & (mu <= _DAMPING_CEILING) & (evals < _MAX_EVALS)
        if not live.all():
            stop = rows[~live]
            for part, state in zip(out, (theta, value, evals)):
                part[stop] = state[~live]
            rows, theta, value, grad, hess, held, mu, evals, scale = (
                a[live] for a in (rows, theta, value, grad, hess, held, mu, evals, scale))
    return out


@dataclass(frozen=True)
class NodeEstimate:
    """The fit of one row: a wavelet coefficient (`row` is its layout
    index) or, in a cross fit, a component of the eigenbasis (its column
    in `EigenBasis.vectors`)."""

    row: int
    theta: tuple[float, float, float]
    eta_moment: float  # eta-weighted periodogram moment: the sum of the row's `contrast_weights`
    contrast: float
    iterations: int  # contrast evaluations of the row's Newton search, its seed's included
    near_boundary: bool


@dataclass(frozen=True)
class EigenBasis:
    """The basis a cross fit is made in: the top k eigenvectors of the
    coefficients' uncentred lag-0 second moment C, as the columns of
    `vectors` (n, k), and their eigenvalues, descending.  `eigengap` is
    the smallest gap between adjacent eigenvalues of C, among the k and
    the first one left out, relative to the largest eigenvalue; U_k is
    ill-determined when it is small."""

    vectors: np.ndarray
    eigenvalues: np.ndarray
    eigengap: float


@dataclass(frozen=True)
class EstimationReport:
    """Per-row estimates plus assembled operator matrices; `basis` is the
    eigenbasis of a cross fit, None for a diagonal one.  `k` eigenvalues
    of each of the first two operators are reported, computed on first
    read, as a fit that only predicts never reads them."""

    j0: int
    depth: int
    n_sites: int
    estimates: list[NodeEstimate] = field(repr=False)
    operators: tuple[OperatorWaveletMatrix, OperatorWaveletMatrix, OperatorWaveletMatrix]
    k: int
    basis: EigenBasis | None = field(default=None, repr=False)

    @cached_property
    def eigenvalues1(self) -> np.ndarray:
        """The k leading eigenvalues of the first operator (`wavelet_to_operator_eigs`)."""
        return wavelet_to_operator_eigs(self.operators[0], self.k)

    @cached_property
    def eigenvalues2(self) -> np.ndarray:
        """The k leading eigenvalues of the second operator (`wavelet_to_operator_eigs`)."""
        return wavelet_to_operator_eigs(self.operators[1], self.k)

    def diagonal_thetas(self) -> np.ndarray:
        """Theta triples of the operators' diagonal entries in layout order, (n, 3)."""
        return np.stack([op.matrix.diagonal() for op in self.operators], axis=1)


def estimate_all(
    coeffs: MultiscaleCoefficients,
    domain: ThetaDomain,
    include_cross: bool = False,
) -> EstimationReport:
    """Fit the diagonal rows, or with `include_cross` the eigenbasis rows,
    and assemble the operator matrices.

    The periodogram-based contrast sees the AR triple split across the
    three operators only through the joint symbol; each row yields one
    theta triple whose components populate the three matrices.
    """
    return estimate_many([coeffs], domain, include_cross)[0]


def estimate_many(coeff_sets: list[MultiscaleCoefficients], domain: ThetaDomain,
                  include_cross: bool = False) -> list[EstimationReport]:
    """`estimate_all` of every set, with one lockstep search over the rows
    of all sets, whatever their lattice shape, as long as their folded
    weights stay within `_SEARCH_BLOCK` elements; past it the shapes are
    packed into several searches.  The sets of one shape are one weight
    array; a cross fit's eigenbasis is each set's own.  Each report has
    the bits `estimate_all` gives the set alone."""
    reports = [None] * len(coeff_sets)
    for search in _searches(coeff_sets, include_cross):
        groups = ((freq, _row_weights(freq, fields)) for freq, fields, _ in search)
        thetas, values, evals, moments = _estimate_rows(groups, domain)
        rows = zip(thetas, values, evals, moments, domain.near_boundary(thetas))
        for freq, fields, members in search:
            for (i, coeffs, basis), x in zip(members, fields):
                estimates = [
                    NodeEstimate(r, tuple(map(float, th)), float(moment), float(val), int(it), bool(near))
                    for r, (th, val, it, moment, near) in enumerate(islice(rows, x.shape[-1]))
                ]
                reports[i] = _report(coeffs.j0, coeffs.depth, freq.n, truncation_parameter(freq.n), estimates, basis)
    return reports


def _searches(coeff_sets: list[MultiscaleCoefficients], include_cross: bool):
    """The lockstep searches of `estimate_many`, yielded one at a time so
    that a search's grid tables and fields are dropped with it: lists of
    (freq, [fitted (s1, s2, rows) field of each set], [(set index, coeffs,
    basis)]) shape groups in order of first appearance, packed while their
    folded weights stay within `_SEARCH_BLOCK` elements.  A set's fitted
    field is its coefficients, or their scores in its eigenbasis."""
    shapes: dict[tuple[int, int], list] = {}
    for i, coeffs in enumerate(coeff_sets):
        basis = _eigenbasis(coeffs) if include_cross else None
        shapes.setdefault((coeffs.grid.s1, coeffs.grid.s2), []).append((i, coeffs, basis))
    search, size = [], 0
    for (s1, s2), members in shapes.items():
        freq = _frequency_grid(s1, s2)
        fields = [c.coeffs if b is None else c.coeffs @ b.vectors for _, c, b in members]
        elements = sum(x.shape[-1] for x in fields) * freq.half_plane[1].size
        if search and size + elements > _SEARCH_BLOCK:
            yield search
            search, size = [], 0
        search.append((freq, fields, members))
        size += elements
    if search:
        yield search


def _eigenbasis(coeffs: MultiscaleCoefficients) -> EigenBasis:
    """The top k eigenvectors of C = (1/N) sum_pq c_pq c_pq^T over the
    set's N sites, k = `truncation_parameter(N)` clipped to n; ties keep
    `eigh`'s order."""
    c = coeffs.coeffs.reshape(-1, coeffs.n_coeffs)
    lam, vectors = np.linalg.eigh(c.T @ c / c.shape[0])
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    k = min(truncation_parameter(c.shape[0]), lam.size)
    # one eigenvalue alone has no neighbour to be confused with
    gap = float(np.min((lam[:-1] - lam[1:])[:k] / max(lam[0], np.finfo(float).tiny), initial=1.0))
    return EigenBasis(vectors[:, order[:k]], lam[:k], gap)


def _row_weights(freq: FrequencyGrid, fields: list[np.ndarray]) -> np.ndarray:
    """Contrast weights (rows, N) of every column of the (s1, s2, m)
    fitted fields of one shape, in order: each column's periodogram, from
    one fDFT of all the columns.  The rows are C-contiguous, so a row's
    sum has the bits of the row alone."""
    f = all_periodograms(np.concatenate(fields, axis=-1))
    f *= np.conj(f)
    return np.ascontiguousarray(contrast_weights(np.moveaxis(f, -1, 0), freq))


def _report(j0: int, depth: int, n_sites: int, k: int, estimates: list[NodeEstimate],
            basis: EigenBasis | None = None) -> EstimationReport:
    """Assemble the three operator matrices from the thetas of `estimates`,
    in row order, into a report of k leading eigenvalues, k clipped to the
    layout size.  Without a basis each row's theta is a diagonal entry;
    with one each operator is sym(U diag(theta) U^T), so its (a, b) and
    (b, a) entries are equal bits."""
    n = 1 << depth
    thetas = np.array([est.theta for est in estimates])
    if basis is None:
        mats = np.zeros((3, n, n))
        mats[:, np.arange(n), np.arange(n)] = thetas.T
    else:
        u = basis.vectors
        b = (u * thetas.T[:, None, :]) @ u.T
        mats = 0.5 * (b + b.transpose(0, 2, 1))
    operators = tuple(OperatorWaveletMatrix(j0, depth, m) for m in mats)
    return EstimationReport(j0, depth, n_sites, estimates, operators, min(k, n), basis)


# ---------------------------------------------------------------------------
# serialization

_REPORT_META = {"j0": int, "depth": int, "n_sites": int, "k": int}
# a cross report's metadata also holds its basis: the k eigenvectors one
# after another, their eigenvalues and the eigengap
_CROSS_META = {**_REPORT_META, "basis": list, "basis_eigenvalues": list, "basis_eigengap": float}


def save_report(report: EstimationReport, path) -> None:
    """NDJSON: one metadata line, then one record per fitted row."""
    meta = {"j0": report.j0, "depth": report.depth, "n_sites": report.n_sites, "k": report.k}
    if report.basis is not None:
        meta.update(basis=report.basis.vectors.T.ravel().tolist(),
                    basis_eigenvalues=report.basis.eigenvalues.tolist(),
                    basis_eigengap=report.basis.eigengap)
    write_ndjson(path, meta, ({**vars(est), "theta": list(est.theta)} for est in report.estimates))


def load_report(path) -> EstimationReport:
    """Read a `save_report` file: one record per fitted row, a layout entry
    of a diagonal report or a basis vector of a cross report.  The
    estimates come back in row order; the operators are rebuilt from them."""
    head, records, lineno = read_ndjson(
        path,
        (_REPORT_META, _CROSS_META),
        # NodeEstimate field order
        {"row": int, "theta": list, "eta_moment": float,
         "contrast": float, "iterations": int, "near_boundary": bool},
    )
    (j0, depth, n_sites, k), cross = head[:4], head[4:]
    if not (0 <= j0 <= depth and depth >= 1 and 1 <= k <= 1 << depth):
        raise record_fault(path, 1, f"bad layout j0={j0}, depth={depth}, k={k}")
    n = 1 << depth
    basis = None
    if cross:
        vectors, eigenvalues, gap = cross
        if len(vectors) != n * k or len(eigenvalues) != k:
            raise record_fault(path, 1, f"basis of {len(vectors)} values and {len(eigenvalues)} eigenvalues, "
                                        f"expected {n * k} and {k}")
        basis = EigenBasis(np.reshape(vectors, (k, n)).T, np.array(eigenvalues), gap)
    for i, (_, theta, *_) in enumerate(records):
        if len(theta) != 3:
            raise record_fault(path, lineno(i), f"theta has {len(theta)} values, expected 3")
    place_records(path, (n if basis is None else k,), ([rec[0] for rec in records],),
                  [rec[1] for rec in records], lineno, lambda key: f"row {key[0]}")
    # placed, the rows are 0..m-1 once each, so sorted records are in row order
    return _report(j0, depth, n_sites, k, [NodeEstimate(*rec) for rec in sorted(records)], basis)


def save_eigenvalue_table(report: EstimationReport, path) -> None:
    """CSV table (p, lambda1_hat, lambda2_hat), p from 1."""
    write_csv(path, ("p", "lambda1_hat", "lambda2_hat"),
              [report.eigenvalues1, report.eigenvalues2], origin=(1,))
