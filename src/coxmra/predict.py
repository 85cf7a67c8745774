"""Plug-in spatial prediction and leave-one-site-out validation.

Prediction applies the estimated operator matrices to the wavelet
coefficients of the three causal neighbours (west, south, south-west in
lattice order), one kernel (`_plug_in`) for the whole lattice and for
every held-out fold.  Sites on the first row or column lack a neighbour
and are left at zero rather than extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# `perfbench/spans.py` traces `estimate_all` under this module's name
from .estimator import EstimationReport, ThetaDomain, estimate_all, estimate_many  # noqa: F401
from .grids import FunctionalField, SpatialGrid, TimeGrid, write_csv
from .wavelet import MultiscaleCoefficients, field_dwt, idwt


@dataclass(frozen=True)
class PredictionResult:
    predicted: FunctionalField  # zero on the first row and column
    residuals: FunctionalField


def _plug_in(report: EstimationReport, west: np.ndarray, south: np.ndarray, southwest: np.ndarray) -> np.ndarray:
    """M1 c_west + M2 c_south + M3 c_southwest of the report's operators,
    over any leading axes of the neighbours' coefficients: three
    non-optimised einsum terms added in this order, so a site's bits do
    not depend on the sites beside it."""
    m1, m2, m3 = (op.matrix for op in report.operators)
    return (
        np.einsum("ab,...b->...a", m1, west)
        + np.einsum("ab,...b->...a", m2, south)
        + np.einsum("ab,...b->...a", m3, southwest)
    )


def predict_coeffs(coeffs: MultiscaleCoefficients, report: EstimationReport) -> np.ndarray:
    """Coefficient-domain one-step prediction, zero on the first row and
    column."""
    if (report.j0, report.depth) != (coeffs.j0, coeffs.depth):
        raise ValueError(
            f"report layout (j0={report.j0}, depth={report.depth}) does not "
            f"match coefficients (j0={coeffs.j0}, depth={coeffs.depth})"
        )
    c = coeffs.coeffs
    pred = np.zeros_like(c)
    pred[1:, 1:] = _plug_in(report, c[:-1, 1:], c[1:, :-1], c[:-1, :-1])
    return pred


def predict(coeffs: MultiscaleCoefficients, report: EstimationReport) -> PredictionResult:
    """One-step plug-in prediction of every interior site's curve."""
    time = TimeGrid(coeffs.depth)
    predicted = idwt(predict_coeffs(coeffs, report), coeffs.j0)
    residuals = idwt(coeffs.coeffs, coeffs.j0) - predicted
    for values in predicted, residuals:
        values[0] = values[:, 0] = 0.0
    return PredictionResult(
        FunctionalField(coeffs.grid, time, predicted),
        FunctionalField(coeffs.grid, time, residuals),
    )


# ---------------------------------------------------------------------------
# leave-one-site-out validation


@dataclass(frozen=True)
class FoldResult:
    site: tuple[int, int]
    mafe: float
    abs_error: np.ndarray  # pointwise |error| over time


@dataclass(frozen=True)
class ValidationSummary:
    folds: list[FoldResult] = field(repr=False)
    period_length: int = 12

    @property
    def aloocve(self) -> float:
        """Overall cross-validation error: mean of the per-fold MAFEs."""
        return float(np.mean([f.mafe for f in self.folds]))

    def period_errors(self) -> np.ndarray:
        """Pointwise error averaged over folds, then over blocks of `period_length` time points."""
        pointwise, step = np.mean([f.abs_error for f in self.folds], axis=0), self.period_length
        return np.array([pointwise[i : i + step].mean() for i in range(0, len(pointwise), step)])


def interior_sites(s1: int, s2: int) -> list[tuple[int, int]]:
    """Every site with all three causal neighbours, in C order: the folds
    of a full leave-one-out run."""
    return [(p, q) for p in range(1, s1) for q in range(1, s2)]


def _largest_block(s1: int, s2: int, site: tuple[int, int], radius: int) -> tuple[slice, slice] | None:
    """Largest complete rectangular subgrid avoiding the hold-out band, or
    None when no candidate keeps at least 4 rows and 4 columns.

    Candidates strip away all rows (or all columns) within the Chebyshev
    neighbourhood of the held-out site; frequency-domain estimation then
    runs on an intact lattice.
    """
    p0, q0 = site
    candidates = [
        (slice(0, p0 - radius), slice(0, s2)),
        (slice(p0 + radius + 1, s1), slice(0, s2)),
        (slice(0, s1), slice(0, q0 - radius)),
        (slice(0, s1), slice(q0 + radius + 1, s2)),
    ]
    sides = [(rs.stop - rs.start, cs.stop - cs.start) for rs, cs in candidates]
    trainable = [(nr * nc, block) for (nr, nc), block in zip(sides, candidates) if nr >= 4 and nc >= 4]
    # the first of the largest, as `max` picks it
    return max(trainable, key=lambda t: t[0], default=(0, None))[1]


def _training_block(s1: int, s2: int, site: tuple[int, int], radius: int) -> tuple[slice, slice]:
    """`_largest_block` of a hold-out.  An untrainable one is named with its
    lattice and the largest smaller radius at which it trains: a smaller
    radius only widens every candidate."""
    block = _largest_block(s1, s2, site, radius)
    if block is None:
        fit = next((r for r in range(radius - 1, -1, -1) if _largest_block(s1, s2, site, r)), None)
        hint = "it trains at no radius" if fit is None else f"it trains at radius {fit}"
        raise ValueError(f"degenerate training set for hold-out {site} on the {s1}x{s2} lattice with radius {radius}: {hint}")
    return block


def loo_validate(
    fld: FunctionalField,
    domain: ThetaDomain,
    j0: int = 0,
    neighborhood_radius: int = 1,
    period_length: int = 12,
    include_cross: bool = False,
    sites: list[tuple[int, int]] | None = None,
) -> ValidationSummary:
    """Leave-one-site-out validation of the plug-in predictor.

    For each held-out interior site the model is re-estimated on the
    largest rectangular subgrid excluding the hold-out neighbourhood, the
    held-out curve predicted from its observed causal neighbours, with the
    bits `predict_coeffs` gives that site under the fold's fit, and the
    absolute functional error recorded.  `sites` restricts the folds
    (defaults to `interior_sites`); each is checked to lie inside the
    lattice and to have a training block before any transform or fit.
    Fold order does not affect any aggregate.  Each training block is
    fitted once, in one `estimate_many` call, whose lockstep search packs
    the blocks of every lattice shape.
    """
    s1, s2 = fld.grid.s1, fld.grid.s2
    if sites is None:
        sites = interior_sites(s1, s2)
    if len(sites) == 0:
        raise ValueError("no sites to validate: sites is empty")
    for site in sites:
        if min(site) < 1:
            raise ValueError(f"site {site} has no causal neighbours")
        if site[0] >= s1 or site[1] >= s2:
            raise ValueError(f"site {site} is outside the {s1}x{s2} lattice: a fold needs 1 <= p < {s1}, 1 <= q < {s2}")
    sites = sorted(sites)
    blocks: dict[tuple[int, int, int, int], list[int]] = {}  # training block -> its folds
    for i, site in enumerate(sites):
        rs, cs = _training_block(s1, s2, site, neighborhood_radius)
        blocks.setdefault((rs.start, rs.stop, cs.start, cs.stop), []).append(i)
    c = field_dwt(fld, j0).coeffs
    # the Haar transform acts site by site: a block's coefficients are a slice of c
    subs = [MultiscaleCoefficients(SpatialGrid(r1 - r0, c1 - c0), j0, fld.time.depth, c[r0:r1, c0:c1])
            for r0, r1, c0, c1 in blocks]
    folds = [None] * len(sites)
    # a block's folds are predicted together; `_plug_in` gives each its lattice bits
    for members, report in zip(blocks.values(), estimate_many(subs, domain, include_cross=include_cross)):
        p, q = np.array([sites[i] for i in members]).T
        errors = np.abs(fld.values[p, q] - idwt(_plug_in(report, c[p - 1, q], c[p, q - 1], c[p - 1, q - 1]), j0))
        # each row's mean is a pairwise sum of its own contiguous row, as err.mean() is
        for i, err, mafe in zip(members, errors, errors.mean(axis=-1).tolist()):
            folds[i] = FoldResult(sites[i], mafe, err)
    return ValidationSummary(folds, period_length)


def save_validation(summary: ValidationSummary, folds_path, periods_path) -> None:
    sites = np.array([f.site for f in summary.folds], dtype=np.int64).reshape(-1, 2)
    mafe = [f.mafe for f in summary.folds]
    write_csv(folds_path, ("fold", "site_p", "site_q", "mafe"), [*sites.T, mafe], origin=(0,))
    write_csv(periods_path, ("period", "avg_error"), [summary.period_errors()], origin=(0,))
