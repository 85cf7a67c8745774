"""Plug-in spatial prediction and leave-one-site-out validation.

Prediction applies the estimated operator matrices to the wavelet
coefficients of the three causal neighbours (west, south, south-west in
lattice order).  Sites on the first row or column lack a neighbour and
are flagged as unpredicted rather than extrapolated.
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
    predicted: FunctionalField
    residuals: FunctionalField
    mask: np.ndarray  # True where a prediction exists

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.predicted.grid.s1, self.predicted.grid.s2):
            raise ValueError("mask shape mismatch")
        object.__setattr__(self, "mask", m)


def predict_coeffs(
    coeffs: MultiscaleCoefficients, report: EstimationReport
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient-domain one-step prediction; returns (predicted, mask)."""
    if (report.j0, report.depth) != (coeffs.j0, coeffs.depth):
        raise ValueError(
            f"report layout (j0={report.j0}, depth={report.depth}) does not "
            f"match coefficients (j0={coeffs.j0}, depth={coeffs.depth})"
        )
    c = coeffs.coeffs
    s1, s2, _ = c.shape
    m1, m2, m3 = (op.matrix for op in report.operators)
    pred = np.zeros_like(c)
    pred[1:, 1:] = (
        np.einsum("ab,pqb->pqa", m1, c[:-1, 1:])
        + np.einsum("ab,pqb->pqa", m2, c[1:, :-1])
        + np.einsum("ab,pqb->pqa", m3, c[:-1, :-1])
    )
    mask = np.zeros((s1, s2), dtype=bool)
    mask[1:, 1:] = True
    return pred, mask


def predict(
    coeffs: MultiscaleCoefficients, report: EstimationReport
) -> PredictionResult:
    """One-step plug-in prediction of every interior site's curve."""
    pred_c, mask = predict_coeffs(coeffs, report)
    time = TimeGrid(coeffs.depth)
    predicted = idwt(pred_c, coeffs.j0)
    observed = idwt(coeffs.coeffs, coeffs.j0)
    residuals = np.where(mask[:, :, None], observed - predicted, 0.0)
    predicted = np.where(mask[:, :, None], predicted, 0.0)
    return PredictionResult(
        FunctionalField(coeffs.grid, time, predicted),
        FunctionalField(coeffs.grid, time, residuals),
        mask,
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
    n_time: int = 0

    @property
    def aloocve(self) -> float:
        """Overall cross-validation error: mean of the per-fold MAFEs."""
        return float(np.mean([f.mafe for f in self.folds]))

    def period_errors(self) -> np.ndarray:
        """Pointwise error averaged over folds, then over period blocks."""
        pointwise = np.mean([f.abs_error for f in self.folds], axis=0)
        n_periods = -(-self.n_time // self.period_length)
        out = np.empty(n_periods)
        for i in range(n_periods):
            block = pointwise[i * self.period_length : (i + 1) * self.period_length]
            out[i] = block.mean()
        return out


def _training_block(
    s1: int, s2: int, site: tuple[int, int], radius: int
) -> tuple[slice, slice]:
    """Largest complete rectangular subgrid avoiding the hold-out band.

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
    best = None
    best_size = 0
    for rs, cs in candidates:
        nr = max(0, rs.stop - rs.start)
        nc = max(0, cs.stop - cs.start)
        if nr < 4 or nc < 4:
            continue
        if nr * nc > best_size:
            best, best_size = (rs, cs), nr * nc
    if best is None:
        raise ValueError(
            f"degenerate training set for hold-out {site} with radius {radius}"
        )
    return best


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
    held-out curve predicted from its observed causal neighbours, and the
    absolute functional error recorded.  `sites` restricts the folds
    (defaults to every interior site); fold order does not affect any
    aggregate.  Each training block is fitted once, in one `estimate_many`
    call, whose lockstep search packs the blocks of every lattice shape.
    """
    s1, s2 = fld.grid.s1, fld.grid.s2
    if sites is None:
        sites = [(p, q) for p in range(1, s1) for q in range(1, s2)]
    if len(sites) == 0:
        raise ValueError("no sites to validate: sites is empty")
    c = field_dwt(fld, j0).coeffs
    blocks = []
    for site in sorted(sites):
        if min(site) < 1:
            raise ValueError(f"site {site} has no causal neighbours")
        rs, cs = _training_block(s1, s2, site, neighborhood_radius)
        blocks.append((site, (rs.start, rs.stop, cs.start, cs.stop)))
    # the Haar transform acts site by site: a block's coefficients are a slice of c
    keys = list(dict.fromkeys(key for _, key in blocks))
    subs = [MultiscaleCoefficients(SpatialGrid(r1 - r0, c1 - c0), j0, fld.time.depth, c[r0:r1, c0:c1])
            for r0, r1, c0, c1 in keys]
    fits = dict(zip(keys, estimate_many(subs, domain, include_cross=include_cross)))
    folds = []
    for site, key in blocks:
        p0, q0 = site
        m1, m2, m3 = (op.matrix for op in fits[key].operators)
        pred_c = m1 @ c[p0 - 1, q0] + m2 @ c[p0, q0 - 1] + m3 @ c[p0 - 1, q0 - 1]
        abs_err = np.abs(fld.values[p0, q0] - idwt(pred_c, j0))
        folds.append(FoldResult(site, float(abs_err.mean()), abs_err))
    return ValidationSummary(folds, period_length, fld.time.n)


def save_validation(summary: ValidationSummary, folds_path, periods_path) -> None:
    sites = np.array([f.site for f in summary.folds], dtype=np.int64).reshape(-1, 2)
    mafe = [f.mafe for f in summary.folds]
    write_csv(folds_path, ("fold", "site_p", "site_q", "mafe"), [*sites.T, mafe], origin=(0,))
    write_csv(periods_path, ("period", "avg_error"), [summary.period_errors()], origin=(0,))
