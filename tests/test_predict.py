import numpy as np
import pytest

from coxmra import SpatialGrid, ThetaDomain, TimeGrid, loo_validate, predict, simulate
from coxmra.estimator import EstimationReport, estimate_all
from coxmra.grids import FunctionalField, detrend
from coxmra.predict import _training_block, predict_coeffs, save_validation
from coxmra.wavelet import MultiscaleCoefficients, field_dwt, level_slices


def predict_coeffs_blockwise(
    coeffs: MultiscaleCoefficients, report: EstimationReport
) -> np.ndarray:
    """Block-expanded evaluation of the same prediction.

    Sums the scaling/scaling, scaling/detail, detail/scaling and
    detail/detail contributions separately; algebraically identical to
    the matrix-product form and kept as a cross-check.
    """
    c = coeffs.coeffs
    pred = np.zeros_like(c)
    slices = list(level_slices(coeffs.j0, coeffs.depth).values())
    neighbours = (c[:-1, 1:], c[1:, :-1], c[:-1, :-1])
    for mat, nb in zip((op.matrix for op in report.operators), neighbours):
        for out_sl in slices:
            for in_sl in slices:
                pred[1:, 1:, out_sl] += np.einsum(
                    "ab,pqb->pqa", mat[out_sl, in_sl], nb[:, :, in_sl]
                )
    return pred


@pytest.fixture(scope="module")
def fitted(reference_spec):
    fld = simulate(reference_spec, SpatialGrid(15, 15), 64, seed=30)
    res, _ = detrend(fld)
    mc = field_dwt(res, 2)
    report = estimate_all(mc, ThetaDomain(mode="box"))
    return mc, report


def test_prediction_mask_excludes_first_row_col(fitted):
    mc, report = fitted
    result = predict(mc, report)
    assert not result.mask[0].any()
    assert not result.mask[:, 0].any()
    assert result.mask[1:, 1:].all()
    # unpredicted sites carry zero placeholders
    np.testing.assert_array_equal(result.predicted.values[0], 0.0)


def test_prediction_is_affine_in_neighbours(fitted):
    mc, report = fitted
    pred, mask = predict_coeffs(mc, report)
    # direct recomputation at one site
    p, q = 3, 7
    m1, m2, m3 = (op.matrix for op in report.operators)
    c = mc.coeffs
    expected = m1 @ c[p - 1, q] + m2 @ c[p, q - 1] + m3 @ c[p - 1, q - 1]
    np.testing.assert_allclose(pred[p, q], expected, atol=1e-12)


def test_blockwise_prediction_identical(fitted):
    mc, report = fitted
    pred, _ = predict_coeffs(mc, report)
    np.testing.assert_allclose(predict_coeffs_blockwise(mc, report), pred, atol=1e-10)


def test_residuals_consistent(fitted):
    mc, report = fitted
    result = predict(mc, report)
    recon = result.predicted.values + result.residuals.values
    from coxmra.wavelet import idwt

    observed = idwt(mc.coeffs, mc.j0)
    np.testing.assert_allclose(recon[1:, 1:], observed[1:, 1:], atol=1e-10)


def test_layout_mismatch_rejected(fitted):
    mc, report = fitted
    other = field_dwt(
        FunctionalField(mc.grid, TimeGrid(mc.depth), np.zeros_like(mc.coeffs)), 0
    )
    with pytest.raises(ValueError, match="layout"):
        predict_coeffs(other, report)


def test_training_block_picks_largest_rectangle():
    rs, cs = _training_block(20, 12, (2, 6), radius=1)
    # cutting away rows 0..3 keeps a 16 x 12 block, the largest option
    assert (rs.start, rs.stop) == (4, 20)
    assert (cs.start, cs.stop) == (0, 12)
    with pytest.raises(ValueError, match="degenerate"):
        _training_block(5, 5, (2, 2), radius=2)


def test_loo_validate_structure(reference_spec):
    fld = simulate(reference_spec, SpatialGrid(12, 12), 64, seed=31)
    res, _ = detrend(fld)
    sites = [(3, 3), (6, 6), (9, 9)]
    summary = loo_validate(
        res, ThetaDomain(mode="box"), j0=2, period_length=4, sites=sites
    )
    assert len(summary.folds) == 3
    assert summary.aloocve > 0
    per = summary.period_errors()
    assert per.shape == (4,)  # 16 time points in blocks of 4
    assert np.all(per > 0)
    # the overall error is the mean of the per-fold errors
    assert summary.aloocve == pytest.approx(
        np.mean([f.mafe for f in summary.folds])
    )


def test_loo_validate_rejects_boundary_site(reference_spec):
    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=32)
    res, _ = detrend(fld)
    with pytest.raises(ValueError, match="causal"):
        loo_validate(res, ThetaDomain(mode="box"), j0=2, sites=[(0, 3)])


def test_save_validation(tmp_path, reference_spec):
    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=33)
    res, _ = detrend(fld)
    summary = loo_validate(
        res, ThetaDomain(mode="box"), j0=2, period_length=4, sites=[(5, 5)]
    )
    folds, periods = tmp_path / "f.csv", tmp_path / "p.csv"
    save_validation(summary, folds, periods)
    assert folds.read_text().splitlines()[0] == "fold,site_p,site_q,mafe"
    lines = periods.read_text().splitlines()
    assert lines[0] == "period,avg_error"
    assert len(lines) == 5
