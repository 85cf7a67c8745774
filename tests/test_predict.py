import numpy as np
import pytest

import coxmra.estimator as estimator_module
import coxmra.predict as predict_module
from coxmra import (
    SarhSpec,
    SpatialGrid,
    ThetaDomain,
    TimeGrid,
    default_variance_profile,
    loo_validate,
    simulate,
)
from coxmra.estimator import EstimationReport, _estimate_rows, estimate_all, estimate_many
from coxmra.grids import FunctionalField, detrend
from coxmra.predict import (
    FoldResult,
    ValidationSummary,
    _training_block,
    predict,
    predict_coeffs,
    save_validation,
)
from coxmra.wavelet import MultiscaleCoefficients, field_dwt, idwt, level_slices
from oracles import EDGE_FLOATS, loo_fold_by_fold, table_csv


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
    report = estimate_all(mc, ThetaDomain())
    return mc, report


def test_prediction_mask_excludes_first_row_col(fitted):
    mc, report = fitted
    result = predict(mc, report)
    pred = predict_coeffs(mc, report)
    # unpredicted sites carry zero placeholders, in coefficients and curves
    for values in (pred, result.predicted.values, result.residuals.values):
        assert not values[0].any() and not values[:, 0].any()
    assert (result.predicted.values[1:, 1:] != 0).any(axis=2).all()
    assert np.array_equal(result.predicted.values[1:, 1:], idwt(pred, mc.j0)[1:, 1:])


def test_prediction_is_affine_in_neighbours(fitted):
    mc, report = fitted
    pred = predict_coeffs(mc, report)
    # direct recomputation at one site
    p, q = 3, 7
    m1, m2, m3 = (op.matrix for op in report.operators)
    c = mc.coeffs
    expected = m1 @ c[p - 1, q] + m2 @ c[p, q - 1] + m3 @ c[p - 1, q - 1]
    np.testing.assert_allclose(pred[p, q], expected, atol=1e-12)


def test_blockwise_prediction_identical(fitted):
    mc, report = fitted
    pred = predict_coeffs(mc, report)
    np.testing.assert_allclose(predict_coeffs_blockwise(mc, report), pred, atol=1e-10)


def test_residuals_consistent(fitted):
    mc, report = fitted
    result = predict(mc, report)
    recon = result.predicted.values + result.residuals.values
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
        res, ThetaDomain(), j0=2, period_length=4, sites=sites
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


def test_loo_validate_fits_each_training_block_once(monkeypatch):
    lam1, lam2 = np.array([0.3, 0.2]), np.array([0.5, 0.4])
    spec = SarhSpec(lam1, lam2, default_variance_profile(lam1, lam2), TimeGrid(1), couple_l3=True)
    res, _ = detrend(simulate(spec, SpatialGrid(12, 12), 64, seed=34))
    domain = ThetaDomain(couple_l3=True)
    calls, searches = [], []

    def counted(coeff_sets, *args, **kwargs):
        calls.append([c.grid for c in coeff_sets])
        return estimate_many(coeff_sets, *args, **kwargs)

    def counted_rows(groups, *args):
        groups = list(groups)
        searches.append([((freq.s1, freq.s2), len(weights)) for freq, weights in groups])
        return _estimate_rows(groups, *args)

    monkeypatch.setattr(predict_module, "estimate_many", counted)
    monkeypatch.setattr(estimator_module, "_estimate_rows", counted_rows)
    summary = loo_validate(res, domain, j0=0, neighborhood_radius=1, period_length=1)
    # the 121 folds of a 12 x 12 lattice with radius 1 use 20 distinct
    # blocks, fitted in one call and one search, of 11 distinct lattice
    # shapes: 40 rows, the two diagonal pairs of each block
    assert len(summary.folds) == 121
    assert len(calls) == 1 and len(calls[0]) == 20
    assert len(searches) == 1
    shapes = [shape for shape, _ in searches[0]]
    assert len(shapes) == len(set(shapes)) == 11
    assert sum(rows for _, rows in searches[0]) == 40
    reference = loo_fold_by_fold(res, domain, j0=0, radius=1)
    assert [f.site for f in summary.folds] == [site for site, _, _ in reference]
    assert np.array_equal([f.mafe for f in summary.folds], [m for _, m, _ in reference])
    assert np.array_equal([f.abs_error for f in summary.folds], [e for _, _, e in reference])


@pytest.mark.parametrize("cross", [False, True])
def test_loo_validate_reads_no_report_eigenvalues(monkeypatch, cross):
    # validation only predicts, and a report computes its operators'
    # eigenvalues on first read, so no training block's fit computes them
    lam1, lam2 = np.array([0.3, 0.2]), np.array([0.5, 0.4])
    spec = SarhSpec(lam1, lam2, default_variance_profile(lam1, lam2), TimeGrid(1), couple_l3=True)
    res, _ = detrend(simulate(spec, SpatialGrid(10, 10), 64, seed=35))
    domain = ThetaDomain(couple_l3=True)

    def no_eigenvalues(*args):
        raise AssertionError("a report's eigenvalues were computed")

    monkeypatch.setattr(estimator_module, "wavelet_to_operator_eigs", no_eigenvalues)
    summary = loo_validate(res, domain, j0=0, neighborhood_radius=1, period_length=1, include_cross=cross)
    assert len(summary.folds) == 81
    # a read would have computed them
    with pytest.raises(AssertionError, match="eigenvalues were computed"):
        estimate_all(field_dwt(res, 0), domain, include_cross=cross).eigenvalues1


def test_loo_folds_predict_as_the_lattice_does():
    # with dense operators (the eigenbasis fit, depth 3) each fold's
    # prediction has the bits of `predict_coeffs` at its site under the
    # fold's fit, not merely its value
    lam1, lam2 = np.array([0.3, 0.25, 0.2]), np.array([0.45, 0.4, 0.35])
    spec = SarhSpec(lam1, lam2, default_variance_profile(lam1, lam2), TimeGrid(3), couple_l3=True)
    res, _ = detrend(simulate(spec, SpatialGrid(10, 10), 64, seed=37))
    domain = ThetaDomain(couple_l3=True)
    summary = loo_validate(res, domain, j0=1, neighborhood_radius=1, period_length=4, include_cross=True)
    reference = loo_fold_by_fold(res, domain, j0=1, radius=1, include_cross=True)
    assert [f.site for f in summary.folds] == [site for site, _, _ in reference]
    assert np.array_equal([f.mafe for f in summary.folds], [m for _, m, _ in reference])
    assert np.array_equal([f.abs_error for f in summary.folds], [e for _, _, e in reference])


def test_loo_validate_keeps_duplicate_sites(reference_spec):
    res, _ = detrend(simulate(reference_spec, SpatialGrid(10, 10), 64, seed=35))
    sites = [(6, 6), (3, 3), (6, 6), (3, 4)]
    summary = loo_validate(res, ThetaDomain(), j0=2, period_length=4, sites=sites)
    assert [f.site for f in summary.folds] == sorted(sites)
    once = loo_validate(res, ThetaDomain(), j0=2, period_length=4, sites=[(3, 3), (3, 4), (6, 6)])
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 2)):
        assert summary.folds[i].mafe == once.folds[j].mafe
        assert np.array_equal(summary.folds[i].abs_error, once.folds[j].abs_error)


def test_loo_validate_rejects_boundary_site(reference_spec):
    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=32)
    res, _ = detrend(fld)
    with pytest.raises(ValueError, match="causal"):
        loo_validate(res, ThetaDomain(), j0=2, sites=[(0, 3)])


@pytest.mark.parametrize("site", [(12, 3), (30, 3), (3, 12)])
def test_loo_validate_rejects_site_past_the_lattice(monkeypatch, site):
    # a site past the last row or column is named with the lattice before
    # any transform or fit, not left to an index error after every fit
    fld = FunctionalField(SpatialGrid(12, 12), TimeGrid(1), np.random.default_rng(38).normal(size=(12, 12, 2)))
    monkeypatch.setattr(predict_module, "field_dwt", lambda *args, **kwargs: pytest.fail("transformed"))
    monkeypatch.setattr(predict_module, "estimate_many", lambda *args, **kwargs: pytest.fail("fitted"))
    with pytest.raises(ValueError, match=rf"site \({site[0]}, {site[1]}\) is outside the 12x12 lattice"):
        loo_validate(fld, ThetaDomain(), sites=[(3, 3), site])


@pytest.mark.parametrize("s1, s2, sites, radius, message", [
    (8, 8, None, 1, r"hold-out \(3, 3\) on the 8x8 lattice with radius 1: it trains at radius 0"),
    (8, 8, None, 2, r"hold-out \(2, 2\) on the 8x8 lattice with radius 2: it trains at radius 1"),
    (5, 5, [(1, 3), (2, 2)], 1, r"hold-out \(1, 3\) on the 5x5 lattice with radius 1: it trains at no radius"),
], ids=["8x8-radius-1", "8x8-radius-2", "5x5-no-radius"])
def test_loo_validate_names_an_untrainable_site(monkeypatch, s1, s2, sites, radius, message):
    # a hold-out with no 4 x 4 training block is named with the lattice
    # and the largest smaller radius it trains at, before any transform or fit
    fld = FunctionalField(SpatialGrid(s1, s2), TimeGrid(1), np.random.default_rng(39).normal(size=(s1, s2, 2)))
    monkeypatch.setattr(predict_module, "field_dwt", lambda *args, **kwargs: pytest.fail("transformed"))
    monkeypatch.setattr(predict_module, "estimate_many", lambda *args, **kwargs: pytest.fail("fitted"))
    with pytest.raises(ValueError, match=message):
        loo_validate(fld, ThetaDomain(), neighborhood_radius=radius, sites=sites)


def test_loo_validate_rejects_no_sites(monkeypatch):
    # an empty fold list has no ALOOCVE and no period errors: rejected
    # before any fit
    fld = FunctionalField(SpatialGrid(8, 8), TimeGrid(1), np.random.default_rng(36).normal(size=(8, 8, 2)))
    monkeypatch.setattr(predict_module, "estimate_many", lambda *args, **kwargs: pytest.fail("fitted"))
    with pytest.raises(ValueError, match="no sites"):
        loo_validate(fld, ThetaDomain(), sites=[])


def test_save_validation(tmp_path, reference_spec):
    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=33)
    res, _ = detrend(fld)
    summary = loo_validate(
        res, ThetaDomain(), j0=2, period_length=4, sites=[(5, 5)]
    )
    folds, periods = tmp_path / "f.csv", tmp_path / "p.csv"
    save_validation(summary, folds, periods)
    assert folds.read_text().splitlines()[0] == "fold,site_p,site_q,mafe"
    lines = periods.read_text().splitlines()
    assert lines[0] == "period,avg_error"
    assert len(lines) == 5
    edge = ValidationSummary(
        [FoldResult((i + 1, 2 * i + 3), v, np.full(3, abs(v))) for i, v in enumerate(EDGE_FLOATS)],
        period_length=2,
    )
    # three time points in periods of two: the periods take the folds' length
    assert len(edge.period_errors()) == 2
    for s in (summary, edge):
        save_validation(s, folds, periods)
        rows = [(i, *f.site, f.mafe) for i, f in enumerate(s.folds)]
        assert folds.read_bytes() == table_csv(("fold", "site_p", "site_q", "mafe"), rows).encode()
        rows = list(enumerate(s.period_errors()))
        assert periods.read_bytes() == table_csv(("period", "avg_error"), rows).encode()
