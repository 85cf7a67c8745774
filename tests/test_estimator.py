import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxmra import (
    SpatialGrid,
    ThetaDomain,
    estimate_all,
    innovation_variance,
    periodogram,
    truncation_parameter,
)
from coxmra.estimator import (
    EstimationReport,
    _estimate_rows,
    estimate_many,
    _lexicographic_argmin,
    load_report,
    save_eigenvalue_table,
    save_report,
)
from coxmra.sarh import simulate_component
from oracles import EDGE_FLOATS, estimate_node, estimate_rows_one_by_one, estimate_eta_moment, table_csv
from coxmra.spectral import (
    FrequencyGrid,
    PeriodogramTable,
    all_periodograms,
    contrast_weights,
    empirical_contrast,
    stationarity_check,
)
from coxmra.wavelet import MultiscaleCoefficients, field_dwt
from coxmra.grids import detrend

estimator_module = importlib.import_module("coxmra.estimator")


def verify_report(report: EstimationReport, coeffs: MultiscaleCoefficients) -> float:
    """Re-evaluate the contrast at every reported optimum; returns the
    largest absolute discrepancy (guards against stale caching)."""
    freq = FrequencyGrid(coeffs.grid.s1, coeffs.grid.s2)
    fdfts = all_periodograms(coeffs.coeffs).reshape(-1, coeffs.n_coeffs)
    worst = 0.0
    for est in report.estimates:
        cross = fdfts[:, est.row] * np.conj(fdfts[:, est.col])
        table = PeriodogramTable(
            freq, cross.reshape(freq.s1, freq.s2), diagonal=est.row == est.col
        )
        val = empirical_contrast(table, est.theta)
        worst = max(worst, abs(val - est.contrast))
    return worst


def _ar_periodogram(theta, s1, s2, seed, sigma2=1.0):
    rng = np.random.default_rng(seed)
    x = simulate_component(theta, sigma2, SpatialGrid(s1, s2), 64, rng)
    return periodogram(x - x.mean())


def test_truncation_parameter():
    assert truncation_parameter(100) == 4
    assert truncation_parameter(900) == 6
    assert truncation_parameter(2500) == 7
    assert truncation_parameter(22500) == 10
    assert truncation_parameter(2) == 1
    with pytest.raises(ValueError):
        truncation_parameter(1)


def test_domain_candidates_are_stationary():
    dom = ThetaDomain()
    cand = dom.candidates()
    assert cand.shape[1] == 3
    assert all(stationarity_check(c) for c in cand)


def test_domain_coupled_candidates():
    dom = ThetaDomain(couple_l3=True)
    cand = dom.candidates()
    np.testing.assert_allclose(cand[:, 2], -cand[:, 0] * cand[:, 1], atol=1e-12)


def test_near_boundary_follows_domain_geometry():
    # the coupled domain is the square |th1|, |th2| < 1, not the triangle
    coupled, box = ThetaDomain(couple_l3=True), ThetaDomain()
    assert not coupled.near_boundary((0.56, 0.56, -0.3136))
    assert coupled.near_boundary((0.96, 0.1, -0.096))
    assert box.near_boundary((0.5, 0.3, -0.19))
    assert not box.near_boundary((0.4, 0.3, -0.19))
    # a coupled fit well inside the square is not flagged
    th0 = (0.56, 0.56, -0.56 * 0.56)
    x = simulate_component(th0, 1.0, SpatialGrid(30, 30), 64, np.random.default_rng(0))
    mc = MultiscaleCoefficients(SpatialGrid(30, 30), 0, 0, (x - x.mean())[:, :, None])
    (est,) = estimate_all(mc, coupled).estimates
    np.testing.assert_allclose(est.theta, th0, atol=0.01)
    assert sum(abs(v) for v in est.theta) > 1.0
    assert not est.near_boundary


def test_box_estimation_consistent_on_ar_data():
    # well-specified scalar AR field: the estimate approaches the truth
    theta0 = np.array([0.3, 0.5, -0.15])
    tab = _ar_periodogram(theta0, 50, 50, seed=3)
    theta, _ = estimate_node(tab, ThetaDomain())
    np.testing.assert_allclose(theta, theta0, atol=0.08)


def test_box_estimation_never_worse_than_coarse_grid():
    tab = _ar_periodogram((0.2, 0.3, -0.06), 20, 20, seed=11)
    dom = ThetaDomain()
    theta, value = estimate_node(tab, dom)
    coarse = min(empirical_contrast(tab, c) for c in dom.candidates())
    assert value <= coarse + 1e-12


def test_lexicographic_tie_break_deterministic():
    # values within 1e-15 of the minimum tie; the smallest lexicographic
    # theta among the tied wins
    pts = np.array([(0.1, 0.0, 0.0), (-0.1, 0.0, 0.0), (-0.1, 0.2, 0.0), (-0.1, 0.0, -0.3)])
    # exact ties, decided by the first, then the later coordinates
    assert _lexicographic_argmin(np.array([1.0, 1.0]), pts[:2]) == 1
    assert _lexicographic_argmin(np.full(4, 2.0), pts) == 3
    # a gap of 1e-15 is a tie, a gap of 1e-14 is not
    assert _lexicographic_argmin(np.array([1e-15, 0.0]), pts[1::-1]) == 0
    assert _lexicographic_argmin(np.array([1e-14, 0.0]), pts[1::-1]) == 1
    # a strictly smaller value wins whatever its theta
    assert _lexicographic_argmin(np.array([0.5, 0.3, 0.4]), pts[:3]) == 1


def test_sigma2_moment_and_innovation_variance():
    theta0 = (0.3, 0.5, -0.15)
    sig2 = 0.7
    tabs = [
        _ar_periodogram(theta0, 60, 60, seed=s, sigma2=sig2) for s in range(8)
    ]
    est = np.mean([innovation_variance(t, theta0) for t in tabs])
    assert est == pytest.approx(sig2, rel=0.1)
    with pytest.raises(ValueError):
        estimate_eta_moment(tabs[0], (0.8, 0.8, 0.0))


_lower = st.floats(min_value=-0.95, max_value=-0.05)
_upper = st.floats(min_value=0.05, max_value=0.95)
box_domains = st.builds(
    lambda couple, bounds: ThetaDomain(bounds=bounds, couple_l3=couple),
    st.booleans(),
    st.tuples(*[st.tuples(_lower, _upper)] * 3),
)


@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    box_domains,
    st.integers(min_value=0, max_value=10**6),
)
@example(4, 4, 2, True, ThetaDomain(), 0)
@example(5, 8, 2, True, ThetaDomain(couple_l3=True), 1)
@settings(max_examples=60, deadline=None)
def test_lockstep_search_matches_reference(s1, s2, n, cross, domain, seed):
    # all rows searched at once must follow each row's own search exactly
    coeffs = np.random.default_rng(seed).normal(size=(s1, s2, n))
    freq = FrequencyGrid(s1, s2)
    f = all_periodograms(coeffs).reshape(-1, n)
    pairs = [(a, b) for a in range(n) for b in range(n) if cross or a == b]
    weights = np.array([contrast_weights(f[:, a] * np.conj(f[:, b]), freq) for a, b in pairs])
    thetas, values, iters = _estimate_rows([weights], freq, domain)
    ref_thetas, ref_values, ref_iters = estimate_rows_one_by_one(weights, freq, domain)
    assert np.array_equal(thetas, ref_thetas)
    assert np.array_equal(iters, ref_iters)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12)


def _coeff_sets(shapes, picks, depth):
    """One standard-normal coefficient set per (shape index, seed) pick."""
    return [
        MultiscaleCoefficients(
            SpatialGrid(*shapes[k]), 0, depth, np.random.default_rng(seed).normal(size=(*shapes[k], 1 << depth))
        )
        for k, seed in picks
    ]


@given(
    st.lists(st.tuples(st.integers(4, 10), st.integers(4, 10)), min_size=3, max_size=3, unique=True),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    box_domains,
)
@settings(max_examples=25, deadline=None)
def test_estimate_many_matches_estimate_all(shapes, picks, depth, cross, domain):
    # sets fitted together in one search per shape keep the bits of each
    # set fitted alone
    coeff_sets = _coeff_sets(shapes, picks, depth)
    reports = estimate_many(coeff_sets, domain, include_cross=cross)
    assert len(reports) == len(coeff_sets)
    for coeffs, report in zip(coeff_sets, reports):
        alone = estimate_all(coeffs, domain, include_cross=cross)
        assert (report.j0, report.depth, report.n_sites) == (alone.j0, alone.depth, alone.n_sites)
        # theta, contrast, iterations, eta_moment and near_boundary of every pair
        assert report.estimates == alone.estimates
        assert np.array_equal(report.eigenvalues1, alone.eigenvalues1)
        assert np.array_equal(report.eigenvalues2, alone.eigenvalues2)


def test_estimate_many_searches_once_per_shape(monkeypatch):
    shapes = [(5, 6), (6, 5), (7, 7)]
    coeff_sets = _coeff_sets(shapes, [(0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (1, 6)], depth=1)
    searches = []

    def counted(blocks, freq, domain):
        searches.append(((freq.s1, freq.s2), len(blocks)))
        return _estimate_rows(blocks, freq, domain)

    monkeypatch.setattr(estimator_module, "_estimate_rows", counted)
    reports = estimate_many(coeff_sets, ThetaDomain())
    assert sorted(searches) == [((5, 6), 3), ((6, 5), 2), ((7, 7), 1)]
    assert [r.n_sites for r in reports] == [30, 30, 30, 49, 30, 30]
    assert estimate_many([], ThetaDomain()) == []


def test_estimate_all_report_structure(reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(12, 12), 64, seed=21)
    res, _ = detrend(fld)
    mc = field_dwt(res, 2)
    report = estimate_all(mc, ThetaDomain())
    n = mc.n_coeffs
    assert len(report.estimates) == n  # diagonal pairs only
    assert report.n_sites == 144
    assert report.eigenvalues1.size == truncation_parameter(144)
    diag = report.diagonal_thetas()
    assert diag.shape == (n, 3)
    assert np.isfinite(diag).all()
    # assembled operator matrices carry the estimates on the diagonal
    np.testing.assert_allclose(np.diag(report.operators[0].matrix), diag[:, 0])
    # contrasts recomputed from scratch must match the stored values
    assert verify_report(report, mc) < 1e-10
    # each pair's moment is the eta-weighted sum of its own periodogram
    freq = FrequencyGrid(12, 12)
    for est in report.estimates:
        expected = contrast_weights(periodogram(mc.coeffs[:, :, est.row]).values, freq).sum()
        assert est.eta_moment == pytest.approx(expected, rel=1e-12, abs=0)


def test_estimate_all_include_cross(reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=22)
    res, _ = detrend(fld)
    mc = field_dwt(res, 3)
    report = estimate_all(mc, ThetaDomain(), include_cross=True)
    n = mc.n_coeffs
    assert len(report.estimates) == n * n
    assert np.isfinite(report.operators[0].matrix).all()
    # the (a, b) and (b, a) rows carry identical weights, hence identical fits
    ops = np.stack([op.matrix for op in report.operators])
    assert np.array_equal(ops, ops.transpose(0, 2, 1))


def test_report_roundtrip(tmp_path, reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=23)
    res, _ = detrend(fld)
    mc = field_dwt(res, 2)
    path = tmp_path / "report.ndjson"
    reports = {cross: estimate_all(mc, ThetaDomain(), include_cross=cross) for cross in (False, True)}
    for cross, fitted in reports.items():
        save_report(fitted, path)
        back = load_report(path)
        assert (back.j0, back.depth, back.n_sites) == (fitted.j0, fitted.depth, fitted.n_sites)
        assert len(back.estimates) == len(fitted.estimates) == mc.n_coeffs ** (2 if cross else 1)
        for op_back, op in zip(back.operators, fitted.operators, strict=True):
            assert np.array_equal(op_back.matrix, op.matrix)
        assert np.array_equal(back.eigenvalues1, fitted.eigenvalues1)
        assert np.array_equal(back.eigenvalues2, fitted.eigenvalues2)
    report = reports[False]
    save_eigenvalue_table(report, tmp_path / "eigs.csv")
    lines = (tmp_path / "eigs.csv").read_text().splitlines()
    assert lines[0] == "p,lambda1_hat,lambda2_hat"
    assert len(lines) == 1 + report.eigenvalues1.size
    edge = replace(report, eigenvalues1=np.array(EDGE_FLOATS), eigenvalues2=-np.array(EDGE_FLOATS))
    for rep in (report, edge):
        save_eigenvalue_table(rep, tmp_path / "eigs.csv")
        rows = [(p, l1, l2) for p, (l1, l2) in enumerate(zip(rep.eigenvalues1, rep.eigenvalues2), 1)]
        expected = table_csv(("p", "lambda1_hat", "lambda2_hat"), rows)
        assert (tmp_path / "eigs.csv").read_bytes() == expected.encode()
