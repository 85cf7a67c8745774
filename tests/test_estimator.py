import numpy as np
import pytest

from coxmra import (
    SpatialGrid,
    ThetaDomain,
    estimate_all,
    estimate_node,
    estimate_sigma2,
    innovation_variance,
    periodogram,
    truncation_parameter,
)
from coxmra.estimator import (
    EstimationReport,
    load_report,
    save_eigenvalue_table,
    save_report,
)
from coxmra.sarh import simulate_component
from coxmra.spectral import (
    FrequencyGrid,
    PeriodogramTable,
    all_periodograms,
    empirical_contrast,
    stationarity_check,
)
from coxmra.wavelet import MultiscaleCoefficients, field_dwt
from coxmra.grids import detrend


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
    dom = ThetaDomain(mode="box")
    cand = dom.candidates()
    assert cand.shape[1] == 3
    assert all(stationarity_check(c) for c in cand)


def test_domain_coupled_candidates():
    dom = ThetaDomain(mode="box", couple_l3=True)
    cand = dom.candidates()
    np.testing.assert_allclose(cand[:, 2], -cand[:, 0] * cand[:, 1], atol=1e-12)


def test_domain_finite_grid_validation():
    with pytest.raises(ValueError):
        ThetaDomain(mode="finite_grid", grid_points=())
    with pytest.raises(ValueError):
        ThetaDomain(mode="finite_grid", grid_points=((0.6, 0.6, 0.0),))
    dom = ThetaDomain(mode="finite_grid", grid_points=((0.1, 0.2, 0.0), (0.0, 0.0, 0.0)))
    assert dom.candidates().shape == (2, 3)


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


def test_finite_grid_estimation_picks_best_candidate():
    tab = _ar_periodogram((0.3, 0.5, -0.15), 40, 40, seed=1)
    points = ((0.3, 0.5, -0.15), (0.0, 0.0, 0.0), (-0.2, 0.1, 0.05))
    dom = ThetaDomain(mode="finite_grid", grid_points=points)
    theta, value = estimate_node(tab, dom)
    assert tuple(theta) == points[0]
    # the reported value must be the actual contrast at the optimum
    assert value == pytest.approx(empirical_contrast(tab, theta), abs=1e-12)


def test_box_estimation_consistent_on_ar_data():
    # well-specified scalar AR field: the estimate approaches the truth
    theta0 = np.array([0.3, 0.5, -0.15])
    tab = _ar_periodogram(theta0, 50, 50, seed=3)
    theta, _ = estimate_node(tab, ThetaDomain(mode="box"))
    np.testing.assert_allclose(theta, theta0, atol=0.08)


def test_box_estimation_never_worse_than_coarse_grid():
    tab = _ar_periodogram((0.2, 0.3, -0.06), 20, 20, seed=11)
    dom = ThetaDomain(mode="box")
    theta, value = estimate_node(tab, dom)
    coarse = min(empirical_contrast(tab, c) for c in dom.candidates())
    assert value <= coarse + 1e-12


def test_lexicographic_tie_break_deterministic():
    # perfectly symmetric candidates with equal contrast: smallest
    # lexicographic theta wins
    tab = _ar_periodogram((0.0, 0.0, 0.0), 16, 16, seed=5)
    pts = ((0.1, 0.0, 0.0), (-0.1, 0.0, 0.0))
    dom = ThetaDomain(mode="finite_grid", grid_points=pts)
    c0 = empirical_contrast(tab, pts[0])
    c1 = empirical_contrast(tab, pts[1])
    theta, _ = estimate_node(tab, dom)
    if abs(c0 - c1) < 1e-15:
        assert tuple(theta) == (-0.1, 0.0, 0.0)


def test_sigma2_moment_and_innovation_variance():
    theta0 = (0.3, 0.5, -0.15)
    sig2 = 0.7
    tabs = [
        _ar_periodogram(theta0, 60, 60, seed=s, sigma2=sig2) for s in range(8)
    ]
    est = np.mean([innovation_variance(t, theta0) for t in tabs])
    assert est == pytest.approx(sig2, rel=0.1)
    with pytest.raises(ValueError):
        estimate_sigma2(tabs[0], (0.8, 0.8, 0.0))


def test_estimate_all_report_structure(reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(12, 12), 64, seed=21)
    res, _ = detrend(fld)
    mc = field_dwt(res, 2)
    report = estimate_all(mc, ThetaDomain(mode="box"))
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


def test_estimate_all_include_cross(reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=22)
    res, _ = detrend(fld)
    mc = field_dwt(res, 3)
    report = estimate_all(mc, ThetaDomain(mode="box"), include_cross=True)
    n = mc.n_coeffs
    assert len(report.estimates) == n * n
    assert np.isfinite(report.operators[0].matrix).all()


def test_report_roundtrip(tmp_path, reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=23)
    res, _ = detrend(fld)
    mc = field_dwt(res, 2)
    report = estimate_all(mc, ThetaDomain(mode="box"))
    path = tmp_path / "report.ndjson"
    save_report(report, path)
    back = load_report(path)
    assert (back.j0, back.depth, back.n_sites) == (report.j0, report.depth, report.n_sites)
    np.testing.assert_allclose(back.diagonal_thetas(), report.diagonal_thetas())
    np.testing.assert_allclose(back.eigenvalues1, report.eigenvalues1)
    save_eigenvalue_table(report, tmp_path / "eigs.csv")
    lines = (tmp_path / "eigs.csv").read_text().splitlines()
    assert lines[0] == "p,lambda1_hat,lambda2_hat"
    assert len(lines) == 1 + report.eigenvalues1.size
