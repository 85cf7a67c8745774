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
    periodogram,
    truncation_parameter,
)
from coxmra.estimator import (
    EstimationReport,
    _estimate_rows,
    estimate_many,
    innovation_variance,
    _lexicographic_argmin,
    load_report,
    save_eigenvalue_table,
    save_report,
)
from conftest import ar_field
from oracles import EDGE_FLOATS, estimate_node, estimate_rows_one_by_one, estimate_eta_moment, table_csv
from coxmra.spectral import (
    FrequencyGrid,
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
    fdfts = all_periodograms(coeffs.coeffs)
    worst = 0.0
    for est in report.estimates:
        cross = fdfts[:, :, est.row] * np.conj(fdfts[:, :, est.col])
        val = empirical_contrast(cross, est.theta)
        worst = max(worst, abs(val - est.contrast))
    return worst


def _ar_periodogram(theta, s1, s2, seed, sigma2=1.0):
    rng = np.random.default_rng(seed)
    x = ar_field(theta, sigma2, SpatialGrid(s1, s2), 64, rng)
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


_EDGE = 1 - estimator_module._BOUNDARY_MARGIN


def _contains_rule(domain: ThetaDomain, th) -> bool:
    """The domain rule for one triple: in the box of the free coordinates,
    and the stationarity-edge norm below 1 - margin."""
    free = 2 if domain.couple_l3 else 3
    in_box = all(lo <= th[i] <= hi for i, (lo, hi) in enumerate(domain.bounds[:free]))
    norm = max(abs(th[0]), abs(th[1])) if domain.couple_l3 else abs(th[0]) + abs(th[1]) + abs(th[2])
    return in_box and norm < _EDGE


@given(
    st.booleans(),
    st.tuples(*[st.tuples(st.floats(-1.0, -0.05), st.floats(0.05, 1.0))] * 3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_domain_contains_matches_per_triple_rule(couple, bounds, data):
    domain = ThetaDomain(bounds, couple)
    # points exactly on the bounds and on the margin, and anywhere around
    special = [v for lo, hi in domain.bounds for v in (lo, hi)] + [_EDGE, -_EDGE, 0.0]
    coord = st.one_of(st.sampled_from(special), st.floats(-1.2, 1.2))
    points = data.draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=30))
    expected = [_contains_rule(domain, th) for th in points]
    assert domain.contains(np.array(points)).tolist() == expected
    assert [bool(domain.contains(th)) for th in points] == expected


def test_domain_contains_at_bounds_and_margin():
    wide = ThetaDomain(((-1.0, 1.0),) * 3)
    coupled = ThetaDomain(((-1.0, 1.0),) * 3, couple_l3=True)
    on_margin = [(_EDGE, 0.0, 0.0), (0.0, -_EDGE, 0.0)]
    assert not wide.contains(np.array(on_margin)).any()
    assert not coupled.contains(np.array(on_margin)).any()
    # just inside the margin, and a bound reached exactly, are in the domain
    inside = np.nextafter(_EDGE, 0.0)
    assert coupled.contains(np.array([(inside, -inside, 0.5), (0.3, 0.2, 0.0)])).all()
    box = ThetaDomain(((-0.3, 0.2), (-0.1, 0.4), (-0.2, 0.25)))
    assert box.contains(np.array([(-0.3, 0.4, -0.2), (0.2, -0.1, 0.25)])).all()
    assert not box.contains(np.array([(np.nextafter(-0.3, -1), 0.0, 0.0), (0.0, 0.0, np.nextafter(0.25, 1))])).any()


def test_near_boundary_follows_domain_geometry():
    # the coupled domain is the square |th1|, |th2| < 1, not the triangle
    coupled, box = ThetaDomain(couple_l3=True), ThetaDomain()
    assert not coupled.near_boundary((0.56, 0.56, -0.3136))
    assert coupled.near_boundary((0.96, 0.1, -0.096))
    assert box.near_boundary((0.5, 0.3, -0.19))
    assert not box.near_boundary((0.4, 0.3, -0.19))
    # a coupled fit well inside the square is not flagged
    th0 = (0.56, 0.56, -0.56 * 0.56)
    x = ar_field(th0, 1.0, SpatialGrid(30, 30), 64, np.random.default_rng(0))
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
    st.lists(st.tuples(st.integers(2, 16), st.integers(2, 16)), min_size=1, max_size=3, unique=True),
    st.integers(min_value=1, max_value=2),
    st.booleans(),
    box_domains,
    st.integers(min_value=0, max_value=10**6),
)
@example([(4, 4)], 2, True, ThetaDomain(), 0)
@example([(5, 8)], 2, True, ThetaDomain(couple_l3=True), 1)
@example([(4, 4), (5, 8), (3, 7)], 2, True, ThetaDomain(couple_l3=True), 2)
@example([(6, 4), (4, 6)], 2, False, ThetaDomain(), 3)
@example([(7, 5), (2, 9)], 1, True, ThetaDomain(couple_l3=True), 4)
# on this input seeding by matrix product picks another seed, and theta moves by ~0.1
@example([(8, 2)], 1, False, ThetaDomain(bounds=((-0.95, 0.0625), (-0.95, 0.125), (-0.95, 0.0625))), 0)
@settings(max_examples=60, deadline=None)
def test_lockstep_search_matches_reference(shapes, n, cross, domain, seed):
    # all rows of every shape searched at once must follow each row's own
    # search exactly
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(n) for b in range(n) if cross or a == b]
    groups = []
    for s1, s2 in shapes:
        freq = FrequencyGrid(s1, s2)
        f = all_periodograms(rng.normal(size=(s1, s2, n))).reshape(-1, n)
        groups.append((freq, np.array([contrast_weights(f[:, a] * np.conj(f[:, b]), freq) for a, b in pairs])))
    thetas, values, iters, moments = _estimate_rows(groups, domain)
    refs = [estimate_rows_one_by_one(weights, freq, domain) for freq, weights in groups]
    ref_thetas, ref_values, ref_iters = (np.concatenate(parts) for parts in zip(*refs))
    assert np.array_equal(thetas, ref_thetas)
    assert np.array_equal(iters, ref_iters)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(moments, [row.sum() for _, weights in groups for row in weights])
    # a returned theta, coupled or not, passes the stationarity check
    assert all(stationarity_check(th) for th in thetas)


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


def _count_searches(monkeypatch) -> list:
    """Record the (shape, rows) groups of every `_estimate_rows` call."""
    searches = []

    def counted(groups, domain):
        groups = list(groups)
        searches.append([((freq.s1, freq.s2), len(weights)) for freq, weights in groups])
        return _estimate_rows(groups, domain)

    monkeypatch.setattr(estimator_module, "_estimate_rows", counted)
    return searches


_SHAPES = [(5, 6), (6, 5), (7, 7)]
_PICKS = [(0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (1, 6)]


def test_estimate_many_searches_all_shapes_at_once(monkeypatch):
    coeff_sets = _coeff_sets(_SHAPES, _PICKS, depth=1)
    searches = _count_searches(monkeypatch)
    reports = estimate_many(coeff_sets, ThetaDomain())
    # two diagonal pairs of each of 3, 2 and 1 sets
    assert searches == [[((5, 6), 6), ((6, 5), 4), ((7, 7), 2)]]
    assert [r.n_sites for r in reports] == [30, 30, 30, 49, 30, 30]
    assert estimate_many([], ThetaDomain()) == []


@pytest.mark.parametrize("cross", [False, True])
def test_estimate_many_splits_searches_at_the_element_budget(monkeypatch, cross):
    coeff_sets = _coeff_sets(_SHAPES, _PICKS, depth=1)
    # the two diagonal pairs, and the cross pair (0, 1) once
    rows = 3 if cross else 2
    size = {shape: rows * FrequencyGrid(*shape).half_plane[1].size for shape in _SHAPES}
    sets = {(5, 6): 3, (6, 5): 2, (7, 7): 1}
    first_two = size[(5, 6)] * sets[(5, 6)] + size[(6, 5)] * sets[(6, 5)]
    domain = ThetaDomain(couple_l3=True)
    alone = [estimate_all(coeffs, domain, include_cross=cross) for coeffs in coeff_sets]
    a, b, c = (((5, 6), 3 * rows),), (((6, 5), 2 * rows),), (((7, 7), rows),)
    for budget, expected in (
        (1, [[*a], [*b], [*c]]),
        (first_two, [[*a, *b], [*c]]),
        (first_two - 1, [[*a], [*b, *c]]),
    ):
        monkeypatch.setattr(estimator_module, "_SEARCH_BLOCK", budget)
        searches = _count_searches(monkeypatch)
        reports = estimate_many(coeff_sets, domain, include_cross=cross)
        monkeypatch.undo()
        assert searches == expected
        for report, ref in zip(reports, alone, strict=True):
            assert report.estimates == ref.estimates
            assert np.array_equal(report.eigenvalues1, ref.eigenvalues1)
            assert np.array_equal(report.eigenvalues2, ref.eigenvalues2)


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
        expected = contrast_weights(periodogram(mc.coeffs[:, :, est.row]), freq).sum()
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
    # the (a, b) and (b, a) rows carry identical weights, so one fit serves both
    f = all_periodograms(mc.coeffs).reshape(-1, n)
    freq = FrequencyGrid(10, 10)
    for a in range(n):
        for b in range(a):
            ab, ba = (contrast_weights(f[:, i] * np.conj(f[:, j]), freq) for i, j in ((a, b), (b, a)))
            assert np.array_equal(ab, ba)
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
