import concurrent.futures
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coxmra.estimator as estimator_module
import coxmra.spectral as spectral_module
from coxmra import (
    FunctionalField,
    SarhSpec,
    SpatialGrid,
    ThetaDomain,
    TimeGrid,
    default_variance_profile,
    estimate_all,
    simulate,
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
from conftest import FACET_BATCHES, LAMBDA1, LAMBDA2, ar_field, facet_batch
from oracles import (
    column_periodogram,
    contrast_weights,
    EDGE_FLOATS,
    empirical_contrast,
    estimate_eta_moment,
    estimate_node,
    eigengap,
    estimate_rows_one_by_one,
    fold,
    innovation_variance,
    lexicographic_argmin,
    projection_operators,
    second_moment,
    table_csv,
    top_eigenvectors,
)
from coxmra.spectral import (
    FrequencyGrid,
    _contrast,
    _contrast_derivatives,
    _log_psi,
    _symbol_coefficients,
    _symbol_sq,
    all_periodograms,
    stationarity_check,
)
from coxmra.wavelet import MultiscaleCoefficients, field_dwt
from coxmra.grids import detrend
from coxmra.predict import _training_block, interior_sites


def verify_report(report: EstimationReport, coeffs: MultiscaleCoefficients) -> float:
    """Re-evaluate the contrast of every reported optimum on its row's own
    periodogram; returns the largest absolute discrepancy (guards against
    stale caching)."""
    worst = 0.0
    for est in report.estimates:
        val = empirical_contrast(column_periodogram(coeffs.coeffs[:, :, est.row]), est.theta)
        worst = max(worst, abs(val - est.contrast))
    return worst


def _ar_periodogram(theta, s1, s2, seed, sigma2=1.0):
    rng = np.random.default_rng(seed)
    x = ar_field(theta, sigma2, SpatialGrid(s1, s2), 64, rng)
    return column_periodogram(x - x.mean())


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


_INTERVAL = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(sorted)


@given(st.booleans(), st.tuples(st.one_of(_INTERVAL, st.floats(-0.9, 0.9).map(lambda v: (v, v))),
                                _INTERVAL, _INTERVAL))
@settings(max_examples=100, deadline=None)
@example(False, ((0.2, 0.2), (-0.5, 0.5), (0.1, 0.3)))
def test_domain_candidates_ascend_strictly(couple, bounds):
    # one candidate per grid point, strictly increasing lexicographically,
    # on any box, zero-width intervals included, so the first tied index
    # is the lexicographically least theta
    try:
        cand = ThetaDomain(bounds, couple).candidates()
    except ValueError:  # no stationary grid point in the box
        return
    assert all(tuple(a) < tuple(b) for a, b in zip(cand[:-1], cand[1:]))
    if (couple, bounds) == (False, ((0.2, 0.2), (-0.5, 0.5), (0.1, 0.3))):
        assert len(cand) == 119


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


def _exhaustive_seeds(folded, scale, table, domain):
    """The seed rule over every candidate: each row's pairwise contrast at
    every candidate, summed as `_contrast` sums a pair, and the tie rule."""
    cand = domain.candidates()
    log_psi = _log_psi(_symbol_sq(_symbol_coefficients(cand), table[0]), table[1])
    values = np.array([-(row * log_psi).sum(axis=-1) for row in folded])
    return lexicographic_argmin(values, cand, scale), values


def _meeting_rows(folded, scale, values, offsets):
    """Rows on the segment between each two adjacent rows of folded weights
    whose least contrasts are at different candidates a and b, where the
    two candidates' contrasts meet, and at relative `offsets` from there:
    contrasts are linear in the weights, so a and b tie up to rounding at
    the meeting point and part by about the offset beside it."""
    rows, scales = [folded], [scale]
    for i in range(len(folded) - 1):
        a, b = values[i : i + 2].argmin(axis=1)
        if a != b:
            gaps = values[i : i + 2, b] - values[i : i + 2, a]  # c_b - c_a, > 0 and < 0
            t = gaps[0] / (gaps[0] - gaps[1]) * (1 + offsets)
            rows.append((1 - t)[:, None] * folded[i] + t[:, None] * folded[i + 1])
            scales.append((1 - t) * scale[i] + t * scale[i + 1])
    return np.vstack(rows), np.concatenate(scales)


@pytest.mark.parametrize("domain", [ThetaDomain(), ThetaDomain(couple_l3=True)])
def test_seed_is_the_exhaustive_argmin(ranking_tables, domain):
    # the ranked, partly re-scored seed, from a kept table and from blocks
    # that keep none, is the exhaustive one on every lattice shape from
    # 2 x 2 to 16 x 16 and on 50 x 50, on random rows and on rows where two
    # candidates' contrasts meet (`_meeting_rows`), at amplitudes scaled by
    # 2^-40 and 2^40 too
    rng = np.random.default_rng(42)
    tied = near = 0
    for s1, s2 in [(a, b) for a in range(2, 17) for b in range(2, 17)] + [(50, 50)]:
        freq = FrequencyGrid(s1, s2)
        folded = estimator_module._row_weights(freq, [rng.normal(size=(s1, s2, 4))])
        scale = folded.sum(axis=1)
        folded, scale = _meeting_rows(folded, scale, _exhaustive_seeds(folded, scale, freq.half_plane, domain)[1],
                                      np.array([0.0, 1e-15, -1e-15, 1e-14, -1e-14, 1e-13, -1e-13]))
        seeds = estimator_module._seeds(folded, scale, freq, domain)
        assert np.array_equal(_cold_seeds(folded, scale, freq, domain), seeds)
        for k in (0, -40, 40):
            h, s = np.ldexp(folded, k), np.ldexp(scale, k)
            scored = _contrast(h, domain._candidate_coefs, freq.half_plane, estimator_module._TIE * s)
            exhaustive, values = _exhaustive_seeds(h, s, freq.half_plane, domain)
            assert np.array_equal(estimator_module._seeds(h, s, freq, domain), exhaustive)
            assert np.array_equal(seeds, exhaustive)
            # every pair scored has the exhaustive bits, and every pair
            # within the tie tolerance of its row's least is scored
            gap = values - values.min(axis=1, keepdims=True)
            tolerance = estimator_module._TIE * s[:, None]
            assert np.array_equal(scored[np.isfinite(scored)], values[np.isfinite(scored)])
            assert np.isfinite(scored[gap <= tolerance]).all()
        # any `within` scores every pair within it of its row's least: a
        # wide one, and 0, whose pairs are each row's exact least even where
        # the ranking's rounding puts another candidate first
        for within in np.median(gap, axis=1), np.zeros(len(h)):
            scored = _contrast(h, domain._candidate_coefs, freq.half_plane, within)
            assert np.isfinite(scored[gap <= within[:, None]]).all()
        tied += ((gap <= tolerance).sum(axis=1) > 1).sum()
        near += ((tolerance < gap) & (gap <= 10 * tolerance)).any(axis=1).sum()
    # the rows exercise real ties and near misses of the tolerance
    assert tied > 0 and near > 0


@pytest.fixture
def ranking_tables(monkeypatch):
    """An empty store of kept ranking tables for the test alone."""
    tables = OrderedDict()
    monkeypatch.setattr(spectral_module, "_ranking_tables", tables)
    return tables


def _cold_seeds(folded, scale, freq: FrequencyGrid, domain: ThetaDomain):
    """`_seeds` ranked a block at a time with no table kept, the path of a
    table over the budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral_module, "_RANKING_BUDGET", 0)
        return estimator_module._seeds(folded, scale, freq, domain)


def _seed_rows(freq: FrequencyGrid, domain: ThetaDomain, rng):
    """Folded weights of four random fields on `freq`, with the rows where
    two candidates' contrasts meet (`_meeting_rows`), and their weight sums."""
    folded = estimator_module._row_weights(freq, [rng.normal(size=(freq.s1, freq.s2, 4))])
    scale = folded.sum(axis=1)
    return _meeting_rows(folded, scale, _exhaustive_seeds(folded, scale, freq.half_plane, domain)[1],
                         np.array([0.0, 1e-15, -1e-15, 1e-14, -1e-14, 1e-13, -1e-13]))


@pytest.mark.parametrize("domain", [ThetaDomain(), ThetaDomain(couple_l3=True)])
def test_kept_ranking_tables_give_cold_seeds(ranking_tables, domain):
    # shapes that share N' (4 x 12 and 12 x 4; 3 x 7, 4 x 5 and 7 x 3),
    # seeded one after another three times (from the tables their first
    # use builds, then from the tables kept) each get the seeds of fresh
    # blocks, which are the exhaustive ones
    shapes = [(4, 12), (12, 4), (3, 7), (4, 5), (7, 3)]
    freqs = [FrequencyGrid(*shape) for shape in shapes]
    sizes = [freq.half_plane[1].size for freq in freqs]
    assert sizes[0] == sizes[1] and sizes[2] == sizes[3] == sizes[4]
    rng = np.random.default_rng(7)
    rows = [_seed_rows(freq, domain, rng) for freq in freqs]
    cold = []
    for freq, (folded, scale) in zip(freqs, rows):
        cold.append(_cold_seeds(folded, scale, freq, domain))
        assert np.array_equal(cold[-1], _exhaustive_seeds(folded, scale, freq.half_plane, domain)[0])
    assert not ranking_tables
    kept = None
    for _ in range(3):
        for freq, (folded, scale), seeds in zip(freqs, rows, cold):
            assert np.array_equal(estimator_module._seeds(folded, scale, freq, domain), seeds)
        # a shape's first use builds and keeps its table, and later uses read it
        tables = [table[0] for table in ranking_tables.values()]
        assert all(a is b for a, b in zip(tables, kept or tables))
        kept = tables
    assert list(ranking_tables) == [(shape, domain) for shape in shapes]


def test_fits_from_a_kept_ranking_table_are_the_cold_fits(ranking_tables, monkeypatch):
    # a fit whose seeds rank against the kept table has the bits of the fit
    # that built it and of a fit ranked a block at a time, which keeps nothing
    x = np.random.default_rng(4).normal(size=(9, 14, 4))
    coeffs = MultiscaleCoefficients(SpatialGrid(9, 14), 1, 2, x)
    for cross in (False, True):
        ranking_tables.clear()
        with monkeypatch.context() as patch:
            patch.setattr(spectral_module, "_RANKING_BUDGET", 0)
            cold = estimate_all(coeffs, ThetaDomain(), cross)
        assert not ranking_tables
        built, warm = (estimate_all(coeffs, ThetaDomain(), cross) for _ in range(2))
        assert list(ranking_tables) == [((9, 14), ThetaDomain())]
        assert [vars(e) for e in cold.estimates] == [vars(e) for e in built.estimates] == [vars(e) for e in warm.estimates]


@pytest.mark.parametrize("domain", [ThetaDomain(), ThetaDomain(couple_l3=True)])
@pytest.mark.parametrize("shape", [(3, 4), (5, 9), (16, 16), (50, 50)])
def test_contrast_from_a_kept_table_is_the_blockwise_contrast(ranking_tables, monkeypatch, domain, shape):
    # `_contrast` with a tie tolerance, from the table its first call keeps,
    # from that table kept, from fresh blocks, and from fresh blocks of one
    # candidate each (whose early blocks sum pairs the final least puts out
    # of reach), gives equal arrays with the same +inf pattern, at the seed
    # tolerance and at a wide one
    freq = FrequencyGrid(*shape)
    folded, scale = _seed_rows(freq, domain, np.random.default_rng(sum(shape)))
    coefs = domain._candidate_coefs
    for within in estimator_module._TIE * scale, 1e-3 * scale:
        ranking_tables.clear()
        fresh = _contrast(folded, coefs, freq.half_plane, within)
        built, kept = (_contrast(folded, coefs, freq.half_plane, within, (shape, domain)) for _ in range(2))
        assert list(ranking_tables) == [(shape, domain)]
        assert np.isfinite(fresh).any(axis=1).all()
        assert np.array_equal(built, fresh) and np.array_equal(kept, fresh)
        with monkeypatch.context() as patch:
            patch.setattr(spectral_module, "_SCORE_BLOCK", 1)
            assert np.array_equal(_contrast(folded, coefs, freq.half_plane, within), fresh)
    # the seed tolerance leaves most pairs unsummed
    scored = np.isfinite(_contrast(folded, coefs, freq.half_plane, estimator_module._TIE * scale))
    assert scored.sum() < scored.size / 2


def test_ranking_tables_are_keyed_by_shape_and_domain_value(ranking_tables):
    # equal domains, built apart, share one table; another coupling or
    # other bounds, or another shape, get their own
    freq = FrequencyGrid(6, 5)
    folded, scale = _seed_rows(freq, ThetaDomain(), np.random.default_rng(0))
    other_bounds = ThetaDomain(((-0.9, 0.95), (-0.95, 0.95), (-0.95, 0.95)))
    domains = [ThetaDomain(), ThetaDomain(((-0.95, 0.95),) * 3), ThetaDomain(couple_l3=True), other_bounds,
               ThetaDomain(((-1, 1),) * 3), ThetaDomain(((-1.0, 1.0),) * 3)]
    for domain in domains:
        estimator_module._seeds(folded, scale, freq, domain)
    assert list(ranking_tables) == [((6, 5), d) for d in [ThetaDomain(), ThetaDomain(couple_l3=True), other_bounds,
                                                           ThetaDomain(((-1.0, 1.0),) * 3)]]
    estimator_module._seeds(folded, scale, FrequencyGrid(5, 6), ThetaDomain())
    assert len(ranking_tables) == 5


def test_kept_ranking_tables_stay_within_the_budget(ranking_tables):
    # after seeding every shape from 2 x 2 to 40 x 40 twice in a row the
    # kept log-density rows hold at most 4 MiB, the last shape's table is
    # kept whole, the kept ones are the most recent that fit the budget
    # together, and one seeded again becomes the most recent
    domain, rng = ThetaDomain(), np.random.default_rng(1)
    recent, size = [], 0
    for s1 in range(40, 1, -1):
        for s2 in range(40, 1, -1):
            size += len(domain.candidates()) * FrequencyGrid(s1, s2).half_plane[1].size
            if size <= spectral_module._RANKING_BUDGET:
                recent.insert(0, ((s1, s2), domain))
    for s1 in range(2, 41):
        for s2 in range(2, 41):
            freq = FrequencyGrid(s1, s2)
            folded = rng.random((1, freq.half_plane[1].size))
            for _ in range(2):
                estimator_module._seeds(folded, folded.sum(axis=1), freq, domain)
                assert sum(rows.nbytes for rows, _ in ranking_tables.values()) <= 4 << 20
            rows, peaks = ranking_tables[(s1, s2), domain]
            assert rows.shape == (len(domain.candidates()), folded.shape[1]) and peaks.shape == rows.shape[:1]
    assert list(ranking_tables) == recent and len(recent) > 2
    first = next(iter(ranking_tables))
    freq = FrequencyGrid(*first[0])
    estimator_module._seeds(np.ones((1, freq.half_plane[1].size)), np.ones(1), freq, domain)
    assert next(reversed(ranking_tables)) == first


def test_threads_share_the_kept_ranking_tables(ranking_tables):
    # six threads on two cores seed the 36 shapes from 20 x 20 to 25 x 25,
    # whose tables together hold about four times the budget, three times
    # each, with a short switch interval: no thread fails (unlocked, the
    # eviction's walk over the tables sees them change), every seed is the
    # cold one, and the kept tables stay within the budget
    shapes = [(s1, s2) for s1 in range(20, 26) for s2 in range(20, 26)]
    freqs = [FrequencyGrid(*shape) for shape in shapes]
    assert sum(231 * freq.half_plane[1].size for freq in freqs) > 1.5 * spectral_module._RANKING_BUDGET
    rng, domain = np.random.default_rng(5), ThetaDomain()
    rows = [rng.random((1, freq.half_plane[1].size)) for freq in freqs]
    cold = [_cold_seeds(h, h.sum(axis=1), freq, domain) for freq, h in zip(freqs, rows)]
    wrong = []

    def seed_all(offset: int) -> None:
        for k in range(3 * len(shapes)):
            j = (7 * k + offset) % len(shapes)
            seeds = estimator_module._seeds(rows[j], rows[j].sum(axis=1), freqs[j], domain)
            if not np.array_equal(seeds, cold[j]):
                wrong.append(shapes[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            futures = [pool.submit(seed_all, offset) for offset in range(6)]
            for future in futures:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert sum(rows.nbytes for rows, _ in ranking_tables.values()) <= 4 << 20


def test_ranking_table_over_the_budget_is_blocked(ranking_tables):
    # a 120 x 120 table (231 candidates x 7,081 points) is over the budget:
    # seeding keeps nothing, and the peak holds a few `_SCORE_BLOCK` blocks
    # of float64 (the symbol block, its log-density, the pairs summed and
    # the block product), never the 13 MB table.  The slack covers the
    # rows and the (rows, candidates) outputs.
    freq, domain = FrequencyGrid(120, 120), ThetaDomain()
    folded, scale = _seed_rows(freq, domain, np.random.default_rng(3))
    assert len(domain.candidates()) * folded.shape[1] > spectral_module._RANKING_BUDGET
    seeds = estimator_module._seeds(folded, scale, freq, domain)  # warm the grid
    tracemalloc.start()
    try:
        again = estimator_module._seeds(folded, scale, freq, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, seeds)
    assert not ranking_tables
    assert peak <= 6 * 8 * spectral_module._SCORE_BLOCK + 128 * 1024, peak


def test_lexicographic_tie_break_deterministic():
    # values within 1e-15 times the row's scale of the minimum tie; the
    # smallest lexicographic theta among the tied wins (the reference rule
    # sorts any point set)
    pts = np.array([(0.1, 0.0, 0.0), (-0.1, 0.0, 0.0), (-0.1, 0.2, 0.0), (-0.1, 0.0, -0.3)])
    # exact ties, decided by the first, then the later coordinates
    assert lexicographic_argmin(np.array([1.0, 1.0]), pts[:2], 1.0) == 1
    assert lexicographic_argmin(np.full(4, 2.0), pts, 1.0) == 3
    # a gap of 1e-15 is a tie at scale 1, a gap of 1e-14 is not; at
    # scale 16 it is
    assert lexicographic_argmin(np.array([1e-15, 0.0]), pts[1::-1], 1.0) == 0
    assert lexicographic_argmin(np.array([1e-14, 0.0]), pts[1::-1], 1.0) == 1
    assert lexicographic_argmin(np.array([1e-14, 0.0]), pts[1::-1], 16.0) == 0
    # a strictly smaller value wins whatever its theta
    assert lexicographic_argmin(np.array([0.5, 0.3, 0.4]), pts[:3], 1.0) == 1
    # many rows at once over candidates in any order: each row's answer is
    # its own, row by row and by brute force over its ties
    rng = np.random.default_rng(0)
    cand = ThetaDomain().candidates()
    perm = rng.permutation(len(cand))
    values = 1.0 + rng.choice([0.0, 5e-16, 1e-15, 3e-15, 1.0], size=(40, len(cand)), p=[0.02, 0.02, 0.02, 0.04, 0.9])
    scale = rng.choice([0.5, 1.0, 4.0], size=40)
    rows = lexicographic_argmin(values[:, perm], cand[perm], scale)
    assert rows.shape == (40,)
    assert rows.tolist() == [lexicographic_argmin(row, cand[perm], s) for row, s in zip(values[:, perm], scale)]
    assert rows.tolist() == [min(np.flatnonzero(row <= row.min() + 1e-15 * s), key=lambda j: tuple(cand[perm][j]))
                             for row, s in zip(values[:, perm], scale)]
    # the library's rule over the domain's sorted candidates, the first
    # tied index, picks the same candidates
    assert np.array_equal(perm[rows], _lexicographic_argmin(values, scale))
    assert _lexicographic_argmin(values[0], scale[0]) == perm[rows[0]]


@pytest.mark.parametrize("shape", [(5, 5), (12, 7), (9, 11)])
def test_fit_is_scale_free(shape):
    # a field and the same field times 2^-20 give the same thetas, bit for
    # bit: every contrast, derivative and tie tolerance scales exactly.  At
    # amplitude 2^-5 the smaller field's contrasts are near 1e-15, where an
    # absolute tie tolerance would tie every seed candidate
    lam1, lam2 = LAMBDA1[:3], LAMBDA2[:3]
    spec = SarhSpec(lam1, lam2, default_variance_profile(lam1, lam2), TimeGrid(2))
    for seed in (1, 2, 3):
        values = simulate(spec, SpatialGrid(*shape), 32, seed).values * 2.0**-5
        fld, small = (FunctionalField(SpatialGrid(*shape), TimeGrid(2), values * s) for s in (1.0, 2.0**-20))
        for include_cross in (False, True):
            thetas = [
                [e.theta for e in estimate_all(field_dwt(detrend(f)[0], 1), ThetaDomain(), include_cross).estimates]
                for f in (fld, small)
            ]
            assert thetas[0] == thetas[1], (seed, include_cross)


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


def _tight_normals(theta, domain: ThetaDomain, tol: float = 1e-9) -> np.ndarray:
    """Outward normals, in the free coordinates, of the domain facets a
    fitted theta lies on: box faces, and the stationarity edge (the facets
    of the |theta|_1 ball, or |th1| and |th2| in the coupled box)."""
    free = 2 if domain.couple_l3 else 3
    th = np.asarray(theta)[:free]
    normals = []
    for i, (lo, hi) in enumerate(domain.bounds[:free]):
        for sign, bound in ((-1.0, lo), (1.0, hi)):
            if sign * (th[i] - bound) >= -tol:
                normals.append(sign * np.eye(free)[i])
    if domain.couple_l3:
        normals += [np.sign(th[i]) * np.eye(free)[i] for i in range(free) if abs(th[i]) >= _EDGE - tol]
    else:
        normals += [np.array(s) for s in itertools.product((-1.0, 1.0), repeat=3) if np.dot(s, th) >= _EDGE - tol]
    return np.array(normals).reshape(-1, free)


def _kkt_residual(grad: np.ndarray, normals: np.ndarray) -> float:
    """Least |grad + N^T lambda| over the subsets N of the tight normals
    whose least-squares multipliers lambda are all nonnegative: zero at a
    constrained minimum, |grad| in the interior."""
    best = np.linalg.norm(grad)
    for k in range(1, len(normals) + 1):
        for subset in itertools.combinations(normals, k):
            n = np.array(subset)
            lam = np.linalg.lstsq(n.T, -grad, rcond=None)[0]
            if (lam >= 0).all():
                best = min(best, np.linalg.norm(grad + n.T @ lam))
    return best


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
# a tight box, where seeding by matrix product once picked another seed
@example([(8, 2)], 1, False, ThetaDomain(bounds=((-0.95, 0.0625), (-0.95, 0.125), (-0.95, 0.0625))), 0)
# tiny lattices: half planes of 1 to 12 points
@example([(2, 2), (3, 4), (5, 7)], 2, True, ThetaDomain(), 5)
@example([(2, 3), (4, 5), (3, 3)], 2, False, ThetaDomain(couple_l3=True), 6)
@settings(max_examples=60, deadline=None)
def test_lockstep_search_is_optimal(shapes, n, cross, domain, seed):
    # every row of every shape, searched at once, ends within the cap at a
    # constrained stationary point no worse than the pattern search's
    rng = np.random.default_rng(seed)
    groups = []
    for s1, s2 in shapes:
        freq = FrequencyGrid(s1, s2)
        x = rng.normal(size=(s1, s2, n))
        if cross:
            # the include_cross rows: score fields in the empirical eigenbasis
            x = x @ estimator_module._eigenbasis(MultiscaleCoefficients(SpatialGrid(s1, s2), 0, n - 1, x)).vectors
        groups.append((freq, estimator_module._row_weights(freq, [x])))
    thetas, values, iters, moments = _estimate_rows(groups, domain)
    refs = [estimate_rows_one_by_one(weights, freq, domain) for freq, weights in groups]
    ref_values = np.concatenate([ref[1] for ref in refs])
    assert np.all(values <= ref_values + 1e-12 * np.abs(ref_values))
    assert np.all(iters < estimator_module._MAX_EVALS)
    assert np.array_equal(moments, [row.sum() for _, weights in groups for row in weights])
    # a returned theta, coupled or not, is in the domain and passes the stationarity check
    assert domain.contains(thetas).all()
    assert all(stationarity_check(th) for th in thetas)
    rows = iter(zip(thetas, values))
    for freq, weights in groups:
        for folded in weights:
            theta, value = next(rows)
            group = [(folded[None], folded.sum(keepdims=True), freq.half_plane)]
            contrast, grad, _ = _contrast_derivatives(group, theta[None], domain.couple_l3)
            assert contrast[0] == value
            # zero gradient inside, nonnegative multipliers on the facets
            assert _kkt_residual(grad[0], _tight_normals(theta, domain)) <= 1e-6 * (folded.sum() + abs(value))


@pytest.mark.parametrize("domain, truths, kinds", FACET_BATCHES)
def test_newton_batch_fits_each_row_as_alone(domain, truths, kinds):
    # one lockstep batch of two lattice shapes that mixes rows holding no
    # facet with rows ending on facets: each row's theta, contrast and
    # evaluations are those of the row fitted alone
    groups = facet_batch(domain, truths)
    thetas, values, evals, _ = _estimate_rows(groups, domain)
    alone = [_estimate_rows([(freq, weights[i : i + 1])], domain)
             for freq, weights in groups for i in range(len(weights))]
    for row, (theta, value, evaluations, _) in enumerate(alone):
        assert np.array_equal(thetas[row], theta[0])
        assert values[row] == value[0] and evals[row] == evaluations[0]
    # the facets the rows end on
    found = set()
    for th in np.abs(thetas):
        if domain.couple_l3:
            held = {"edge"} if th[:2].max() >= _EDGE - 1e-9 else set()
        else:
            held = {"box"} if np.isclose(th, 0.5, rtol=0, atol=1e-12).any() else set()
            held |= {"l1"} if th.sum() >= _EDGE - 1e-9 else set()
        found |= held or {"free"}
    assert found == kinds


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


def _row_weight_groups():
    """Sets of one lattice shape as `_row_weights` receives them: the
    mc_study crops (10, 30, 50) of two 50 x 50 depth-4 replications, and
    every training block a 12 x 12 LOO run fits at radius 1, views into
    one coefficient array."""
    rng = np.random.default_rng(8)
    reps = rng.normal(size=(2, 50, 50, 16))
    groups = [[field_dwt(FunctionalField(SpatialGrid(s, s), TimeGrid(4), x[:s, :s]), 1).coeffs for x in reps]
              for s in (10, 30, 50)]
    c = rng.normal(size=(12, 12, 2))
    blocks = {}
    for site in interior_sites(12, 12):
        rs, cs = _training_block(12, 12, site, 1)
        blocks.setdefault((rs.stop - rs.start, cs.stop - cs.start), {})[rs.start, cs.start] = c[rs, cs]
    return groups + [list(sets.values()) for sets in blocks.values()]


def test_stacked_fdft_matches_per_set_calls():
    # `_row_weights` takes one fDFT over the columns of every set of a
    # shape; each column keeps the bits of its own set's call, and each
    # weight row and its sum (the eta moment) the bits of the row alone
    for sets in _row_weight_groups():
        freq = FrequencyGrid(*sets[0].shape[:2])
        stacked = all_periodograms(np.concatenate(sets, axis=-1), freq)
        assert stacked.tobytes() == np.concatenate([all_periodograms(x, freq) for x in sets]).tobytes()
        weights = estimator_module._row_weights(freq, sets)
        rows = np.array([row * freq.half_plane[1] for row in stacked])
        assert weights.flags.c_contiguous and weights.tobytes() == rows.tobytes()
        assert weights.sum(axis=1).tobytes() == np.array([row.sum() for row in rows]).tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (2, 8), (7, 2), (5, 9), (9, 6), (6, 10), (13, 13), (16, 11)])
def test_row_weights_are_the_folded_full_plane_weights(shape):
    # the half-plane weights from one real FFT are the full plane's
    # periodogram times eta, folded: odd and even sides, 2 x s2 strips,
    # and (pi, pi), which is its own partner, wherever both sides are even
    freq = FrequencyGrid(*shape)
    x = np.random.default_rng(sum(shape)).normal(size=(*shape, 3))
    weights = estimator_module._row_weights(freq, [x])
    expected = np.array([fold(contrast_weights(column_periodogram(x[:, :, a]), freq), freq) for a in range(3)])
    assert weights.shape == expected.shape
    assert np.all(np.abs(weights - expected) <= 1e-14 * np.abs(expected))


def test_estimate_many_searches_all_shapes_at_once(monkeypatch):
    coeff_sets = _coeff_sets(_SHAPES, _PICKS, depth=1)
    searches = _count_searches(monkeypatch)
    reports = estimate_many(coeff_sets, ThetaDomain())
    # two diagonal pairs of each of 3, 2 and 1 sets
    assert searches == [[((5, 6), 6), ((6, 5), 4), ((7, 7), 2)]]
    assert [r.n_sites for r in reports] == [30, 30, 30, 49, 30, 30]
    assert estimate_many([], ThetaDomain()) == []


def test_newton_round_makes_one_derivative_call(monkeypatch):
    # a round of the lockstep search evaluates its moving rows of every
    # lattice shape in one `_contrast_derivatives` call
    calls = {"derivatives": 0, "evaluate": 0}
    derivatives, newton = estimator_module._contrast_derivatives, estimator_module._newton

    def counted_derivatives(*args):
        calls["derivatives"] += 1
        return derivatives(*args)

    def counted_newton(evaluate, *args):
        def counted_evaluate(*rows_thetas):
            calls["evaluate"] += 1
            return evaluate(*rows_thetas)

        return newton(counted_evaluate, *args)

    monkeypatch.setattr(estimator_module, "_contrast_derivatives", counted_derivatives)
    monkeypatch.setattr(estimator_module, "_newton", counted_newton)
    searches = _count_searches(monkeypatch)
    estimate_many(_coeff_sets(_SHAPES, _PICKS, depth=1), ThetaDomain())
    assert [len(groups) for groups in searches] == [3]
    assert calls["evaluate"] > 1
    assert calls["derivatives"] == calls["evaluate"]


@pytest.mark.parametrize("cross", [False, True])
def test_estimate_many_splits_searches_at_the_element_budget(monkeypatch, cross):
    coeff_sets = _coeff_sets(_SHAPES, _PICKS, depth=2)
    # the four diagonal rows, or the k = floor(ln 30) = floor(ln 49) = 3 eigenbasis rows
    rows = 3 if cross else 4
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
        expected = contrast_weights(column_periodogram(mc.coeffs[:, :, est.row]), freq).sum()
        assert est.eta_moment == pytest.approx(expected, rel=1e-12, abs=0)


def test_estimate_all_include_cross(reference_spec):
    from coxmra import simulate

    fld = simulate(reference_spec, SpatialGrid(10, 10), 64, seed=22)
    res, _ = detrend(fld)
    mc = field_dwt(res, 3)
    report = estimate_all(mc, ThetaDomain(), include_cross=True)
    k = truncation_parameter(100)
    # one fitted row per basis vector
    assert [e.row for e in report.estimates] == list(range(k))
    basis = report.basis
    lam, vectors = top_eigenvectors(mc.coeffs, k)
    np.testing.assert_allclose(basis.eigenvalues, lam[:k], rtol=1e-12)
    assert basis.eigengap == pytest.approx(eigengap(lam, k), rel=1e-9)
    # the same eigenvectors up to sign, and eigenvectors of the site-loop C
    np.testing.assert_allclose(np.abs((basis.vectors * vectors).sum(axis=0)), 1.0, rtol=1e-9)
    c = second_moment(mc.coeffs)
    np.testing.assert_allclose(c @ basis.vectors, basis.vectors * basis.eigenvalues, rtol=0, atol=1e-12 * lam[0])
    # each row is the fit of its score field's own periodogram
    scores = mc.coeffs @ basis.vectors
    for est in report.estimates:
        assert abs(empirical_contrast(column_periodogram(scores[:, :, est.row]), est.theta) - est.contrast) < 1e-10
    ops = np.stack([op.matrix for op in report.operators])
    assert np.array_equal(ops, ops.transpose(0, 2, 1))
    expected = projection_operators(basis.vectors, [e.theta for e in report.estimates])
    np.testing.assert_allclose(ops, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cross_fit_beats_diagonal_on_the_loo_cross_design(seed):
    # the LOO benchmark's cross-fit design: 12 x 12, depth 3, j0 1, five
    # components, the coupled box
    from coxmra import simulate
    from coxmra.config import RunConfig
    from coxmra.predict import predict_coeffs
    from coxmra.wavelet import normalized_eigenfunctions, operator_to_wavelet

    cfg = RunConfig.model_validate({
        "grid": {"s1": 12, "s2": 12}, "time": {"depth": 3, "j0": 1}, "model": {"truncation": 5},
        "estimation": {"include_cross": True, "couple_l3": True}, "simulation": {"seed": seed},
    })
    spec = cfg.sarh_spec()
    phi = normalized_eigenfunctions(spec.time, spec.truncation)
    truth = np.stack([operator_to_wavelet(lam, phi, spec.time, 1).matrix
                      for lam in (spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)])
    fld = simulate(spec, cfg.spatial_grid(), cfg.simulation.burn_in, seed)
    mc = field_dwt(detrend(fld)[0], 1)
    mse, residual = {}, {}
    for cross in (False, True):
        report = estimate_all(mc, cfg.theta_domain(), include_cross=cross)
        mse[cross] = np.mean((np.stack([op.matrix for op in report.operators]) - truth) ** 2)
        pred = predict_coeffs(mc, report)
        residual[cross] = np.mean((mc.coeffs - pred)[1:, 1:] ** 2)
    assert mse[True] < mse[False]
    # in-sample one-step residuals over seeds 1-10 range from 0.974 to 1.031 times diagonal-only's
    assert residual[True] <= 1.05 * residual[False]


@pytest.mark.parametrize("cross", [False, True])
def test_report_eigenvalues_are_computed_on_first_read(monkeypatch, cross):
    # a fit computes no eigenvalues; the first read of each computes it once,
    # with the bits of the eager computation from the report's operators
    # and k = floor(ln 99) = 4
    coeffs = MultiscaleCoefficients(SpatialGrid(9, 11), 1, 3, np.random.default_rng(6).normal(size=(9, 11, 8)))
    eigs, calls = estimator_module.wavelet_to_operator_eigs, []

    def counted(op, k):
        calls.append(k)
        return eigs(op, k)

    monkeypatch.setattr(estimator_module, "wavelet_to_operator_eigs", counted)
    report = estimate_all(coeffs, ThetaDomain(), include_cross=cross)
    assert calls == [] and report.k == 4
    eager = [eigs(op, 4) for op in report.operators[:2]]
    second, first = report.eigenvalues2, report.eigenvalues1
    assert report.eigenvalues1 is first and report.eigenvalues2 is second
    assert calls == [4, 4]
    assert first.tobytes() == eager[0].tobytes() and second.tobytes() == eager[1].tobytes()


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
        assert back.estimates == fitted.estimates
        assert len(back.estimates) == (truncation_parameter(100) if cross else mc.n_coeffs)
        if cross:
            assert np.array_equal(back.basis.vectors, fitted.basis.vectors)
            assert np.array_equal(back.basis.eigenvalues, fitted.basis.eigenvalues)
            assert back.basis.eigengap == fitted.basis.eigengap
        else:
            assert back.basis is fitted.basis is None
        for op_back, op in zip(back.operators, fitted.operators, strict=True):
            assert np.array_equal(op_back.matrix, op.matrix)
        assert np.array_equal(back.eigenvalues1, fitted.eigenvalues1)
        assert np.array_equal(back.eigenvalues2, fitted.eigenvalues2)
    report = reports[False]
    save_eigenvalue_table(report, tmp_path / "eigs.csv")
    lines = (tmp_path / "eigs.csv").read_text().splitlines()
    assert lines[0] == "p,lambda1_hat,lambda2_hat"
    assert len(lines) == 1 + report.eigenvalues1.size
    # a report whose eigenvalues are already computed, as the edge floats
    edge = replace(report)
    vars(edge).update(eigenvalues1=np.array(EDGE_FLOATS), eigenvalues2=-np.array(EDGE_FLOATS))
    for rep in (report, edge):
        save_eigenvalue_table(rep, tmp_path / "eigs.csv")
        rows = [(p, l1, l2) for p, (l1, l2) in enumerate(zip(rep.eigenvalues1, rep.eigenvalues2), 1)]
        expected = table_csv(("p", "lambda1_hat", "lambda2_hat"), rows)
        assert (tmp_path / "eigs.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rank_deficient_cross_fit_keeps_rank_rows(tmp_path, rank):
    # coefficients of rank 1-3 in n = 8 at 99 sites: C's eigenvalues past
    # the rank are rounding noise, so the basis keeps `rank` of the
    # floor(ln 99) = 4 directions, and the report's k is its basis size,
    # through a save and a load
    rng = np.random.default_rng(rank)
    x = rng.normal(size=(9, 11, rank)) @ rng.normal(size=(rank, 8))
    assert np.linalg.matrix_rank(second_moment(x)) == rank < truncation_parameter(99)
    report = estimate_all(MultiscaleCoefficients(SpatialGrid(9, 11), 1, 3, x), ThetaDomain(), include_cross=True)
    assert [e.row for e in report.estimates] == list(range(rank))
    assert report.k == report.basis.vectors.shape[1] == report.eigenvalues1.size == rank
    path = tmp_path / "report.ndjson"
    save_report(report, path)
    back = load_report(path)
    assert back.k == rank and back.estimates == report.estimates
    assert np.array_equal(back.basis.vectors, report.basis.vectors)
    for op_back, op in zip(back.operators, report.operators, strict=True):
        assert np.array_equal(op_back.matrix, op.matrix)
    assert np.array_equal(back.eigenvalues1, report.eigenvalues1)


_BLAS_FIT = """
import sys
from pathlib import Path
import numpy as np
from coxmra import SarhSpec, SpatialGrid, ThetaDomain, TimeGrid, default_variance_profile, estimate_all, simulate
from coxmra.estimator import save_report
from coxmra.grids import detrend
from coxmra.wavelet import field_dwt

lam1, lam2 = np.array({lam1}), np.array({lam2})
spec = SarhSpec(lam1, lam2, default_variance_profile(lam1, lam2), TimeGrid(2), couple_l3=True)
residual, _ = detrend(simulate(spec, SpatialGrid(150, 150), 16, seed=5))
coeffs = field_dwt(residual, 0)
for cross in (False, True):
    path = Path(sys.argv[1] + str(cross))
    save_report(estimate_all(coeffs, ThetaDomain(couple_l3=True), include_cross=cross), path)
    sys.stdout.write(path.read_text())
"""


def test_fit_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A 150 x 150 fit, diagonal and in the eigenbasis, writes the same
    report bytes under one and two BLAS threads: its half plane, of 11,101
    points, is long enough for OpenBLAS to split a BLAS reduction over it."""
    code = _BLAS_FIT.format(lam1=LAMBDA1[:4].tolist(), lam2=LAMBDA2[:4].tolist())
    src = str(Path(estimator_module.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path / f"threads{threads}_")], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0] == reports[1]
