import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxmra import FrequencyGrid, divergence
from coxmra.spectral import (
    _contrast,
    _contrast_derivatives,
    _log_psi,
    _symbol_coefficients,
    _symbol_sq,
    all_periodograms,
    contrast_functional,
    stationarity_check,
)
from conftest import stationary_thetas
from oracles import (
    angles,
    column_periodogram,
    contrast_weights,
    empirical_contrast,
    fdft,
    fold,
    full_plane,
    log_psi,
    periodogram_direct,
)

sides = st.integers(min_value=2, max_value=16)


def test_frequency_grid_fundamental_domain():
    freq = FrequencyGrid(4, 6)
    w1, w2 = angles(freq)
    assert w1.min() > -np.pi
    assert w1.max() <= np.pi
    # the Nyquist angle maps to +pi, not -pi
    assert np.pi in w1
    # the half plane's eta measure is the Riemann sum at cell (2 pi)^2 / N
    cell = (2 * np.pi) ** 2 / 24
    assert freq.half_plane[1].sum() == pytest.approx(cell * np.sum(w1[:, None] ** 2 * w2[None, :] ** 2), rel=1e-12)


def test_fdft_constant_field():
    # at w = (2pi/s1, 2pi/s2) the transform of a constant field vanishes
    # (full period of the complex exponential)
    x = np.ones((4, 4))
    val = fdft(x, (2 * np.pi / 4, 2 * np.pi / 4))
    assert abs(val) < 1e-12
    assert abs(fdft(x, (0.0, 0.0))) == pytest.approx(16 / (2 * np.pi * 4))
    # the FFT path's periodogram vanishes at every off-axis Fourier frequency
    assert all_periodograms(x[:, :, None], FrequencyGrid(4, 4)).max() < 1e-24


def test_fdft_single_site_phase():
    # oracle: a unit impulse at site (p, q) = (1, 1) (0-based (0, 0))
    # transforms to e^{-i(w1 + w2)} / (2 pi sqrt(N))
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    w = (0.7, -1.1)
    expected = np.exp(-1j * (w[0] + w[1])) / (2 * np.pi * 3.0)
    assert fdft(x, w) == pytest.approx(expected, abs=1e-14)
    # the phase has unit modulus and cancels in |f|^2: the FFT path's
    # periodogram, which applies none, is |expected|^2 at every half-plane point
    np.testing.assert_allclose(all_periodograms(x[:, :, None], FrequencyGrid(3, 3)), abs(expected) ** 2, rtol=1e-14)


@given(sides, sides, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_periodogram_matches_direct_sum(s1, s2, seed):
    x, y = np.random.default_rng(seed).normal(size=(2, s1, s2))
    fast = column_periodogram(x)
    slow = periodogram_direct(x)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)
    # the library's half-plane periodogram, at each point and its mirror
    freq = FrequencyGrid(s1, s2)
    half = all_periodograms(x[:, :, None], freq)[0]
    for points in freq._pairs:
        np.testing.assert_allclose(half, slow.ravel()[points], rtol=1e-10, atol=1e-12)
    fast = column_periodogram(x, y)
    slow = periodogram_direct(x, y)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_cross_periodogram_conjugate_symmetry():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 6, 5))
    iab = column_periodogram(a, b)
    iba = column_periodogram(b, a)
    np.testing.assert_allclose(iab, np.conj(iba), atol=1e-12)


def test_diagonal_periodogram_nonnegative():
    x = np.random.default_rng(1).normal(size=(7, 7))
    tab = column_periodogram(x)
    assert tab.shape == (7, 7)
    assert np.all(tab.real >= -1e-15)
    np.testing.assert_allclose(tab.imag, 0.0, rtol=0, atol=1e-15)
    # the library's periodogram is real and nonnegative, one value a pair
    freq = FrequencyGrid(7, 7)
    half = all_periodograms(x[:, :, None], freq)
    assert half.shape == (1, freq.half_plane[1].size) and half.dtype == float and (half >= 0).all()


def test_all_periodograms_consistent():
    # every column of one call is the direct sum at each half-plane point
    # and at its mirror, and the full-plane table's cross pairs are too
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(5, 6, 3))
    freq = FrequencyGrid(5, 6)
    f = all_periodograms(coeffs, freq)
    assert f.shape == (3, freq.half_plane[1].size) and f.flags.c_contiguous
    for a, b in np.ndindex(3, 3):
        expected = periodogram_direct(coeffs[:, :, a], coeffs[:, :, b])
        np.testing.assert_allclose(column_periodogram(coeffs[:, :, a], coeffs[:, :, b]), expected, atol=1e-12)
        if a == b:
            for points in freq._pairs:
                np.testing.assert_allclose(f[a], expected.ravel()[points], atol=1e-12)


def test_periodogram_mean_relation():
    # Parseval-type oracle: the plain sum of the diagonal periodogram over
    # all Fourier frequencies equals sum(x^2) / (2 pi)^2
    x = np.random.default_rng(2).normal(size=(8, 5))
    tab = column_periodogram(x)
    assert np.sum(tab.real) == pytest.approx(
        np.sum(x**2) / (2 * np.pi) ** 2, rel=1e-10
    )
    # the half plane, each pair counted twice and (pi, pi) once, holds
    # every off-axis point of it
    freq = FrequencyGrid(8, 5)
    idx, mirror = freq._pairs
    half = all_periodograms(x[:, :, None], freq)[0]
    assert half @ np.where(idx != mirror, 2.0, 1.0) == pytest.approx(tab.real[1:, 1:].sum(), rel=1e-10)


@given(sides, sides, stationary_thetas)
@settings(max_examples=50, deadline=None)
def test_ar_symbol_sq_zero_frequency(s1, s2, th):
    # at w = 0 (the first flattened frequency) the symbol is 1 - th1 - th2 - th3
    inv = 1.0 / _symbol_sq(_symbol_coefficients(np.array([th])), full_plane(FrequencyGrid(s1, s2))[0])
    assert inv.shape == (1, s1 * s2)
    assert 1.0 / inv[0, 0] == pytest.approx((1 - sum(th)) ** 2, rel=1e-12)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_symbol_sq_bits_do_not_depend_on_row_layout(shape):
    # F-ordered rows and a transposed view give the bits of a C copy on
    # the half-plane table, whose products are the shortest
    cosines = FrequencyGrid(*shape).half_plane[0]
    coefs = _symbol_coefficients(np.random.default_rng(12).uniform(-0.3, 0.3, size=(400, 3)))
    expected = _symbol_sq(np.ascontiguousarray(coefs), cosines)
    for layout in (np.asfortranarray(coefs), np.ascontiguousarray(coefs.T).T):
        assert not layout.flags.c_contiguous
        assert np.array_equal(_symbol_sq(layout, cosines), expected)


def test_contrast_rejects_nonstationary():
    # the second triple is 9e-6 off the coupled curve, where the AR
    # polynomial vanishes inside the unit bidisk: no relative tolerance
    good = (0.3, 0.5, -0.15)
    tab = column_periodogram(np.random.default_rng(3).normal(size=(6, 6)))
    freq = FrequencyGrid(6, 6)
    for bad in ((0.7, 0.7, 0.0), (0.999, 0.999, -0.998001 + 9e-6)):
        with pytest.raises(ValueError):
            empirical_contrast(tab, bad)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError):
                divergence(*pair, freq)
            with pytest.raises(ValueError):
                contrast_functional(*pair, freq)
    # the exact coupled corner of the default box passes, and the
    # estimator's evaluator is finite there
    corner = (-0.95, -0.95, -0.9025)
    assert stationarity_check(corner)
    assert np.isfinite(empirical_contrast(tab, corner))
    folded = fold(contrast_weights(tab, freq), freq)
    assert np.isfinite(_contrast(folded[None, :], _symbol_coefficients(np.array([corner])), freq.half_plane, np.inf)).all()
    assert divergence(corner, corner, freq) == 0.0


def test_log_psi_rejects_a_zero_weight_integral():
    # a density whose eta-weighted integral is zero has no normalisation
    with pytest.raises(ValueError, match="^degenerate weight: eta-weighted density integrates to zero$"):
        _log_psi(np.ones((2, 3)), np.zeros(3))


@given(sides, sides)
@settings(max_examples=50, deadline=None)
def test_eta_weight_even_and_axis_zero(s1, s2):
    freq = FrequencyGrid(s1, s2)
    eta = full_plane(freq)[1].reshape(s1, s2)
    w1, w2 = angles(freq)
    np.testing.assert_allclose(eta, w1[:, None] ** 2 * w2[None, :] ** 2 * (2 * np.pi) ** 2 / (s1 * s2), rtol=1e-15)
    # zero frequency sits at index 0 of each axis
    assert not eta[0].any() and not eta[:, 0].any()
    # w -> -w maps index i to -i mod s
    mirror = eta[(-np.arange(s1)) % s1][:, (-np.arange(s2)) % s2]
    np.testing.assert_allclose(mirror, eta, rtol=1e-12)
    # the half plane's eta measure is the full plane's folded, bit for bit
    np.testing.assert_array_equal(freq.half_plane[1], fold(eta.ravel(), freq))


@given(sides, sides, stationary_thetas)
@settings(max_examples=50, deadline=None)
def test_normalised_density_unit_mass(s1, s2, th):
    assert stationarity_check(th)
    freq = FrequencyGrid(s1, s2)
    lp = log_psi(np.array([th]), freq)
    assert lp.shape == (1, freq.n) and np.isfinite(lp).all()
    mass = np.exp(lp[0]) @ full_plane(freq)[1]
    assert mass == pytest.approx(1.0, rel=1e-12)
    # the estimator's density has unit mass on the folded half plane too
    cosines, eta_measure, _ = freq.half_plane
    half = _log_psi(_symbol_sq(_symbol_coefficients(np.array([th])), cosines), eta_measure)
    assert half.shape == (1, eta_measure.size) and np.isfinite(half).all()
    assert np.exp(half[0]) @ eta_measure == pytest.approx(1.0, rel=1e-12)


@given(sides, sides, st.lists(stationary_thetas, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_log_psi_batched_matches_single(s1, s2, thetas, seed):
    freq = FrequencyGrid(s1, s2)
    coefs = _symbol_coefficients(np.array(thetas))
    cosines, eta_measure, _ = freq.half_plane
    batch = _log_psi(_symbol_sq(coefs, cosines), eta_measure)
    single = np.vstack([_log_psi(_symbol_sq(c[None, :], cosines), eta_measure) for c in coefs])
    assert np.array_equal(batch, single)
    # the contrasts the estimator seeds from batched rows equal those of
    # one candidate at a time, and match the full-plane reference
    tab = column_periodogram(np.random.default_rng(seed).normal(size=(s1, s2)))
    folded = fold(contrast_weights(tab, freq), freq)
    seeded = _contrast(folded[None, :], coefs, freq.half_plane, np.inf)[0]
    assert np.array_equal(seeded, [_contrast(folded[None, :], c[None, :], freq.half_plane, np.inf)[0, 0] for c in coefs])
    np.testing.assert_allclose(
        seeded, [empirical_contrast(tab, th) for th in thetas], rtol=1e-12, atol=1e-14
    )


@given(sides, sides)
@settings(max_examples=50, deadline=None)
def test_half_plane_pairs_each_conjugate_point_once(s1, s2):
    freq = FrequencyGrid(s1, s2)
    counts = fold(np.ones(freq.n), freq)
    # every off-axis point is counted once; only (pi, pi) is its own pair
    assert counts.sum() == (s1 - 1) * (s2 - 1)
    assert (counts == 1).sum() == (s1 % 2 == 0 and s2 % 2 == 0)
    cosines, eta_measure, _ = freq.half_plane
    full_cosines, full_eta = full_plane(freq)
    np.testing.assert_array_equal(cosines, full_cosines[:, freq._pairs[0]])
    assert eta_measure.sum() == pytest.approx(full_eta.sum(), rel=1e-12)


@given(sides, sides, st.lists(stationary_thetas, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
@example(4, 4, [(0.3, 0.5, -0.15)], 0)
@example(2, 2, [(0.3, 0.5, -0.15)], 1)
@settings(max_examples=50, deadline=None)
def test_half_plane_contrast_matches_full_plane(s1, s2, thetas, seed):
    # the estimator's folded half-plane sum is the full-plane contrast
    freq = FrequencyGrid(s1, s2)
    x = np.random.default_rng(seed).normal(size=(s1, s2, 2))
    weights = np.array([contrast_weights(column_periodogram(x[:, :, a], x[:, :, b]), freq)
                        for a, b in ((0, 0), (1, 1), (0, 1))])
    th = np.array(thetas)
    full_lp = log_psi(th, freq)
    full = -(weights @ full_lp.T)
    half = _contrast(fold(weights, freq), _symbol_coefficients(th), freq.half_plane, np.inf)
    # relative to the summed magnitudes: cross weights take both signs, so
    # a contrast itself can cancel to near zero
    magnitude = np.abs(weights) @ np.abs(full_lp).T
    assert np.all(np.abs(half - full) <= 1e-12 * magnitude)


def test_divergence_zero_at_truth_and_positive():
    freq = FrequencyGrid(10, 10)
    th0 = (0.3, 0.5, -0.15)
    assert divergence(th0, th0, freq) == 0.0
    assert divergence(th0, (0.1, 0.2, 0.0), freq) > 0


def test_divergence_equals_contrast_difference():
    freq = FrequencyGrid(9, 11)
    th0, th = (0.2, 0.4, -0.08), (-0.1, 0.3, 0.05)
    lhs = divergence(th0, th, freq)
    rhs = contrast_functional(th0, th, freq) - contrast_functional(th0, th0, freq)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_empirical_contrast_matches_quadrature():
    # independent re-computation of the contrast as explicit loops
    x = np.random.default_rng(9).normal(size=(6, 6))
    tab = column_periodogram(x)
    th = (0.25, 0.4, -0.1)
    w1s, w2s = angles(FrequencyGrid(6, 6))
    cell = (2 * np.pi) ** 2 / 36
    dens = np.empty((6, 6))
    eta = np.empty((6, 6))
    for i, w1 in enumerate(w1s):
        for j, w2 in enumerate(w2s):
            sym = 1 - th[0] * np.exp(1j * w1) - th[1] * np.exp(1j * w2) - th[2] * np.exp(1j * (w1 + w2))
            dens[i, j] = 1.0 / abs(sym) ** 2
            eta[i, j] = abs(w1) ** 2 * abs(w2) ** 2
    psi = dens / (np.sum(dens * eta) * cell)
    total = 0.0
    for i in range(6):
        for j in range(6):
            total -= tab.real[i, j] * eta[i, j] * np.log(psi[i, j])
    total *= cell
    assert empirical_contrast(tab, th) == pytest.approx(total, rel=1e-12)


_inner = st.floats(min_value=-1.0, max_value=1.0)
# AR triples well inside both stationarity regions, where central
# differences of the contrast are accurate
inner_thetas = st.tuples(_inner, _inner, _inner).map(
    lambda th: tuple(0.8 * v / max(1.0, sum(abs(u) for u in th)) for v in th)
)


@given(sides, sides, st.lists(inner_thetas, min_size=1, max_size=4), st.booleans(),
       st.integers(min_value=0, max_value=10**6), st.lists(inner_thetas, min_size=1, max_size=3))
@example(2, 2, [(0.3, 0.5, -0.15)], False, 0, [(0.1, -0.2, 0.05)])
@settings(max_examples=50, deadline=None)
def test_contrast_derivatives_match_finite_differences(s1, s2, thetas, couple, seed, other):
    # the gradient and Hessian in the free coordinates are central
    # differences of `_contrast` and of the gradient; th3 = -th1 th2 when
    # coupled.  A second group of another shape, (s2, s1 + 1), rides along.
    groups, ths = [], []
    for shape, group_thetas in (((s1, s2), thetas), ((s2, s1 + 1), other)):
        freq = FrequencyGrid(*shape)
        x = np.random.default_rng(seed + len(groups)).normal(size=(*shape, len(group_thetas)))
        th = np.array(group_thetas)
        if couple:
            th[:, 2] = -th[:, 0] * th[:, 1]
        folded = all_periodograms(x, freq) * freq.half_plane[1]
        groups.append((folded, folded.sum(axis=1), freq.half_plane))
        ths.append(th)
    th = np.vstack(ths)
    values, grad, hess = _contrast_derivatives(groups, th, couple)
    # a row's bits depend neither on its group nor on the rows beside it,
    # and its value is `_contrast`'s
    start = 0
    for (folded, sums, table), group_th in zip(groups, ths):
        rows = slice(start, start + len(folded))
        start = rows.stop
        assert np.array_equal(values[rows], np.diagonal(_contrast(folded, _symbol_coefficients(group_th), table, np.inf)))
        group = _contrast_derivatives([(folded, sums, table)], group_th, couple)
        assert all(np.array_equal(part[rows], one) for part, one in zip((values, grad, hess), group))
        for i in range(len(folded)):
            alone = _contrast_derivatives([(folded[i : i + 1], sums[i : i + 1], table)], group_th[i : i + 1], couple)
            assert all(np.array_equal(part[rows][i], one[0]) for part, one in zip((values, grad, hess), alone))
    free, eps = (2 if couple else 3), 1e-5
    scale = np.concatenate([sums for _, sums, _ in groups]) + np.abs(values)
    for i in range(free):
        moved = []
        for sign in (1.0, -1.0):
            t = th.copy()
            t[:, i] += sign * eps
            if couple:
                t[:, 2] = -t[:, 0] * t[:, 1]
            moved.append(_contrast_derivatives(groups, t, couple))
        (vp, gp, _), (vm, gm, _) = moved
        assert np.all(np.abs((vp - vm) / (2 * eps) - grad[:, i]) <= 1e-6 * scale)
        assert np.all(np.abs((gp - gm) / (2 * eps) - hess[:, :, i]) <= 1e-5 * scale[:, None])


@pytest.mark.parametrize("couple", [False, True])
@pytest.mark.parametrize("offset", [1, 3])
def test_contrast_derivatives_keep_their_bits_in_any_batch(couple, offset):
    # two groups of unequal shapes whose folded weights are unaligned views,
    # rows of buffers sliced `offset` doubles in: every row has the bits it
    # has evaluated alone, from a fresh C-contiguous copy
    rng = np.random.default_rng(30 + offset)
    groups, ths = [], []
    for shape, rows in (((9, 14), 5), ((16, 15), 3)):
        freq = FrequencyGrid(*shape)
        n = freq.half_plane[1].size
        folded = np.empty((rows, n + 8))[:, offset : offset + n]
        folded[:] = rng.gamma(1.0, size=(rows, n)) * freq.half_plane[1]
        th = rng.uniform(-0.45, 0.45, size=(rows, 3))
        if couple:
            th[:, 2] = -th[:, 0] * th[:, 1]
        groups.append((folded, folded.sum(axis=1), freq.half_plane))
        ths.append(th)
    batch = _contrast_derivatives(groups, np.vstack(ths), couple)
    alone = [
        _contrast_derivatives([(folded[i : i + 1].copy(), sums[i : i + 1], table)], th[i : i + 1], couple)
        for (folded, sums, table), th in zip(groups, ths)
        for i in range(len(folded))
    ]
    for part, single in zip(batch, zip(*alone)):
        assert np.array_equal(part, np.concatenate(single))


@pytest.mark.parametrize("shape", [(2, 2), (7, 9), (16, 15)])
def test_half_plane_cosine_products_are_a_frozen_table(shape):
    cosines, eta_measure, products = FrequencyGrid(*shape).half_plane
    k, l = np.triu_indices(5)
    assert products.shape == (15, eta_measure.size)
    assert np.array_equal(products, cosines[k] * cosines[l])
    assert not products.flags.writeable and products.flags.c_contiguous
