import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxmra import FrequencyGrid, divergence, log_psi, periodogram
from coxmra.spectral import (
    _inverse_symbol_sq,
    _log_psi,
    _symbol_coefficients,
    all_periodograms,
    contrast_functional,
    contrast_weights,
    empirical_contrast,
    stationarity_check,
)
from conftest import stationary_thetas
from oracles import fdft, periodogram_direct

sides = st.integers(min_value=2, max_value=16)


def test_frequency_grid_fundamental_domain():
    freq = FrequencyGrid(4, 6)
    assert freq.w1.min() > -np.pi
    assert freq.w1.max() <= np.pi
    # the Nyquist angle maps to +pi, not -pi
    assert np.pi in freq.w1
    assert freq.cell_measure == pytest.approx((2 * np.pi) ** 2 / 24)


def test_fdft_constant_field():
    # at w = (2pi/s1, 2pi/s2) the transform of a constant field vanishes
    # (full period of the complex exponential)
    x = np.ones((4, 4))
    val = fdft(x, (2 * np.pi / 4, 2 * np.pi / 4))
    assert abs(val) < 1e-12
    # the FFT path vanishes at every nonzero Fourier frequency
    f = all_periodograms(x[:, :, None])[:, :, 0]
    assert abs(f[0, 0]) == pytest.approx(16 / (2 * np.pi * 4))
    f[0, 0] = 0.0
    assert np.abs(f).max() < 1e-12


def test_fdft_single_site_phase():
    # oracle: a unit impulse at site (p, q) = (1, 1) (0-based (0, 0))
    # transforms to e^{-i(w1 + w2)} / (2 pi sqrt(N))
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    w = (0.7, -1.1)
    expected = np.exp(-1j * (w[0] + w[1])) / (2 * np.pi * 3.0)
    assert fdft(x, w) == pytest.approx(expected, abs=1e-14)
    # the FFT path applies the same 1-based phase at every Fourier frequency
    w1, w2 = FrequencyGrid(3, 3).mesh()
    np.testing.assert_allclose(
        all_periodograms(x[:, :, None])[:, :, 0],
        np.exp(-1j * (w1 + w2)) / (2 * np.pi * 3.0),
        atol=1e-14,
    )


@given(sides, sides, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_periodogram_matches_direct_sum(s1, s2, seed):
    x, y = np.random.default_rng(seed).normal(size=(2, s1, s2))
    fast = periodogram(x)
    slow = periodogram_direct(x)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)
    fast = periodogram(x, y)
    slow = periodogram_direct(x, y)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_cross_periodogram_conjugate_symmetry():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 6, 5))
    iab = periodogram(a, b)
    iba = periodogram(b, a)
    np.testing.assert_allclose(iab, np.conj(iba), atol=1e-12)


def test_diagonal_periodogram_nonnegative():
    x = np.random.default_rng(1).normal(size=(7, 7))
    tab = periodogram(x)
    assert tab.shape == (7, 7)
    assert np.all(tab.real >= -1e-15)
    np.testing.assert_allclose(tab.imag, 0.0, rtol=0, atol=1e-15)


def test_all_periodograms_consistent():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(5, 6, 3))
    f = all_periodograms(coeffs)
    for a in range(3):
        expected = periodogram(coeffs[:, :, a])
        np.testing.assert_allclose(f[:, :, a] * np.conj(f[:, :, a]), expected, atol=1e-12)


def test_periodogram_mean_relation():
    # Parseval-type oracle: the plain sum of the diagonal periodogram over
    # all Fourier frequencies equals sum(x^2) / (2 pi)^2
    x = np.random.default_rng(2).normal(size=(8, 5))
    tab = periodogram(x)
    assert np.sum(tab.real) == pytest.approx(
        np.sum(x**2) / (2 * np.pi) ** 2, rel=1e-10
    )


@given(sides, sides, stationary_thetas)
@settings(max_examples=50, deadline=None)
def test_ar_symbol_sq_zero_frequency(s1, s2, th):
    # at w = 0 (the first flattened frequency) the symbol is 1 - th1 - th2 - th3
    inv = _inverse_symbol_sq(np.array([th]), FrequencyGrid(s1, s2))
    assert inv.shape == (1, s1 * s2)
    assert 1.0 / inv[0, 0] == pytest.approx((1 - sum(th)) ** 2, rel=1e-12)


def test_contrast_rejects_nonstationary():
    # the second triple is 9e-6 off the coupled curve, where the AR
    # polynomial vanishes inside the unit bidisk: no relative tolerance
    good = (0.3, 0.5, -0.15)
    tab = periodogram(np.random.default_rng(3).normal(size=(6, 6)))
    freq = FrequencyGrid(6, 6)
    for bad in ((0.7, 0.7, 0.0), (0.999, 0.999, -0.998001 + 9e-6)):
        with pytest.raises(ValueError):
            empirical_contrast(tab, bad)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError):
                divergence(*pair, freq)
            with pytest.raises(ValueError):
                contrast_functional(*pair, freq)
    # the exact coupled corner of the default box passes
    corner = (-0.95, -0.95, -0.9025)
    assert stationarity_check(corner)
    assert np.isfinite(empirical_contrast(tab, corner))
    assert divergence(corner, corner, freq) == 0.0


@given(sides, sides)
@settings(max_examples=50, deadline=None)
def test_eta_weight_even_and_axis_zero(s1, s2):
    freq = FrequencyGrid(s1, s2)
    eta = freq.eta.reshape(s1, s2)
    w1, w2 = freq.mesh()
    np.testing.assert_allclose(eta, w1**2 * w2**2, rtol=1e-15)
    # zero frequency sits at index 0 of each axis
    assert not eta[0].any() and not eta[:, 0].any()
    # w -> -w maps index i to -i mod s
    mirror = eta[(-np.arange(s1)) % s1][:, (-np.arange(s2)) % s2]
    np.testing.assert_allclose(mirror, eta, rtol=1e-12)
    np.testing.assert_array_equal(freq.eta_measure, freq.eta * freq.cell_measure)


@given(sides, sides, stationary_thetas)
@settings(max_examples=50, deadline=None)
def test_normalised_density_unit_mass(s1, s2, th):
    assert stationarity_check(th)
    freq = FrequencyGrid(s1, s2)
    lp = log_psi(np.array([th]), freq)
    assert lp.shape == (1, freq.n) and np.isfinite(lp).all()
    mass = np.exp(lp[0]) @ freq.eta * freq.cell_measure
    assert mass == pytest.approx(1.0, rel=1e-12)


@given(sides, sides, st.lists(stationary_thetas, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_log_psi_batched_matches_single(s1, s2, thetas, seed):
    freq = FrequencyGrid(s1, s2)
    batch = log_psi(np.array(thetas), freq)
    single = np.vstack([log_psi(np.array([th]), freq) for th in thetas])
    assert np.array_equal(batch, single)
    # the contrasts the estimator seeds from batched rows match the public
    # per-candidate contrast (the BLAS reduction order may differ)
    tab = periodogram(np.random.default_rng(seed).normal(size=(s1, s2)))
    seeded = -(contrast_weights(tab, freq) @ batch.T)
    np.testing.assert_allclose(
        seeded, [empirical_contrast(tab, th) for th in thetas], rtol=1e-12, atol=1e-14
    )


@given(sides, sides)
@settings(max_examples=50, deadline=None)
def test_half_plane_pairs_each_conjugate_point_once(s1, s2):
    freq = FrequencyGrid(s1, s2)
    counts = freq.fold(np.ones(freq.n))
    # every off-axis point is counted once; only (pi, pi) is its own pair
    assert counts.sum() == (s1 - 1) * (s2 - 1)
    assert (counts == 1).sum() == (s1 % 2 == 0 and s2 % 2 == 0)
    cosines, eta_measure = freq.half_plane
    assert cosines.shape == (5, counts.size)
    assert eta_measure.sum() == pytest.approx(freq.eta_measure.sum(), rel=1e-12)


@given(sides, sides, st.lists(stationary_thetas, min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**6))
@example(4, 4, [(0.3, 0.5, -0.15)], 0)
@example(2, 2, [(0.3, 0.5, -0.15)], 1)
@settings(max_examples=50, deadline=None)
def test_half_plane_contrast_matches_full_plane(s1, s2, thetas, seed):
    # the estimator's folded half-plane sum is the full-plane contrast
    freq = FrequencyGrid(s1, s2)
    x = np.random.default_rng(seed).normal(size=(s1, s2, 2))
    f = all_periodograms(x).reshape(-1, 2)
    weights = np.array([contrast_weights(f[:, a] * np.conj(f[:, b]), freq)
                        for a, b in ((0, 0), (1, 1), (0, 1))])
    th = np.array(thetas)
    full_lp = log_psi(th, freq)
    full = -(weights @ full_lp.T)
    half = -(freq.fold(weights) @ _log_psi(_symbol_coefficients(th), *freq.half_plane).T)
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
    tab = periodogram(x)
    th = (0.25, 0.4, -0.1)
    freq = FrequencyGrid(6, 6)
    dens = np.empty((6, 6))
    eta = np.empty((6, 6))
    for i, w1 in enumerate(freq.w1):
        for j, w2 in enumerate(freq.w2):
            sym = 1 - th[0] * np.exp(1j * w1) - th[1] * np.exp(1j * w2) - th[2] * np.exp(1j * (w1 + w2))
            dens[i, j] = 1.0 / abs(sym) ** 2
            eta[i, j] = abs(w1) ** 2 * abs(w2) ** 2
    psi = dens / (np.sum(dens * eta) * freq.cell_measure)
    total = 0.0
    for i in range(6):
        for j in range(6):
            total -= tab.real[i, j] * eta[i, j] * np.log(psi[i, j])
    total *= freq.cell_measure
    assert empirical_contrast(tab, th) == pytest.approx(total, rel=1e-12)
