import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmra import (
    SarhSpec,
    SpatialGrid,
    TimeGrid,
    default_variance_profile,
    simulate,
    stationarity_check,
)
from coxmra.sarh import _spectral_variance
from coxmra.wavelet import normalized_eigenfunctions
from conftest import ar_field, stationary_thetas
from oracles import ar_component


def test_stationarity_check_triangle_and_factorized():
    assert stationarity_check((0.3, 0.5, 0.1))
    assert not stationarity_check((0.5, 0.5, 0.2))
    # factorized form passes even though the absolute sum reaches 1.17
    assert stationarity_check((0.9, 0.3, -0.27))
    assert not stationarity_check((1.1, 0.0, 0.0))
    # both edges are open: |th|_1 = 1 off the factorized curve, and
    # max(|th1|, |th2|) = 1 on it
    assert not stationarity_check((0.5, 0.5, 0.0))
    assert stationarity_check((0.99, -0.99, 0.9801))
    assert not stationarity_check((1.0, 0.0, 0.0))
    # the coupled curve is matched to 1e-12 absolute, with no relative slack
    assert stationarity_check((-0.95, -0.95, -0.9025))
    assert not stationarity_check((0.999, 0.999, -0.998001 + 9e-6))


def test_default_variance_profile_unit_trace(reference_spec):
    # profile is scaled so the stationary variances sum to one
    assert reference_spec.stationary_variances().sum() == pytest.approx(1.0)
    sig2 = reference_spec.innovation_variances
    # p^-2 shape preserved
    ratios = sig2 / sig2[0]
    np.testing.assert_allclose(ratios, 1.0 / np.arange(1, 11) ** 2)


def test_coupled_spec_ties_third_eigenvalues(reference_spec):
    np.testing.assert_allclose(
        reference_spec.eigenvalues3,
        -reference_spec.eigenvalues1 * reference_spec.eigenvalues2,
    )
    spec = reference_spec
    theta = (spec.eigenvalues1[0], spec.eigenvalues2[0], spec.eigenvalues3[0])
    assert theta == pytest.approx((0.3, 0.5, -0.15))


def test_uncoupled_spec_requires_triangle_condition():
    tg = TimeGrid(3)
    with pytest.raises(ValueError, match="uncoupled"):
        SarhSpec(
            eigenvalues1=np.array([0.5]),
            eigenvalues2=np.array([0.5]),
            innovation_variances=np.array([1.0]),
            time=tg,
            couple_l3=False,
            eigenvalues3=np.array([0.2]),
        )
    # |lambda_p1| >= 1 fails the uncoupled rule too, with its message
    with pytest.raises(ValueError, match="uncoupled"):
        SarhSpec(np.array([1.0]), np.array([0.0]), np.array([1.0]), tg,
                 couple_l3=False, eigenvalues3=np.array([0.0]))
    with pytest.raises(ValueError, match=r"require \|lambda_p1\| < 1 and \|lambda_p2\| < 1"):
        SarhSpec(np.array([1.0]), np.array([0.0]), np.array([1.0]), tg)
    spec = SarhSpec(
        eigenvalues1=np.array([0.3]),
        eigenvalues2=np.array([0.4]),
        innovation_variances=np.array([1.0]),
        time=tg,
        couple_l3=False,
        eigenvalues3=np.array([0.1]),
    )
    assert spec.truncation == 1


def test_spectral_variance_matches_closed_form():
    # factorized model has variance sigma2 / ((1-th1^2)(1-th2^2))
    th = (0.3, 0.5, -0.15)
    closed = 2.0 / ((1 - 0.09) * (1 - 0.25))
    assert _spectral_variance(th, 2.0) == pytest.approx(closed, rel=1e-6)


@given(stationary_thetas, st.integers(2, 12), st.integers(2, 12), st.integers(0, 3),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_component_recursion_definition(th, s1, s2, burn_in, seed):
    # the simulated field is the AR recursion bit for bit, zeros outside
    # the enlarged lattice, first row and column included
    x = ar_field(th, 1.3, SpatialGrid(s1, s2), burn_in, np.random.default_rng(seed))
    e = np.random.default_rng(seed).normal(0.0, np.sqrt(1.3), size=(s1 + burn_in, s2 + burn_in))
    assert np.array_equal(x, ar_component(th, e)[burn_in:, burn_in:])


def test_simulate_is_sum_of_components(reference_spec):
    # one batched sweep over all components equals the per-component
    # fields, each from its own spawned seed, expanded in the sine basis
    grid, burn_in, seed = SpatialGrid(7, 5), 24, 11
    fld = simulate(reference_spec, grid, burn_in, seed)
    phi = normalized_eigenfunctions(reference_spec.time, reference_spec.truncation)
    seeds = np.random.SeedSequence(seed).spawn(reference_spec.truncation)
    expected = np.zeros_like(fld.values)
    spec = reference_spec
    thetas = zip(spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)
    for p, (theta, sigma2, ss) in enumerate(zip(thetas, spec.innovation_variances, seeds)):
        comp = ar_field(theta, sigma2, grid, burn_in, np.random.default_rng(ss))
        expected += comp[:, :, None] * phi[p][None, None, :]
    assert np.array_equal(fld.values, expected)


def test_component_stationary_variance():
    rng = np.random.default_rng(42)
    x = ar_field((0.3, 0.5, -0.15), 1.0, SpatialGrid(200, 200), 64, rng)
    target = 1.0 / ((1 - 0.09) * (1 - 0.25))
    assert x.var() == pytest.approx(target, rel=0.05)


def test_simulate_deterministic(reference_spec):
    a = simulate(reference_spec, SpatialGrid(6, 6), 64, seed=5)
    b = simulate(reference_spec, SpatialGrid(6, 6), 64, seed=5)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate(reference_spec, SpatialGrid(6, 6), 64, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_simulate_warns_on_small_burn_in(reference_spec):
    with pytest.warns(UserWarning, match="burn_in"):
        simulate(reference_spec, SpatialGrid(4, 4), 2, seed=0)
    lam = np.array([0.05])
    # uncoupled L3 decays at |l1| + |l2| + |l3| = 0.95: 0.95**8 > 1e-6
    uncoupled = SarhSpec(lam, lam, np.ones(1), TimeGrid(2), couple_l3=False,
                         eigenvalues3=np.array([0.85]))
    with pytest.warns(UserWarning, match="burn_in"):
        simulate(uncoupled, SpatialGrid(4, 4), 8, seed=0)
    # the factorized model decays at max(|l1|, |l2|) = 0.05: 0.05**8 < 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(SarhSpec(lam, lam, np.ones(1), TimeGrid(2)), SpatialGrid(4, 4), 8, seed=0)


def test_simulate_total_variance(reference_spec):
    fld = simulate(reference_spec, SpatialGrid(120, 120), 64, seed=2)
    # curves live in the span of discretely orthonormal eigenfunctions, so
    # the mean discrete L2 norm equals the summed component variance (= 1)
    norms = (fld.values**2).sum(axis=2) * fld.time.weight
    assert norms.mean() == pytest.approx(1.0, rel=0.05)

