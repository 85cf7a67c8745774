import tracemalloc
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
from coxmra import sarh
from coxmra.sarh import _ar_fields, _factorized_fields
from coxmra.wavelet import normalized_eigenfunctions
from conftest import ar_field, coupled_thetas, stationary_thetas, triangle_thetas
from oracles import ar_component, factorized_component, spectral_variance, stationary_variances


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
    assert stationary_variances(reference_spec).sum() == pytest.approx(1.0)
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


@pytest.mark.parametrize("args, kwargs, what", [
    ((np.array([]), np.array([]), np.array([])), {}, "need at least one component"),
    ((np.array([0.3]), np.array([0.4]), np.array([1.0])), {"couple_l3": False, "eigenvalues3": np.array([0.1, 0.1])},
     "eigenvalues3 length mismatch"),
    ((np.array([0.3, 0.2]), np.array([0.4, 0.1]), np.array([1.0, 0.0])), {}, "innovation variances must be positive"),
], ids=["no component", "eigenvalues3 length", "zero variance"])
def test_spec_rejects_its_faults(args, kwargs, what):
    with pytest.raises(ValueError, match=f"^{what}$"):
        SarhSpec(*args, TimeGrid(3), **kwargs)


def test_simulate_rejects_negative_burn_in(reference_spec):
    with pytest.raises(ValueError, match="^burn_in must be >= 0$"):
        simulate(reference_spec, SpatialGrid(3, 3), burn_in=-1)


def test_spectral_variance_matches_closed_form():
    # factorized model has variance sigma2 / ((1-th1^2)(1-th2^2))
    th = (0.3, 0.5, -0.15)
    closed = 2.0 / ((1 - 0.09) * (1 - 0.25))
    assert spectral_variance(th, 2.0) == pytest.approx(closed, rel=1e-6)


@given(st.tuples(triangle_thetas, coupled_thetas, st.lists(stationary_thetas, max_size=2)),
       st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)), st.sampled_from([(2, 12), (12, 2)])),
       st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_component_recursion_definition(ths, sides, burn_in, seed):
    # every component of one batched in-place sweep is its own AR
    # recursion bit for bit, zeros outside the enlarged lattice, first row
    # and column included; very unequal sides catch a flat offset that
    # mixes up r1 and r2
    thetas = np.array([ths[0], ths[1], *ths[2]], dtype=float)
    r1, r2 = sides[0] + burn_in, sides[1] + burn_in
    e = np.random.default_rng(seed).normal(size=(len(thetas), r1, r2))
    x = np.zeros((len(thetas), r1 + 1, r2 + 1))
    x[:, 1:, 1:] = e
    _ar_fields(thetas, x)
    assert not x[:, 0].any() and not x[:, :, 0].any()
    for th, xp, ep in zip(thetas, x, e):
        assert np.array_equal(xp[1 + burn_in:, 1 + burn_in:], ar_component(th, ep)[burn_in:, burn_in:])


@given(st.lists(coupled_thetas, min_size=1, max_size=3),
       st.one_of(st.tuples(st.integers(1, 12), st.integers(1, 12)), st.sampled_from([(2, 12), (12, 2)])),
       st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_factorized_recursion_definition(ths, sides, burn_in, seed):
    # every kept row of the batched two-pass sweep is its component's two
    # scalar filters bit for bit, first kept row and column included;
    # very unequal sides catch a pass run along the wrong axis
    thetas = np.array(ths, dtype=float)
    r1, r2 = sides[0] + burn_in, sides[1] + burn_in
    e = np.random.default_rng(seed).normal(size=(len(thetas), r1, r2))
    x = e.copy()
    _factorized_fields(thetas, x, burn_in)
    for th, xp, ep in zip(thetas, x, e):
        assert np.array_equal(xp[burn_in:, burn_in:], factorized_component(th, ep)[burn_in:, burn_in:])


@given(st.lists(coupled_thetas, min_size=1, max_size=3), st.tuples(st.integers(1, 40), st.integers(1, 40)),
       st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_factorized_passes_match_the_wavefront(ths, sides, seed):
    # on a factorized model the passes and the general wavefront are one
    # field up to rounding: the wavefront rounds th3 = -th1 * th2, the
    # passes never form it.  Each rounding is carried at most the filter's
    # gain 1 / ((1 - |th1|)(1 - |th2|)) times, so the bound is a few ulps
    # of the field's scale per unit gain.
    thetas = np.array(ths, dtype=float)
    e = np.random.default_rng(seed).normal(size=(len(thetas), *sides))
    wave = np.zeros((len(thetas), sides[0] + 1, sides[1] + 1))
    wave[:, 1:, 1:] = e
    _ar_fields(thetas, wave)
    passes = e.copy()
    _factorized_fields(thetas, passes, 0)
    for th, w, x in zip(thetas, wave[:, 1:, 1:], passes):
        gain = 1.0 / ((1.0 - abs(th[0])) * (1.0 - abs(th[1])))
        assert np.abs(w - x).max() <= 4 * gain * np.finfo(float).eps * np.abs(x).max()


def _general_spec(spec):
    """An uncoupled model on the reference spec's variances and time grid."""
    lam1, lam2 = 0.5 * spec.eigenvalues1, 0.5 * spec.eigenvalues2
    return SarhSpec(lam1, lam2, spec.innovation_variances, spec.time, couple_l3=False, eigenvalues3=0.1 * lam1)


def test_simulate_peak_memory(reference_spec):
    # the innovations array (padded for the wavefront), one component's
    # draw, the output field and the expansion's block-sized product
    # buffer: no skewed, stacked or field-sized copy.  The lattice
    # spans ten blocks of ten rows.  The slack is the two operand buffers
    # of numpy's broadcasting ufunc loop, which tracemalloc sees too, and
    # small Python objects.
    grid, burn_in, n = SpatialGrid(100, 100), 64, reference_spec.time.n
    k, r1, r2 = reference_spec.truncation, grid.s1 + burn_in, grid.s2 + burn_in
    assert grid.s1 * grid.s2 * n > 9 * sarh._EXPAND_BLOCK >= 9 * grid.s2 * n
    slack = 2 * 8 * np.getbufsize() + 16 * 1024
    for spec, innovations in ((reference_spec, k * r1 * r2), (_general_spec(reference_spec), k * (r1 + 1) * (r2 + 1))):
        bound = 8 * (innovations + r1 * r2 + grid.s1 * grid.s2 * n + sarh._EXPAND_BLOCK)
        simulate(spec, grid, burn_in, seed=0)  # warm caches outside the trace
        tracemalloc.start()
        try:
            simulate(spec, grid, burn_in, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + slack, (spec.couple_l3, peak, bound)


def test_simulate_is_sum_of_components(reference_spec, monkeypatch):
    # each component is its model's recursion, the two passes or the
    # wavefront, on the draw of its own spawned seed, and the field is
    # their sum in the sine basis; for the general model as for the
    # factorized one, in one expansion block and in blocks of three rows
    # with a short last block
    grid, burn_in, seed = SpatialGrid(7, 5), 24, 11
    phi = normalized_eigenfunctions(reference_spec.time, reference_spec.truncation)
    seeds = np.random.SeedSequence(seed).spawn(reference_spec.truncation)
    for block in (sarh._EXPAND_BLOCK, 3 * grid.s2 * reference_spec.time.n):
        monkeypatch.setattr(sarh, "_EXPAND_BLOCK", block)
        for spec, oracle in ((reference_spec, factorized_component), (_general_spec(reference_spec), ar_component)):
            fld = simulate(spec, grid, burn_in, seed)
            expected = np.zeros_like(fld.values)
            thetas = zip(spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)
            for p, (theta, sigma2, ss) in enumerate(zip(thetas, spec.innovation_variances, seeds)):
                e = np.random.default_rng(ss).normal(0.0, np.sqrt(sigma2), size=(grid.s1 + burn_in, grid.s2 + burn_in))
                expected += oracle(theta, e)[burn_in:, burn_in:, None] * phi[p][None, None, :]
            assert np.array_equal(fld.values, expected), (spec.couple_l3, block)


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

