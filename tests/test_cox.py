import re

import numpy as np
import pytest

from coxmra import (
    CountGrid,
    FunctionalField,
    SpatialGrid,
    TimeGrid,
    integrated_intensity,
    intensity,
    sample_counts,
)
from coxmra.cox import save_counts
from oracles import moment_bound_check, table_csv


def _logfield(values):
    values = np.asarray(values, dtype=float)
    return FunctionalField(SpatialGrid(*values.shape[:2]), TimeGrid(values.shape[2].bit_length() - 1), values)


def test_intensity_exponentiates():
    fld = _logfield(np.zeros((2, 2, 4)))
    inten = intensity(fld)
    np.testing.assert_allclose(inten.values, 1.0)


def test_intensity_overflow_guard():
    vals = np.zeros((2, 2, 4))
    vals[1, 0, 2] = 800.0
    with pytest.raises(OverflowError, match=r"\(1, 0\)"):
        intensity(_logfield(vals))


def test_integrated_intensity_midpoint_rule():
    # oracle: int_0^1 exp(t) dt = e - 1; midpoint rule error O(h^2)
    tg = TimeGrid(8)
    vals = np.tile(tg.points, (2, 2, 1))
    inten = intensity(_logfield(vals))
    integral = integrated_intensity(inten)
    np.testing.assert_allclose(integral, np.e - 1.0, atol=1e-5)


def test_sample_counts_deterministic_and_order_free():
    means = np.full((3, 3), 4.0)
    a = sample_counts(means, seed=9)
    b = sample_counts(means, seed=9)
    np.testing.assert_array_equal(a.counts, b.counts)
    # one stream draws the cells in C order, so enlarging the grid keeps
    # the draws of the leading cells when their means are unchanged
    small = sample_counts(np.full((2, 3), 4.0), seed=9)
    np.testing.assert_array_equal(small.counts.ravel(), a.counts.ravel()[:6])


def test_sample_counts_distribution():
    means = np.full((80, 80), 3.0)
    cg = sample_counts(means, seed=1)
    # Poisson(3): mean 3, variance 3
    assert cg.counts.mean() == pytest.approx(3.0, abs=3 * np.sqrt(3.0 / means.size))
    assert cg.counts.var() == pytest.approx(3.0, rel=0.1)


def test_count_grid_validation():
    # the one producer checks the means; Poisson draws need no re-check
    for bad in (0.0, -1.0, np.nan):
        means = np.full((2, 2), 3.0)
        means[1, 0] = bad
        with pytest.raises(ValueError, match="^Poisson means must be positive$"):
            sample_counts(means, seed=0)


def test_sample_counts_names_a_mean_too_large_to_draw():
    # numpy draws no Poisson count from a mean beyond about 9.2e18
    means = np.full((3, 4), 2.0)
    means[1, 2], means[2, 0] = 1e20, 1e19
    with pytest.raises(ValueError, match=re.escape("Poisson mean 1e+20 at cell (1, 2) is too large to draw") + "$"):
        sample_counts(means, seed=0)


def test_moment_bound_holds(reference_spec):
    second, bound, passed = moment_bound_check(reference_spec, n_mc=1000, seed=0)
    assert passed
    assert second <= bound
    # oracle: trace is 1 by construction, so the bound is exp(4 sup^2)
    # with sup the largest absolute sample of the normalized sines
    from coxmra import normalized_eigenfunctions

    sup = np.max(np.abs(normalized_eigenfunctions(reference_spec.time, 10)))
    assert bound == pytest.approx(np.exp(4.0 * sup**2), rel=1e-9)


def test_save_counts_format(tmp_path):
    cg = sample_counts(np.full((2, 2), 5.0), seed=3)
    path = tmp_path / "counts.csv"
    save_counts(cg, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,q,count,mean"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,")


def test_save_counts_matches_per_cell_writer(tmp_path):
    means = np.array([[5e-324, 1e-5, 1e16], [9999999999999998.0, 1.7976931348623157e308, 2.5]])
    counts = np.array([[0, 1, 2**62], [7, 2**63 - 1, 3]])
    cg = CountGrid(counts, means)
    save_counts(cg, tmp_path / "counts.csv")
    rows = [(p, q, counts[p, q], means[p, q]) for p, q in np.ndindex(2, 3)]
    expected = table_csv(("p", "q", "count", "mean"), rows)
    assert (tmp_path / "counts.csv").read_bytes() == expected.encode()


def test_intensity_underflow_guard():
    # exp(-800) underflows to zero: the intensity would not be positive
    vals = np.zeros((2, 2, 4))
    vals[1, 0, 2] = -800.0
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        intensity(_logfield(vals))
