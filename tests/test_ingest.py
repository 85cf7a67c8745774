import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coxmra.grids import FieldFormatError, SpatialGrid
from coxmra import ingest
from coxmra.ingest import (
    _IDW_BLOCK,
    _IDW_REACH,
    IDW_NEIGHBOURS,
    _nearest,
    _site_buckets,
    idw_interpolate,
    ingest_counts,
    read_count_records,
    resample_time,
)
from oracles import idw_interpolate as idw_oracle
from oracles import resample_time as resample_oracle


def _write_counts(path, rows, header="site_id,x,y,time_index,count"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def test_read_count_records_basic(tmp_path):
    path = tmp_path / "raw.csv"
    rows = [
        f"{sid},{x},{y},{t},{c}"
        for sid, x, y in (("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 0.0, 1.0))
        for t, c in ((0, 3), (1, 5))
    ]
    _write_counts(path, rows)
    coords, series, ids = read_count_records(path)
    assert coords.shape == (3, 2)
    assert series.shape == (3, 2)
    assert list(ids) == ["a", "b", "c"]
    np.testing.assert_allclose(series[0], [3.0, 5.0])


def test_read_count_records_errors(tmp_path):
    path = tmp_path / "raw.csv"
    _write_counts(path, ["a,0,0,0,3"], header="wrong,header")
    with pytest.raises(FieldFormatError, match="header"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,3", "a,0,0,0,4"])
    with pytest.raises(FieldFormatError, match="duplicate"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,3", "a,1,0,1,4"])
    with pytest.raises(FieldFormatError, match="moved"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,0,-3"])
    with pytest.raises(FieldFormatError, match="negative"):
        read_count_records(path)
    _write_counts(path, ["a,0,0,1,3"])
    with pytest.raises(FieldFormatError, match="missing time"):
        read_count_records(path)


def test_idw_exact_hit_copies_value():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    values = np.array([1.0, 2.0, 3.0, 4.0])
    out = idw_interpolate(coords, values, coords.copy())
    np.testing.assert_allclose(out, values)


def test_idw_weighted_average_bounds():
    coords = np.array([[0.0, 0.0], [2.0, 0.0]])
    values = np.array([10.0, 20.0])
    # midpoint: equal weights
    out = idw_interpolate(coords, values, np.array([[1.0, 0.0]]))
    assert out[0] == pytest.approx(15.0)
    # closer to the first site: pulled toward its value, inside the hull
    out = idw_interpolate(coords, values, np.array([[0.5, 0.0]]))
    assert 10.0 < out[0] < 15.0


def _lattice(n):
    return np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), -1).reshape(-1, 2) * 1.0


def _square_targets(lo, hi, n):
    side = np.linspace(lo, hi, n)
    return np.stack(np.meshgrid(side, side, indexing="ij"), -1).reshape(-1, 2)


_rng = np.random.default_rng(5)
# an 8 x 8 integer lattice less one site: 63 sites, so 7 bucket cells of
# side 1 per axis, and every cell boundary runs through a row of sites
_BOUNDARY_LATTICE = np.delete(_lattice(8), 27, axis=0)
# two tight clusters and a far site: targets between the clusters find
# no k sites inside their searched box
_CLUSTERED = np.vstack([_rng.normal(0.0, 0.01, (30, 2)), _rng.normal(5.0, 0.01, (30, 2)), [[9.0, 0.0]]])
_UNIFORM = _rng.uniform(0.0, 1.0, (400, 2))
IDW_CASES = {
    # half-integer targets sit at equal distance from 2 or 4 lattice sites,
    # and further sites tie across the k-nearest cut
    "ties": (_lattice(6), np.arange(36.0), _lattice(11) / 2.0),
    "exact hits": (_lattice(4), _rng.normal(size=(16, 3)), np.vstack([_lattice(4), _lattice(7) / 2.0])),
    "k >= sites": (_lattice(2)[:3], _rng.normal(size=(3, 5)), _rng.uniform(-1, 2, size=(40, 2))),
    "several blocks": (_rng.uniform(0, 9, size=(50, 2)), _rng.normal(size=(50, 7)),
                       np.vstack([_rng.uniform(0, 9, size=(4999, 2)), _lattice(3)])),
    "clustered sites": (_CLUSTERED, _rng.normal(size=(61, 2)), _square_targets(-1.0, 10.0, 50)),
    "sites on cell boundaries": (_BOUNDARY_LATTICE, _rng.normal(size=63),
                                 np.vstack([_lattice(15) / 2.0, _square_targets(-1.0, 8.0, 37)])),
    "collinear sites": (np.column_stack([_rng.uniform(0, 5, 40), np.full(40, 2.0)]), _rng.normal(size=(40, 2)),
                        np.vstack([_rng.uniform(-1, 6, size=(300, 2)), [[1.0, 2.0]]])),
    "one site": (np.array([[0.5, 0.5]]), np.array([[1.0, 2.0]]), np.vstack([_lattice(5) / 4.0, [[0.5, 0.5]]])),
    "equal sites": (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([3.0, 4.0]),
                    np.vstack([_rng.uniform(0, 2, size=(20, 2)), [[1.0, 1.0]]])),
    "targets outside the box": (_rng.uniform(0, 1, size=(60, 2)), _rng.normal(size=(60, 3)),
                                np.vstack([_rng.uniform(-3, 4, size=(500, 2)), _square_targets(-2.0, 3.0, 11)])),
    "400 uniform sites": (_UNIFORM, _rng.normal(size=(400, 4)), _square_targets(_UNIFORM.min(), _UNIFORM.max(), 60)),
}


@pytest.mark.parametrize("case", IDW_CASES)
def test_idw_matches_per_target_loop(case):
    coords, values, targets = IDW_CASES[case]
    assert np.array_equal(idw_interpolate(coords, values, targets),
                          idw_oracle(coords, values, targets))


def test_idw_buckets_fall_back_to_all_sites(monkeypatch):
    # the clustered case sends some targets to the selection over all
    # sites, and the boundary lattice has cells of side exactly 1
    widths = []
    monkeypatch.setattr(ingest, "_nearest", lambda d, k: widths.append(d.shape[1]) or _nearest(d, k))
    coords, values, targets = IDW_CASES["clustered sites"]
    idw_interpolate(coords, values, targets)
    first, *rest = widths
    assert first < len(coords) and len(coords) in rest, widths
    assert np.array_equal(_site_buckets(_BOUNDARY_LATTICE, IDW_NEIGHBOURS)[1], [1.0, 1.0])


def test_idw_peak_memory():
    # 400 uniform sites onto 64 x 64 targets with 16 values.  The peak
    # holds the output and either the weights stage's gathered site values
    # and weighted terms (two block x k x 16 arrays) or four block x width
    # arrays of the candidate search (indices, distances and two
    # temporaries), never both: a block's weighted terms are freed before
    # the next block's search.  No array grows with block x sites.  A cell
    # holds about one site, so the candidate width stays near the
    # (2 reach + 1)^2 cells searched.
    rng = np.random.default_rng(3)
    coords, values = rng.uniform(0.0, 1.0, (400, 2)), rng.normal(size=(400, 16))
    targets = _square_targets(0.0, 1.0, 64)
    width = _site_buckets(coords, IDW_NEIGHBOURS)[3].shape[1]
    assert width <= 2 * (2 * _IDW_REACH + 1) ** 2, width
    idw_interpolate(coords, values, targets)  # warm caches outside the trace
    tracemalloc.start()
    try:
        out = idw_interpolate(coords, values, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = min(_IDW_BLOCK, len(targets))
    bound = out.nbytes + 8 * block * max(2 * IDW_NEIGHBOURS * 16, 4 * width)
    assert peak <= bound + 64 * 1024, (peak, bound)


@st.composite
def lattice_sites(draw):
    """1-40 distinct sites of a small integer lattice in random order, and
    targets at half-integer points (ties across the k-nearest cut) and at
    random points."""
    side = draw(st.integers(1, 7))
    cell = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    coords = np.array(draw(st.lists(cell, min_size=1, max_size=40, unique=True)), dtype=float)
    half = st.integers(-2, 2 * side).map(lambda v: v / 2)
    free = st.floats(-1.0, side)
    point = st.tuples(half, half) | st.tuples(free, free)
    targets = np.array(draw(st.lists(point, min_size=1, max_size=30)), dtype=float)
    trail = draw(st.sampled_from([(), (3,)]))
    values = draw(arrays(float, (len(coords), *trail), elements=st.floats(-1e6, 1e6)))
    return coords, values, targets


@settings(max_examples=150, deadline=None)
@given(case=lattice_sites())
@example(case=(np.array([[0.0, 0.0]]), np.array([0.0]), np.array([[0.0, 0.5]])))
def test_idw_selection_is_exact_under_ties(case):
    coords, values, targets = case
    assert np.array_equal(idw_interpolate(coords, values, targets),
                          idw_oracle(coords, values, targets))
    d = np.linalg.norm(targets[:, None, :] - coords[None, :, :], axis=2)
    for k in range(1, len(coords) + 2):
        assert np.array_equal(_nearest(d, k), np.argsort(d, axis=1, kind="stable")[:, :k])


@st.composite
def raw_series(draw):
    """Raw series of 1-100 samples, or a multiple of 2^depth samples so that
    new time points land exactly on raw samples, with 0-2 leading axes."""
    depth = draw(st.integers(1, 6))
    n_raw = draw(st.integers(1, 100) | st.integers(1, 4).map(lambda m: m * 2**depth))
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    # the full finite range: where a slope overflows, exact samples are still copied
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(arrays(float, (*lead, n_raw), elements=finite)), depth


@settings(max_examples=200, deadline=None)
@given(case=raw_series())
def test_resample_time_matches_np_interp(case):
    series, depth = case
    with np.errstate(over="ignore"):  # np.interp overflows silently
        out = resample_time(series, depth)
    assert np.array_equal(out, resample_oracle(series, depth))


def test_resample_time_constant_and_linear():
    series = np.full((2, 12), 7.0)
    out = resample_time(series, 3)
    np.testing.assert_allclose(out, 7.0)
    # linear series resample close to the line away from the clamped ends
    lin = ((np.arange(24) + 0.5) / 24.0)[None, :]
    out = resample_time(lin, 4)
    t_new = (np.arange(16) + 0.5) / 16.0
    np.testing.assert_allclose(out[0, 1:-1], t_new[1:-1], atol=1e-12)


def test_ingest_counts_end_to_end(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "raw.csv"
    rows = []
    for i in range(5):
        for j in range(5):
            for t in range(8):
                rows.append(f"s{i}_{j},{float(i)},{float(j)},{t},{rng.poisson(6)}")
    _write_counts(path, rows)
    fld = ingest_counts(path, SpatialGrid(5, 5), depth=3)
    assert fld.values.shape == (5, 5, 8)
    # grid corners coincide with data sites, so the corner curve is the
    # exact log1p series of that site
    coords, series, ids = read_count_records(path)
    corner = np.log1p(series[list(ids).index("s0_0")])
    np.testing.assert_allclose(fld.values[0, 0], resample_time(corner[None, :], 3)[0])


def test_ingest_counts_peak_memory(tmp_path):
    # many raw times, few sites, many targets: the sites' series are
    # resampled before IDW, so no array has a targets x raw times term.
    # The bound sums every stage: the parsed rows with their site-id
    # strings (192 B a record), four raw-series arrays and the output
    # twice, plus 64 KiB of small objects.  It has no room for block x
    # sites IDW distance arrays.
    sites, n_raw, grid, depth = 36, 256, SpatialGrid(60, 60), 3
    rng = np.random.default_rng(4)
    xy, counts = rng.uniform(0.0, 1.0, (sites, 2)), rng.poisson(5.0, (sites, n_raw))
    path = tmp_path / "raw.csv"
    _write_counts(path, [f"s{i},{float(x)!r},{float(y)!r},{m},{counts[i, m]}"
                         for i, (x, y) in enumerate(xy) for m in range(n_raw)])
    ingest_counts(path, grid, depth)  # warm caches outside the trace
    tracemalloc.start()
    try:
        ingest_counts(path, grid, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = sites * n_raw * 192 + 8 * (4 * sites * n_raw + 2 * grid.n * (1 << depth))
    assert peak <= bound + 64 * 1024, (peak, bound)
